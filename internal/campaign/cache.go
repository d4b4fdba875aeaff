package campaign

import (
	"container/list"
	"fmt"
	"sort"
	"sync"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/precond"
)

// CacheStats are the setup cache's hit/miss counters (solverd exposes
// its instance's through GET /stats). Setup counters only ever see
// cacheable preconditioner families (runs consult the cache for
// precond.Cacheable only), so the hit rate measures real reuse, not
// structural misses.
type CacheStats struct {
	ProblemHits   int64 `json:"problem_hits"`
	ProblemMisses int64 `json:"problem_misses"`
	SetupHits     int64 `json:"setup_hits"`
	SetupMisses   int64 `json:"setup_misses"`
	// SetupEvictions counts artifacts dropped by the LRU bound;
	// SetupEntries is the resident artifact count at sample time. An
	// eviction never changes any result: the next miss re-runs Setup,
	// and Cacheable.Adopt charges the exact same virtual cost either
	// way.
	SetupEvictions int64 `json:"setup_evictions"`
	SetupEntries   int64 `json:"setup_entries"`
}

// problemKey identifies one assembled problem.
type problemKey struct {
	name string
	grid int
}

// problemEntry is one cached assembly; the Once collapses concurrent
// first requests for the same problem into a single build.
type problemEntry struct {
	once sync.Once
	p    Problem
	err  error
}

// planKey is one rank's slot of a problem's CSR plans.
type planKey struct{ ranks, rank int }

// csrPlans memoises the per-rank dist.CSRPlan of one cached Problem's
// matrix. It hangs off the Problem it was derived from — never off a
// problem name — so a plan can only ever be bound to the matrix it was
// planned from.
type csrPlans struct {
	mu sync.Mutex
	m  map[planKey]*dist.CSRPlan
}

// csr returns rank c.Rank()'s distributed slab of the problem's
// matrix. A problem from a Cache binds its memoised plan (planning it
// on first use); any other problem plans afresh, exactly as
// dist.NewCSR would.
func (p Problem) csr(c *comm.Comm) *dist.CSR {
	if p.plans == nil {
		return dist.NewCSR(c, p.A)
	}
	k := planKey{ranks: c.Size(), rank: c.Rank()}
	p.plans.mu.Lock()
	defer p.plans.mu.Unlock()
	plan := p.plans.m[k]
	if plan == nil {
		plan = dist.PlanCSR(p.A, k.ranks, k.rank)
		p.plans.m[k] = plan
	}
	return plan.Bind(c)
}

// setupEntryKey is one rank's slot of a preconditioner Setup artifact.
type setupEntryKey struct {
	SetupKey
	rank int
}

// setupEntry is one LRU node: the key (so eviction can unlink the map
// slot from the list element) and the immutable artifact.
type setupEntry struct {
	key setupEntryKey
	a   *precond.Artifact
}

// Cache shares solve-setup work across runs: problem assemblies keyed
// by (problem, grid), each carrying its per-rank CSR plans keyed by
// (ranks, rank), and preconditioner Setup artifacts keyed by (problem,
// grid, ranks, precond, rank). All are immutable once stored —
// problems and plans are shared read-only by every rank of every run,
// and artifacts follow precond.Cacheable's read-only contract — so a
// hit is a pure wall-clock saving with bitwise-unchanged results.
// ExecuteRunEnv uses a process-wide instance unless its caller brings
// its own; solverd keeps one per server.
//
// The setup side is bounded: SetMaxEntries caps resident artifacts and
// evicts least-recently-used beyond the cap. Eviction is safe while a
// run is mid-Adopt: artifacts are shared by pointer and never mutated,
// so a run holding an evicted artifact simply finishes with it; the
// next run for that key re-runs Setup and Adopt re-charges the exact
// Setup virtual cost, keeping evicted-then-recomputed runs
// byte-identical to always-cached ones. The problem side, plans
// included, stays unbounded — the problem × grid × ranks space is tiny
// next to the setup key space (which multiplies in precond family and
// per-rank slots).
//
// Cache is safe for concurrent use from the rank goroutines of
// concurrently executing runs.
type Cache struct {
	mu       sync.Mutex
	problems map[problemKey]*problemEntry
	setups   map[setupEntryKey]*list.Element // of *setupEntry
	lru      *list.List                      // front = most recent
	max      int                             // 0 = unbounded
	stats    CacheStats
}

// NewCache returns an empty, unbounded cache.
func NewCache() *Cache {
	return &Cache{
		problems: make(map[problemKey]*problemEntry),
		setups:   make(map[setupEntryKey]*list.Element),
		lru:      list.New(),
	}
}

// SetMaxEntries bounds the setup cache to n resident artifacts
// (per-rank slots), evicting least-recently-used entries beyond the
// bound. n <= 0 means unbounded. Shrinking below the current
// population evicts immediately.
func (c *Cache) SetMaxEntries(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.max = n
	c.evictLocked()
}

// evictLocked drops LRU tail entries until the bound holds.
func (c *Cache) evictLocked() {
	if c.max <= 0 {
		return
	}
	for c.lru.Len() > c.max {
		back := c.lru.Back()
		e := back.Value.(*setupEntry)
		c.lru.Remove(back)
		delete(c.setups, e.key)
		c.stats.SetupEvictions++
	}
}

// Problem returns the cached assembly of the named problem, building it
// on first request. Concurrent first requests build once; everyone
// shares the result, and the CSR plans runs derive from it, read-only.
func (c *Cache) Problem(name string, grid int) (Problem, error) {
	k := problemKey{name: name, grid: grid}
	c.mu.Lock()
	e, ok := c.problems[k]
	if ok {
		c.stats.ProblemHits++
	} else {
		e = &problemEntry{}
		c.problems[k] = e
		c.stats.ProblemMisses++
	}
	c.mu.Unlock()
	e.once.Do(func() {
		e.p, e.err = BuildProblem(name, grid)
		e.p.plans = &csrPlans{m: make(map[planKey]*dist.CSRPlan)}
	})
	return e.p, e.err
}

// Lookup returns rank's artifact for key k, or nil on a miss (the rank
// then runs its own Setup and offers the export back through Store).
// A hit freshens the entry's LRU position. Runs consult Lookup and
// Store from the rank goroutines of concurrently executing runs.
func (c *Cache) Lookup(k SetupKey, rank int) *precond.Artifact {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.setups[setupEntryKey{SetupKey: k, rank: rank}]
	if !ok {
		c.stats.SetupMisses++
		return nil
	}
	c.stats.SetupHits++
	c.lru.MoveToFront(el)
	return el.Value.(*setupEntry).a
}

// Store offers rank's Setup artifact for key k. The first artifact
// stored for a key wins; artifacts are deterministic functions of the key, so later
// duplicates (two concurrent misses) carry identical data anyway. A
// duplicate store freshens the existing entry instead of reinserting.
func (c *Cache) Store(k SetupKey, rank int, a *precond.Artifact) {
	if a == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ek := setupEntryKey{SetupKey: k, rank: rank}
	if el, ok := c.setups[ek]; ok {
		c.lru.MoveToFront(el)
		return
	}
	c.setups[ek] = c.lru.PushFront(&setupEntry{key: ek, a: a})
	c.evictLocked()
}

// Contains reports whether the key's artifact is resident, without
// touching counters or LRU order (test and snapshot introspection).
func (c *Cache) Contains(k SetupKey, rank int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.setups[setupEntryKey{SetupKey: k, rank: rank}]
	return ok
}

// Index returns the resident setup keys as sorted "key#rank" strings —
// the snapshot's operator-visible cache inventory. It does not touch
// counters or LRU order.
func (c *Cache) Index() []string {
	c.mu.Lock()
	keys := make([]string, 0, len(c.setups))
	for ek := range c.setups {
		keys = append(keys, fmt.Sprintf("%s/g%d/p%d/%s#%d", ek.Problem, ek.Grid, ek.Ranks, ek.Precond, ek.rank))
	}
	c.mu.Unlock()
	sort.Strings(keys)
	return keys
}

// Stats returns a copy of the counters, with SetupEntries sampled.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.SetupEntries = int64(c.lru.Len())
	return st
}

// Env returns the execution environment that routes one run's
// assembly through this cache and its progress through the given sink
// (nil for none).
func (c *Cache) Env(progress func(attempt, iter int, relres float64)) *ExecEnv {
	return &ExecEnv{Problems: c.Problem, Setups: c, Progress: progress}
}

package campaign

import (
	"crypto/sha256"
	"encoding/json"
	"sync"
	"testing"
)

// runDigest is one run's record and the digest of its rank-0 trace.
type runDigest struct {
	rec   []byte
	trace [sha256.Size]byte
}

// quickPass executes refs on two concurrent workers, tracing every run,
// and returns their digests in refs order. bypass supplies Problems,
// which takes the run off the default cache.
func quickPass(t *testing.T, spec *Spec, refs []RunRef, bypass bool) []runDigest {
	t.Helper()
	out := make([]runDigest, len(refs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ref := refs[i]
				env := &ExecEnv{Tracer: NewRunTracer(spec, ref.Cell, ref.Rep)}
				if bypass {
					env.Problems = BuildProblem
				}
				rec, err := json.Marshal(ExecuteRunEnv(spec, ref.Cell, ref.Rep, env))
				if err != nil {
					t.Error(err)
				}
				h := sha256.New()
				if err := env.Tracer.WriteJSONL(h); err != nil {
					t.Error(err)
				}
				out[i].rec = rec
				copy(out[i].trace[:], h.Sum(nil))
			}
		}()
	}
	for i := range refs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// TestDefaultCacheByteIdentical pins the default setup cache as a pure
// wall-clock saving: over the quick grid, records and traces are byte
// for byte the same with the process-wide cache cold, warm, and
// bypassed by a caller-supplied Problems — even though which run
// misses first depends on worker scheduling. Rank-kill traces are
// compared by record only: their survivor-side timings differ in
// trailing digits by design (see comm.Die).
func TestDefaultCacheByteIdentical(t *testing.T) {
	spec := QuickSpec()
	refs := spec.ShardRuns(0, 1)
	if testing.Short() {
		refs = spec.ShardRuns(0, 4)
	}
	defaultCache = NewCache()
	cold := quickPass(t, &spec, refs, false)
	if st := defaultCache.Stats(); st.ProblemHits == 0 || st.SetupHits == 0 {
		t.Fatalf("default cache unused: %+v", st)
	}
	warm := quickPass(t, &spec, refs, false)
	bypassed := quickPass(t, &spec, refs, true)
	for i, ref := range refs {
		key := ref.Cell.RunKey(ref.Rep)
		for _, other := range []struct {
			name string
			d    runDigest
		}{{"warm", warm[i]}, {"bypassed", bypassed[i]}} {
			if string(other.d.rec) != string(cold[i].rec) {
				t.Errorf("%s: %s record differs from cold:\n%s\n%s", key, other.name, other.d.rec, cold[i].rec)
			}
			if ref.Cell.Fault.Model != FaultRankKill && other.d.trace != cold[i].trace {
				t.Errorf("%s: %s trace differs from cold", key, other.name)
			}
		}
	}
}

// TestCachedProblemBindsItsOwnPlans: plans hang off the cached problem
// they were planned from, per (ranks, rank); a problem built outside a
// cache carries none, so a caller-supplied builder is always planned
// afresh from its own matrix.
func TestCachedProblemBindsItsOwnPlans(t *testing.T) {
	c := NewCache()
	p, err := c.Problem(ProblemPoisson, 8)
	if err != nil {
		t.Fatal(err)
	}
	q, _ := c.Problem(ProblemPoisson, 8)
	if p.plans == nil || p.plans != q.plans {
		t.Fatal("one cached problem must carry one shared plan table")
	}
	if other, _ := c.Problem(ProblemAniso, 8); other.plans == p.plans {
		t.Fatal("two problems share a plan table")
	}
	if fresh, _ := BuildProblem(ProblemPoisson, 8); fresh.plans != nil {
		t.Fatal("BuildProblem attached plans")
	}
}

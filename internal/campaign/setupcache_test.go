package campaign

import (
	"encoding/json"
	"testing"
)

// TestFTGMRESInnerSetupUsesCache: ftgmres builds its inner block-ILU
// itself, but the factorisation's identity is the same (problem, grid,
// ranks, precond) as a plain bj-ilu cell's, so it must hit the same
// setup cache — and cached runs must stay byte-identical to uncached
// ones (Adopt charges Setup's exact virtual cost).
func TestFTGMRESInnerSetupUsesCache(t *testing.T) {
	spec := Spec{
		Name: "ft-cache", Seed: 13,
		Solvers:    []string{SolverFTGMRES},
		Preconds:   []string{PrecondBJILU},
		Problems:   []string{ProblemPoisson},
		Ranks:      []int{2},
		Faults:     []FaultSpec{{Model: FaultBitflip, Rate: 1e-3}},
		Replicates: 2, Grid: 10, Tol: 1e-6, MaxIter: 200,
	}
	cells := spec.Cells()
	if len(cells) != 1 {
		t.Fatalf("spec expands to %d cells, want 1", len(cells))
	}

	// Uncached oracle: a caller-supplied Problems bypasses the default
	// cache.
	uncached := &ExecEnv{Problems: BuildProblem}
	plain0 := ExecuteRunEnv(&spec, cells[0], 0, uncached)
	plain1 := ExecuteRunEnv(&spec, cells[0], 1, uncached)

	cache := NewCache()
	env := &ExecEnv{Setups: cache}
	cached0 := ExecuteRunEnv(&spec, cells[0], 0, env)
	cached1 := ExecuteRunEnv(&spec, cells[0], 1, env)

	for _, pair := range []struct{ plain, cached Record }{{plain0, cached0}, {plain1, cached1}} {
		pb, _ := json.Marshal(pair.plain)
		cb, _ := json.Marshal(pair.cached)
		if string(pb) != string(cb) {
			t.Errorf("cached ftgmres run differs from uncached:\n%s\n%s", cb, pb)
		}
	}
	st := cache.Stats()
	if st.SetupMisses != 2 {
		t.Errorf("cache saw %d misses, want 2 (one per rank on the first run)", st.SetupMisses)
	}
	if st.SetupHits != 2 {
		t.Errorf("cache saw %d hits, want 2 (one per rank on the second run) — ftgmres's inner ILU is bypassing the setup cache", st.SetupHits)
	}
}

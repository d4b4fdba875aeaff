package campaign

import (
	"testing"
	"time"
)

// testSpec is the miniature campaign the engine tests run: 8 cells,
// 16 runs, well under a second.
func testSpec() Spec {
	return Spec{
		Name:     "test",
		Seed:     3,
		Solvers:  []string{SolverPCG, SolverGMRES},
		Preconds: []string{PrecondNone, PrecondJacobi},
		Problems: []string{ProblemPoisson},
		Ranks:    []int{2},
		Faults: []FaultSpec{
			{Model: FaultNone},
			{Model: FaultRankKill, MTBF: 60},
		},
		Replicates:  2,
		Grid:        8,
		Tol:         1e-6,
		MaxIter:     300,
		MaxRestarts: 2,
	}
}

func TestBuildProblems(t *testing.T) {
	for _, name := range []string{ProblemPoisson, ProblemAniso, ProblemConvDiff, ProblemHeat} {
		p, err := BuildProblem(name, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.A.Rows != 64 || p.A.Cols != 64 {
			t.Errorf("%s: dimension %dx%d, want 64x64", name, p.A.Rows, p.A.Cols)
		}
		if len(p.RHS) != 64 {
			t.Errorf("%s: rhs length %d", name, len(p.RHS))
		}
		spd := name != ProblemConvDiff
		if spd && !(0 < p.LMin && p.LMin < p.LMax) {
			t.Errorf("%s: spectral bounds [%g, %g] not usable", name, p.LMin, p.LMax)
		}
	}
	if _, err := BuildProblem("nonsense", 8); err == nil {
		t.Error("unknown problem accepted")
	}
}

// TestEveryRunnerConvergesClean runs each solver family through
// ExecuteRun on a compatible clean cell; all must converge.
func TestEveryRunnerConvergesClean(t *testing.T) {
	spec := testSpec()
	none := FaultSpec{Model: FaultNone}
	cells := []Cell{
		{Solver: SolverCG, Precond: PrecondNone, Problem: ProblemPoisson},
		{Solver: SolverPCG, Precond: PrecondChebyshev, Problem: ProblemAniso},
		{Solver: SolverPipelinedPCG, Precond: PrecondJacobi, Problem: ProblemHeat},
		{Solver: SolverGMRES, Precond: PrecondBJILU, Problem: ProblemConvDiff},
		{Solver: SolverFGMRES, Precond: PrecondChebyshev, Problem: ProblemPoisson},
		{Solver: SolverFTGMRES, Precond: PrecondBJILU, Problem: ProblemConvDiff},
	}
	for i, cell := range cells {
		cell.Index = i
		cell.Ranks = 2
		cell.Fault = none
		if ok, why := Compatible(cell.Solver, cell.Precond, cell.Problem, cell.Fault); !ok {
			t.Fatalf("test cell %s invalid: %s", cell.Key(), why)
		}
		rec := ExecuteRun(&spec, cell, 0, nil)
		if rec.Err != "" {
			t.Fatalf("%s: %s", cell.Key(), rec.Err)
		}
		if !rec.Converged {
			t.Errorf("%s: did not converge (relres %g after %d iters)", cell.Key(), rec.Relres, rec.Iters)
		}
		if rec.VTime <= 0 {
			t.Errorf("%s: no virtual time recorded", cell.Key())
		}
	}
}

// TestFTGMRESSurvivesBitflips is the paper's core claim at campaign
// granularity: FT-GMRES converges with its whole inner phase corrupted.
func TestFTGMRESSurvivesBitflips(t *testing.T) {
	spec := testSpec()
	cell := Cell{
		Solver: SolverFTGMRES, Precond: PrecondBJILU, Problem: ProblemConvDiff,
		Ranks: 2, Fault: FaultSpec{Model: FaultBitflip, Rate: 1e-3},
	}
	rec := ExecuteRun(&spec, cell, 0, nil)
	if rec.Err != "" {
		t.Fatal(rec.Err)
	}
	if !rec.Converged {
		t.Errorf("ftgmres under bitflips did not converge: relres %g", rec.Relres)
	}
}

// TestFaultyPrecondModel exercises the faulty-precond wiring on a
// plain (non-FT) solver: the run must execute to a verdict — converged
// or not is the campaign's measurement, not a harness failure.
func TestFaultyPrecondModel(t *testing.T) {
	spec := testSpec()
	cell := Cell{
		Solver: SolverFGMRES, Precond: PrecondBJILU, Problem: ProblemConvDiff,
		Ranks: 2, Fault: FaultSpec{Model: FaultFaultyPrecond, Rate: 1e-3},
	}
	rec := ExecuteRun(&spec, cell, 0, nil)
	if rec.Err != "" {
		t.Fatal(rec.Err)
	}
}

// TestFTGMRESFaultModelsAreDistinct pins the injection-point split:
// bitflip corrupts the inner operator, faulty-precond only the inner
// preconditioner. At a rate high enough to matter, two runs at the
// SAME cell index and replicate (hence identical derived seeds) must
// produce different solve trajectories — if they ever coincide, one
// model has collapsed into the other.
func TestFTGMRESFaultModelsAreDistinct(t *testing.T) {
	spec := testSpec()
	base := Cell{Solver: SolverFTGMRES, Precond: PrecondBJILU, Problem: ProblemConvDiff, Ranks: 2}
	bitflip, faultyPrec := base, base
	bitflip.Fault = FaultSpec{Model: FaultBitflip, Rate: 5e-3}
	faultyPrec.Fault = FaultSpec{Model: FaultFaultyPrecond, Rate: 5e-3}
	a := ExecuteRun(&spec, bitflip, 0, nil)
	b := ExecuteRun(&spec, faultyPrec, 0, nil)
	if a.Err != "" || b.Err != "" {
		t.Fatalf("errs: %q / %q", a.Err, b.Err)
	}
	if !a.Converged || !b.Converged {
		t.Errorf("ftgmres should absorb both fault models: bitflip conv=%v faulty-precond conv=%v", a.Converged, b.Converged)
	}
	if a.Iters == b.Iters && a.VTime == b.VTime && a.Discards == b.Discards {
		t.Error("bitflip and faulty-precond produced identical trajectories — the models are wired to the same injection point")
	}
}

// TestRankKillRestartsDeterministically drives the MTBF low enough
// that kills are near-certain, and checks the global-restart
// accounting is (a) exercised and (b) bitwise reproducible.
func TestRankKillRestartsDeterministically(t *testing.T) {
	spec := testSpec()
	spec.MaxRestarts = 8
	cell := Cell{
		Solver: SolverGMRES, Precond: PrecondNone, Problem: ProblemPoisson,
		Ranks: 2, Fault: FaultSpec{Model: FaultRankKill, MTBF: 15},
	}
	first := ExecuteRun(&spec, cell, 0, nil)
	if first.Err != "" {
		t.Fatal(first.Err)
	}
	if first.Restarts == 0 {
		t.Error("MTBF 15 produced no restarts — kill wiring inert")
	}
	for trial := 0; trial < 3; trial++ {
		again := ExecuteRun(&spec, cell, 0, nil)
		if again != first {
			t.Fatalf("rank-kill run not reproducible:\n  %+v\n  %+v", first, again)
		}
	}
	// A different replicate draws a different failure history.
	other := ExecuteRun(&spec, cell, 1, nil)
	if other.Seed == first.Seed {
		t.Error("replicates share a seed")
	}
}

// TestFTGMRESRankKillCountsInnerApplies: the MTBF countdown must tick
// on the inner solve's operator applications too — they are where
// ftgmres does nearly all its work. With an MTBF far below the inner
// budget per outer step, kills are near-certain; a run with no
// restarts would mean only the (rare) outer applies were counted and
// the campaign would report ftgmres as spuriously immune to rank
// kills.
func TestFTGMRESRankKillCountsInnerApplies(t *testing.T) {
	spec := testSpec()
	spec.MaxRestarts = 8
	cell := Cell{
		Solver: SolverFTGMRES, Precond: PrecondNone, Problem: ProblemPoisson,
		Ranks: 2, Fault: FaultSpec{Model: FaultRankKill, MTBF: 5},
	}
	restarts := 0
	for rep := 0; rep < 3; rep++ {
		rec := ExecuteRun(&spec, cell, rep, nil)
		if rec.Err != "" {
			t.Fatal(rec.Err)
		}
		restarts += rec.Restarts
	}
	if restarts == 0 {
		t.Error("MTBF 5 never killed an ftgmres run — inner applies are not ticking the kill schedule")
	}
}

// TestExecuteRunRecordsConfigErrors: a broken cell yields a Record
// with Err set, never a panic or an aborted campaign.
func TestExecuteRunRecordsConfigErrors(t *testing.T) {
	spec := testSpec()
	cell := Cell{Solver: SolverPCG, Precond: PrecondNone, Problem: "nonsense", Ranks: 2, Fault: FaultSpec{Model: FaultNone}}
	rec := ExecuteRun(&spec, cell, 0, nil)
	if rec.Err == "" {
		t.Error("unknown problem did not record an error")
	}
}

// quickRun executes one run of the quick grid under the given campaign
// seed, named by its run key, failing the test if it does not return
// within a minute.
func quickRun(t *testing.T, seed uint64, runKey string) Record {
	t.Helper()
	spec := QuickSpec()
	spec.Seed = seed
	for _, cell := range spec.Cells() {
		for rep := 0; rep < spec.Replicates; rep++ {
			if cell.RunKey(rep) != runKey {
				continue
			}
			done := make(chan Record, 1)
			go func() { done <- ExecuteRun(&spec, cell, rep, nil) }()
			select {
			case rec := <-done:
				return rec
			case <-time.After(time.Minute):
				t.Fatalf("%s (seed %d) did not return", runKey, seed)
			}
		}
	}
	t.Fatalf("no run %s in the quick grid", runKey)
	return Record{}
}

// TestFGMRESNonFiniteIterateTerminates: a bit flip that makes the
// FGMRES iterate non-finite used to send the solver into an endless
// restart loop that never advanced its iteration count. The run must
// now end unconverged with the -1 residual sentinel.
func TestFGMRESNonFiniteIterateTerminates(t *testing.T) {
	rec := quickRun(t, 104, "fgmres/none/aniso/p4/bitflip@0.001/r2")
	if rec.Err != "" || rec.Converged || rec.Relres != -1 {
		t.Fatalf("want an unconverged run with relres -1, got %+v", rec)
	}
}

// TestFGMRESNoFalseConvergence: a breakdown at FGMRES's very first
// Arnoldi step used to report convergence with zero iterations and a
// zero residual — a silent wrong answer.
func TestFGMRESNoFalseConvergence(t *testing.T) {
	rec := quickRun(t, 100, "fgmres/none/poisson/p4/bitflip@0.001/r2")
	if rec.Err != "" || (rec.Converged && (rec.Iters == 0 || rec.Relres > QuickSpec().Tol)) {
		t.Fatalf("false convergence: %+v", rec)
	}
}

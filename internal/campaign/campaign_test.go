package campaign

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	good := QuickSpec()
	if err := good.Validate(); err != nil {
		t.Fatalf("QuickSpec invalid: %v", err)
	}
	if err := FullSpec().Validate(); err != nil {
		t.Fatalf("FullSpec invalid: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"no name", func(s *Spec) { s.Name = "" }, "name"},
		{"empty axis", func(s *Spec) { s.Solvers = nil }, "empty axis"},
		{"bad solver", func(s *Spec) { s.Solvers = []string{"sor"} }, "unknown solver"},
		{"bad precond", func(s *Spec) { s.Preconds = []string{"amg"} }, "unknown precond"},
		{"bad problem", func(s *Spec) { s.Problems = []string{"stokes"} }, "unknown problem"},
		{"bad fault", func(s *Spec) { s.Faults = []FaultSpec{{Model: "meteor"}} }, "unknown fault"},
		{"bitflip no rate", func(s *Spec) { s.Faults = []FaultSpec{{Model: FaultBitflip}} }, "rate"},
		{"rankkill no mtbf", func(s *Spec) { s.Faults = []FaultSpec{{Model: FaultRankKill}} }, "MTBF"},
		{"too many ranks", func(s *Spec) { s.Ranks = []int{1 << 20} }, "rank count"},
		{"no replicates", func(s *Spec) { s.Replicates = 0 }, "replicates"},
		{"tiny grid", func(s *Spec) { s.Grid = 2 }, "grid"},
		{"duplicate solver", func(s *Spec) { s.Solvers = append(s.Solvers, s.Solvers[0]) }, "duplicate solver axis value"},
		{"duplicate ranks", func(s *Spec) { s.Ranks = []int{2, 4, 2} }, `duplicate rank axis value "2"`},
		{"aliased faults", func(s *Spec) {
			s.Faults = []FaultSpec{{Model: FaultBitflip, Rate: 1e-3}, {Model: FaultBitflip, Rate: 0.001}}
		}, "duplicate fault axis value"},
	}
	for _, tc := range cases {
		s := QuickSpec()
		tc.mut(&s)
		err := s.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error mentioning %q", tc.name, err, tc.want)
		}
	}
}

func TestCellsIndicesAreDense(t *testing.T) {
	cells := QuickSpec().Cells()
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	seen := make(map[string]bool)
	for i, c := range cells {
		if c.Index != i {
			t.Fatalf("cell %d carries index %d", i, c.Index)
		}
		if seen[c.Key()] {
			t.Fatalf("duplicate cell key %s", c.Key())
		}
		seen[c.Key()] = true
		if ok, why := Compatible(c.Solver, c.Precond, c.Problem, c.Fault); !ok {
			t.Errorf("incompatible cell %s survived expansion: %s", c.Key(), why)
		}
	}
}

func TestCompatibilityRules(t *testing.T) {
	none := FaultSpec{Model: FaultNone}
	cases := []struct {
		solver, prec, problem string
		fault                 FaultSpec
		ok                    bool
	}{
		{SolverCG, PrecondNone, ProblemPoisson, none, true},
		{SolverCG, PrecondJacobi, ProblemPoisson, none, false}, // cg takes no precond
		{SolverCG, PrecondNone, ProblemConvDiff, none, false},  // cg needs SPD
		{SolverPCG, PrecondBJILU, ProblemPoisson, none, false}, // ILU not symmetric
		{SolverPCG, PrecondChebyshev, ProblemHeat, none, true},
		{SolverPipelinedPCG, PrecondChebyshev, ProblemPoisson, none, false}, // communicates
		{SolverPipelinedPCG, PrecondJacobi, ProblemAniso, none, true},
		{SolverGMRES, PrecondChebyshev, ProblemConvDiff, none, false}, // no bounds
		{SolverGMRES, PrecondBJILU, ProblemConvDiff, none, true},
		{SolverFGMRES, PrecondChebyshev, ProblemAniso, none, true},
		{SolverFTGMRES, PrecondJacobi, ProblemPoisson, none, false}, // inner stack is none|bj-ilu
		{SolverFTGMRES, PrecondBJILU, ProblemConvDiff, none, true},
		{SolverGMRES, PrecondNone, ProblemPoisson, FaultSpec{Model: FaultFaultyPrecond, Rate: 1e-3}, false},
		{SolverGMRES, PrecondJacobi, ProblemPoisson, FaultSpec{Model: FaultFaultyPrecond, Rate: 1e-3}, true},
	}
	for _, tc := range cases {
		ok, why := Compatible(tc.solver, tc.prec, tc.problem, tc.fault)
		if ok != tc.ok {
			t.Errorf("Compatible(%s, %s, %s, %s) = %v (%s), want %v",
				tc.solver, tc.prec, tc.problem, tc.fault, ok, why, tc.ok)
		}
	}
}

// TestQuickSpecCoverage pins the CI campaign's acceptance floor: at
// least 48 grid cells over ≥3 solvers, ≥3 preconditioners and ≥2
// non-clean fault models.
func TestQuickSpecCoverage(t *testing.T) {
	spec := QuickSpec()
	cov := spec.Coverage()
	if cov.Cells < 48 {
		t.Errorf("quick campaign covers %d cells, want ≥ 48", cov.Cells)
	}
	if cov.Solvers < 3 {
		t.Errorf("quick campaign covers %d solvers, want ≥ 3", cov.Solvers)
	}
	if cov.Preconds < 3 {
		t.Errorf("quick campaign covers %d preconditioners, want ≥ 3", cov.Preconds)
	}
	injecting := map[string]bool{}
	for _, c := range spec.Cells() {
		if c.Fault.Model != FaultNone {
			injecting[c.Fault.Model] = true
		}
	}
	if len(injecting) < 2 {
		t.Errorf("quick campaign covers %d fault models, want ≥ 2", len(injecting))
	}
}

func TestRunSeedIndependence(t *testing.T) {
	// Pinned: the derivation is a public contract — changing it makes
	// every recorded campaign irreproducible.
	if got := RunSeed(7, 0, 0); got != RunSeed(7, 0, 0) {
		t.Fatalf("RunSeed not deterministic: %d", got)
	}
	seen := make(map[uint64]string)
	for cell := 0; cell < 200; cell++ {
		for rep := 0; rep < 10; rep++ {
			s := RunSeed(7, cell, rep)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between (%d,%d) and %s", cell, rep, prev)
			}
			seen[s] = Cell{Index: cell}.RunKey(rep)
		}
	}
	if RunSeed(7, 1, 0) == RunSeed(8, 1, 0) {
		t.Error("campaign seed does not perturb run seeds")
	}
	if attemptSeed(1, 0) == attemptSeed(1, 1) {
		t.Error("attempt seeds collide across restarts")
	}
	if bootstrapSeed(7, 3) == RunSeed(7, 3, 0) {
		t.Error("bootstrap stream collides with a run stream")
	}
}

func TestParseShard(t *testing.T) {
	k, n, err := ParseShard("1/4")
	if err != nil || k != 1 || n != 4 {
		t.Fatalf("ParseShard(1/4) = %d, %d, %v", k, n, err)
	}
	if k, n, err := ParseShard(""); err != nil || k != 0 || n != 1 {
		t.Fatalf("ParseShard empty = %d, %d, %v", k, n, err)
	}
	for _, bad := range []string{"x", "1", "2/2", "-1/2", "1/0", "a/b", "0/2x", "0x/2", "1/2/3"} {
		if _, _, err := ParseShard(bad); err == nil {
			t.Errorf("ParseShard(%q) accepted", bad)
		}
	}
}

// FuzzSpec: decoding any JSON into a Spec, validating it and expanding
// its grid never panics, and a valid spec's cells carry dense indices
// and distinct keys (colliding run keys could never aggregate).
func FuzzSpec(f *testing.F) {
	for _, s := range []Spec{QuickSpec(), FullSpec(), testSpec()} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"name":"d","solvers":["cg"],"preconds":["none"],"problems":["poisson"],"ranks":[2,2],"faults":[{"model":"none"}],"replicates":1,"grid":4,"tol":1e-6,"max_iter":1}`))
	f.Add([]byte(`{"name":"n","noises":[{},{"model":"none"}]}`))
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if json.Unmarshal(data, &s) != nil || s.Validate() != nil {
			return
		}
		// Bound the grid the harness expands, not what it checks:
		// a few hundred bytes of distinct rank counts and faults can
		// multiply to more cells than fit in memory.
		size := len(s.Solvers) * len(s.Preconds) * len(s.Problems) * len(s.Ranks) * len(s.Faults) * max(1, len(s.Noises))
		if size > 1<<16 {
			return
		}
		seen := make(map[string]bool)
		for i, c := range s.Cells() {
			if c.Index != i {
				t.Fatalf("cell %d carries index %d", i, c.Index)
			}
			if seen[c.Key()] {
				t.Fatalf("duplicate cell key %s", c.Key())
			}
			seen[c.Key()] = true
		}
	})
}

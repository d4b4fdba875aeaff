package main

import (
	"fmt"

	"repro/internal/campaign"
)

// quickSpec is the built-in quick grid under another campaign seed.
func quickSpec(seed uint64) campaign.Spec {
	s := campaign.QuickSpec()
	s.Seed = seed
	return s
}

// servedSpec is the served-g48 request set: every fault- and noise-free
// cell that campaign.Compatible admits over six solvers, four
// preconditioners, three problems and ranks 1 (the single-process
// baseline) to 8, on a 48² grid at tol 1e-6. Each replicate is one more
// round of distinct requests, so the service's journal never answers a
// measured request from an earlier one.
func servedSpec(seed uint64, reps int) campaign.Spec {
	return campaign.Spec{
		Name: "served-g48",
		Seed: seed,
		Solvers: []string{campaign.SolverCG, campaign.SolverPCG, campaign.SolverPipelinedPCG,
			campaign.SolverGMRES, campaign.SolverFGMRES, campaign.SolverFTGMRES},
		Preconds:   []string{campaign.PrecondNone, campaign.PrecondJacobi, campaign.PrecondBJILU, campaign.PrecondChebyshev},
		Problems:   []string{campaign.ProblemPoisson, campaign.ProblemAniso, campaign.ProblemConvDiff},
		Ranks:      []int{1, 2, 4, 8},
		Faults:     []campaign.FaultSpec{{Model: campaign.FaultNone}},
		Replicates: reps,
		Grid:       48,
		Tol:        1e-6,
		MaxIter:    1000,
	}
}

// specFor names the spec a worker executes: the quick grid, or one
// round of the served requests.
func specFor(name string, seed uint64) (campaign.Spec, error) {
	switch name {
	case "quick":
		return quickSpec(seed), nil
	case "served":
		return servedSpec(seed, 1), nil
	}
	return campaign.Spec{}, fmt.Errorf("unknown spec %q", name)
}

// runRef names one (cell, replicate) of a spec.
type runRef struct {
	cell campaign.Cell
	rep  int
}

// specRuns maps every run key of spec to its (cell, replicate).
func specRuns(spec *campaign.Spec) map[string]runRef {
	m := make(map[string]runRef)
	for _, c := range spec.Cells() {
		for r := 0; r < spec.Replicates; r++ {
			m[c.RunKey(r)] = runRef{c, r}
		}
	}
	return m
}

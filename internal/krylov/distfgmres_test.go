package krylov

import (
	"math"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/la"
	"repro/internal/problems"
)

// poisonOp wraps a distributed operator and overwrites the first entry
// of every Apply output that poison selects (1-based apply count) with
// NaN — a deterministic stand-in for a bit flip into the exponent.
type poisonOp struct {
	dist.Operator
	applies int
	poison  func(apply int) bool
}

// Apply implements dist.Operator.
func (o *poisonOp) Apply(x, y []float64) error {
	if err := o.Operator.Apply(x, y); err != nil {
		return err
	}
	o.applies++
	if o.poison(o.applies) {
		y[0] = math.NaN()
	}
	return nil
}

// solveFGMRESPoisoned runs DistFGMRES on 4 ranks over a 2D Poisson
// problem whose operator is poisoned per poison, and returns rank 0's
// stats with the true relative residual of the returned iterate. It
// fails the test if the solve does not return within a minute.
func solveFGMRESPoisoned(t *testing.T, poison func(apply int) bool) (Stats, float64) {
	t.Helper()
	a := problems.Poisson2D(12, 12)
	b, _ := problems.ManufacturedRHS(a)
	const tol = 1e-8
	var st Stats
	var relres float64
	done := make(chan error, 1)
	go func() {
		done <- comm.Run(distConfig(4), func(c *comm.Comm) error {
			clean := dist.NewCSR(c, a)
			op := &poisonOp{Operator: clean, poison: poison}
			x, s, err := DistFGMRES(c, op, nil, clean.Scatter(b), nil, DistGMRESOptions{Restart: 10, Tol: tol, MaxIter: 300})
			if err != nil {
				return err
			}
			full, err := clean.Gather(x)
			if err != nil {
				return err
			}
			if c.Rank() == 0 {
				r := a.MatVec(full, nil)
				for i := range r {
					r[i] = b[i] - r[i]
				}
				st, relres = s, la.Nrm2(r)/la.Nrm2(b)
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Minute):
		t.Fatal("DistFGMRES did not return: livelocked on a non-finite iterate")
	}
	return st, relres
}

// TestDistFGMRESStepZeroBreakdownIsNotConvergence: a breakdown at the
// first Arnoldi step of the first restart must not leave the initial
// zero residual to pass the convergence check. The solve restarts from
// the unchanged iterate and converges for real.
func TestDistFGMRESStepZeroBreakdownIsNotConvergence(t *testing.T) {
	// Apply 1 is the initial residual, apply 2 the first Arnoldi step.
	st, relres := solveFGMRESPoisoned(t, func(n int) bool { return n == 2 })
	if !st.Converged || st.Iterations == 0 {
		t.Fatalf("want a real convergence after the restart, got %+v", st)
	}
	if relres > 1e-6 {
		t.Fatalf("reported converged with true relative residual %g", relres)
	}
}

// TestDistFGMRESNonFiniteIterateEnds: once the restart residual is
// non-finite no restart can recover, so the solve must end unconverged
// with a NaN residual instead of restarting forever without advancing
// its iteration count.
func TestDistFGMRESNonFiniteIterateEnds(t *testing.T) {
	// Apply 3 breaks the first cycle down at its second step (finite
	// restart norm: a plain restart); from apply 4 on every residual of
	// the unchanged iterate is NaN.
	st, _ := solveFGMRESPoisoned(t, func(n int) bool { return n >= 3 })
	if st.Converged || !math.IsNaN(st.FinalResidual) {
		t.Fatalf("want unconverged with NaN residual, got %+v", st)
	}
}

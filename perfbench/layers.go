package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/comm"
	"repro/internal/dist"
	"repro/internal/fault"
	"repro/internal/krylov"
	"repro/internal/machine"
	"repro/internal/precond"
	"repro/internal/srp"
)

// The layer driver composes one fault-free run from the layers'
// public constructors — comm.Run, dist.NewCSR, a preconditioner and
// its Setup, a krylov (or srp, for FT-GMRES) solver — with timers
// around dist.Operator.Apply and krylov.DistPreconditioner.ApplyInto.
// It must reproduce the record campaign's runner produced for the same
// run; a mismatch means this composition drifted from the runner and
// fails the traced pass.

// layerTimes accumulates wall time per layer over ranks and runs.
type layerTimes struct {
	runs         int
	iters        int
	assembleNs   int64
	assembles    int
	applyNs      int64
	nnzApplied   int64
	precSetupNs  int64
	precSetups   int
	precApplyNs  int64
	solveNs      int64 // summed over ranks
	rank0SolveNs int64
}

func (t *layerTimes) add(o layerTimes) {
	t.runs += o.runs
	t.iters += o.iters
	t.assembleNs += o.assembleNs
	t.assembles += o.assembles
	t.applyNs += o.applyNs
	t.nnzApplied += o.nnzApplied
	t.precSetupNs += o.precSetupNs
	t.precSetups += o.precSetups
	t.precApplyNs += o.precApplyNs
	t.solveNs += o.solveNs
	t.rank0SolveNs += o.rank0SolveNs
}

// metrics turns the totals into the dist, precond and krylov metrics.
func (t *layerTimes) metrics(into map[string]float64) {
	into["dist.assemble_ms_per_op"] = ratio(float64(t.assembleNs)/1e6, float64(t.assembles))
	into["dist.apply_frac"] = ratio(float64(t.applyNs), float64(t.solveNs))
	into["dist.apply_ns_per_nnz"] = ratio(float64(t.applyNs), float64(t.nnzApplied))
	into["precond.setup_ms_per_op"] = ratio(float64(t.precSetupNs)/1e6, float64(t.precSetups))
	into["precond.apply_frac"] = ratio(float64(t.precApplyNs), float64(t.solveNs))
	into["krylov.self_frac"] = ratio(float64(t.solveNs-t.applyNs-t.precApplyNs), float64(t.solveNs))
	into["krylov.iters_per_op"] = ratio(float64(t.iters), float64(t.runs))
	into["krylov.us_per_iter"] = ratio(float64(t.rank0SolveNs)/1e3, float64(t.iters))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// rankTimes is one rank's share of a run's timings; each rank writes
// only its own slot and the driver reads them after comm.Run returns.
type rankTimes struct {
	assembleNs, applyNs, nnzApplied, precSetupNs, precApplyNs, solveNs int64
	assembles, precSetups                                              int
}

// timedOp times Apply and counts the local nonzeros it multiplies.
type timedOp struct {
	inner dist.Operator
	nnz   int64
	rt    *rankTimes
}

func (o *timedOp) Apply(x, y []float64) error {
	t := time.Now()
	err := o.inner.Apply(x, y)
	o.rt.applyNs += time.Since(t).Nanoseconds()
	o.rt.nnzApplied += o.nnz
	return err
}
func (o *timedOp) LocalLen() int    { return o.inner.LocalLen() }
func (o *timedOp) GlobalLen() int   { return o.inner.GlobalLen() }
func (o *timedOp) NormInf() float64 { return o.inner.NormInf() }

// timedPrec times ApplyInto.
type timedPrec struct {
	inner krylov.DistPreconditioner
	rt    *rankTimes
}

func (p *timedPrec) ApplyInto(r, z []float64) error {
	t := time.Now()
	err := p.inner.ApplyInto(r, z)
	p.rt.precApplyNs += time.Since(t).Nanoseconds()
	return err
}

// assemble builds this rank's slab of a and wraps it in a timer.
func assemble(c *comm.Comm, p campaign.Problem, rt *rankTimes) (*dist.CSR, *timedOp) {
	t := time.Now()
	csr := dist.NewCSR(c, p.A)
	rt.assembleNs += time.Since(t).Nanoseconds()
	rt.assembles++
	lo := csr.Lo()
	nnz := int64(p.A.RowPtr[lo+csr.LocalLen()] - p.A.RowPtr[lo])
	return csr, &timedOp{inner: csr, nnz: nnz, rt: rt}
}

// setupPrec constructs and sets up the named preconditioner, timing
// Setup. Chebyshev applies the untimed operator, so its inner SpMVs
// count as preconditioner time.
func setupPrec(c *comm.Comm, name string, p campaign.Problem, trusted *dist.CSR, rt *rankTimes) (precond.Preconditioner, error) {
	var m precond.Preconditioner
	switch name {
	case campaign.PrecondJacobi:
		m = precond.NewJacobi(c, p.A)
	case campaign.PrecondBJILU:
		m = precond.NewBlockJacobiILU(c, p.A)
	case campaign.PrecondChebyshev:
		m = precond.NewChebyshev(c, trusted, p.LMin, p.LMax, 6)
	default:
		return nil, fmt.Errorf("layer driver: unknown preconditioner %q", name)
	}
	t := time.Now()
	err := m.Setup()
	rt.precSetupNs += time.Since(t).Nanoseconds()
	rt.precSetups++
	return m, err
}

// ftgmresInnerIters mirrors the campaign runner's fixed inner budget.
const ftgmresInnerIters = 10

// solveRank is the SPMD body of one driven run.
func solveRank(c *comm.Comm, spec *campaign.Spec, cell campaign.Cell, p campaign.Problem, seed uint64, rt *rankTimes) (krylov.Stats, error) {
	trusted, op := assemble(c, p, rt)
	b := trusted.Scatter(p.RHS)
	var m krylov.DistPreconditioner
	if cell.Solver != campaign.SolverFTGMRES && cell.Precond != campaign.PrecondNone {
		pc, err := setupPrec(c, cell.Precond, p, trusted, rt)
		if err != nil {
			return krylov.Stats{}, err
		}
		m = &timedPrec{inner: pc, rt: rt}
	}
	tol, maxIter := spec.Tol, spec.MaxIter
	t := time.Now()
	defer func() { rt.solveNs += time.Since(t).Nanoseconds() }()
	var st krylov.Stats
	var err error
	switch cell.Solver {
	case campaign.SolverCG:
		_, st, err = krylov.DistCG(c, op, b, nil, krylov.DistOptions{Tol: tol, MaxIter: maxIter})
	case campaign.SolverPCG:
		_, st, err = krylov.DistPCG(c, op, m, b, nil, krylov.DistOptions{Tol: tol, MaxIter: maxIter})
	case campaign.SolverPipelinedPCG:
		_, st, err = krylov.DistPipelinedPCG(c, op, m, b, nil, krylov.DistOptions{Tol: tol, MaxIter: maxIter})
	case campaign.SolverGMRES:
		_, st, err = krylov.DistGMRES(c, op, b, nil, krylov.DistGMRESOptions{Restart: 30, Tol: tol, MaxIter: maxIter, Precon: m})
	case campaign.SolverFGMRES:
		_, st, err = krylov.DistFGMRES(c, op, m, b, nil, krylov.DistGMRESOptions{Restart: 30, Tol: tol, MaxIter: maxIter})
	case campaign.SolverFTGMRES:
		// The runner's fault-free FT-GMRES stack: a second assembly for
		// the inner operator and rate-0 injectors at both injection
		// points, so the inner phase runs through the same wrappers.
		_, inner := assemble(c, p, rt)
		faulty := &srp.FaultyDistOp{Inner: inner, Injector: fault.NewVectorInjector(seed + uint64(c.Rank())).WithRate(0)}
		var innerM krylov.DistPreconditioner
		if cell.Precond == campaign.PrecondBJILU {
			bj, serr := setupPrec(c, campaign.PrecondBJILU, p, trusted, rt)
			if serr != nil {
				return krylov.Stats{}, serr
			}
			innerM = &timedPrec{inner: &precond.Faulty{Inner: bj, Injector: fault.NewVectorInjector(seed + 1<<16 + uint64(c.Rank())).WithRate(0)}, rt: rt}
		}
		maxOuter := max(maxIter/ftgmresInnerIters, 10)
		t = time.Now() // the inner stack's set-up is not solve time
		var res srp.DistFTGMRESResult
		res, err = srp.DistFTGMRESPreconditioned(c, op, faulty, innerM, b, srp.Options{
			InnerIters: ftgmresInnerIters, Tol: tol, MaxOuter: maxOuter, OuterRestart: 30,
		})
		st = res.Stats
	default:
		err = fmt.Errorf("layer driver: unknown solver %q", cell.Solver)
	}
	return st, err
}

// driveRun executes one fault-free run through the layer driver and
// checks it against the record the workload produced for it.
func driveRun(spec *campaign.Spec, cell campaign.Cell, rep int, want campaign.Record) (layerTimes, error) {
	var lt layerTimes
	p, err := campaign.BuildProblem(cell.Problem, spec.Grid)
	if err != nil {
		return lt, err
	}
	var noise machine.Noise = machine.NoNoise{}
	if cell.Noise.Enabled() {
		noise = machine.UniformJitter{Frac: cell.Noise.Frac}
	}
	seed := campaign.RunSeed(spec.Seed, cell.Index, rep)
	rts := make([]rankTimes, cell.Ranks)
	var st krylov.Stats
	err = comm.Run(comm.Config{Ranks: cell.Ranks, Cost: machine.DefaultCostModel(), Noise: noise, Seed: seed}, func(c *comm.Comm) error {
		s, err := solveRank(c, spec, cell, p, seed, &rts[c.Rank()])
		if c.Rank() == 0 {
			st = s
		}
		return err
	})
	if err != nil {
		return lt, fmt.Errorf("layer driver %s: %w", cell.RunKey(rep), err)
	}
	relres := st.FinalResidual
	if math.IsNaN(relres) || math.IsInf(relres, 0) {
		relres = -1
	}
	if st.Iterations != want.Iters || st.Converged != want.Converged || relres != want.Relres {
		return lt, fmt.Errorf("layer driver %s: iters %d converged %t relres %g, workload recorded iters %d converged %t relres %g",
			cell.RunKey(rep), st.Iterations, st.Converged, relres, want.Iters, want.Converged, want.Relres)
	}
	lt.runs, lt.iters = 1, st.Iterations
	for i, rt := range rts {
		lt.assembleNs += rt.assembleNs
		lt.assembles += rt.assembles
		lt.applyNs += rt.applyNs
		lt.nnzApplied += rt.nnzApplied
		lt.precSetupNs += rt.precSetupNs
		lt.precSetups += rt.precSetups
		lt.precApplyNs += rt.precApplyNs
		lt.solveNs += rt.solveNs
		if i == 0 {
			lt.rank0SolveNs = rt.solveNs
		}
	}
	return lt, nil
}

// driveLayers runs every fault-free record through the layer driver on
// b.workers goroutines and returns the summed timings.
func (b *bench) driveLayers(ctx context.Context, spec *campaign.Spec, recs []campaign.Record) (layerTimes, error) {
	refs := specRuns(spec)
	var todo []campaign.Record
	for _, rec := range recs {
		if rec.Fault == campaign.FaultNone && rec.Err == "" {
			todo = append(todo, rec)
		}
	}
	if len(todo) == 0 {
		return layerTimes{}, fmt.Errorf("layer driver: no fault-free run to drive")
	}
	var (
		mu       sync.Mutex
		total    layerTimes
		firstErr error
	)
	b.forEach(ctx, len(todo), func(i int) {
		ref := refs[todo[i].Key]
		lt, err := driveRun(spec, ref.cell, ref.rep, todo[i])
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		total.add(lt)
	})
	if firstErr == nil {
		firstErr = ctx.Err()
	}
	return total, firstErr
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/traceq"
)

// The traced pass (-trace 1) gives the per-layer metrics. It times the
// benchmark's own calls into each layer's public functions over one
// pass of the workload's runs: the worker's campaign.ExecuteRunEnv and
// BuildProblem calls and per-run comm ledgers; aggregation; tracing and
// traceq; serving the fault-free runs through solverd; and the layer
// driver (comm, dist, precond, krylov) on the fault-free runs, which
// must reproduce the workload's records.

// campaignLayer fills the campaign, problems and comm metrics from an
// instrumented pass.
func campaignLayer(p *specPass, values map[string]float64) {
	var exec []float64
	var build, restarts float64
	var ledgers int
	var coll, sends, flops, vsec float64
	for _, r := range p.runs {
		exec = append(exec, float64(r.execNs)/1e6)
		build += float64(r.buildNs) / 1e6
		restarts += float64(r.restarts)
		if r.ledger {
			ledgers++
			coll += r.collectives
			sends += r.sends
			flops += r.flops
			vsec += r.vsec
		}
	}
	n := float64(len(p.runs))
	values["campaign.run_p50_ms"] = median(exec)
	values["campaign.run_p90_ms"], _ = percentile(exec, 0.90) // a pass has ≥ 160 runs
	values["problems.build_ms_per_op"] = ratio(build, n)
	values["campaign.restarts_per_op"] = ratio(restarts, n)
	l := float64(ledgers)
	values["comm.collectives_per_op"] = ratio(coll, l)
	values["comm.msgs_per_op"] = ratio(sends, l)
	values["comm.flops_per_op"] = ratio(flops, l)
	values["comm.vsec_per_op"] = ratio(vsec, l)
}

// runtimeLayer fills the runtime metrics from the process(es) that
// executed ops operations.
func runtimeLayer(d runtimeDelta, ops int, values map[string]float64) {
	values["runtime.gc_cpu_frac"] = ratio(d.GCCPU, d.TotalCPU)
	values["runtime.idle_cpu_frac"] = ratio(d.IdleCPU, d.TotalCPU)
	values["runtime.alloc_kb_per_op"] = ratio(d.AllocBytes/1024, float64(ops))
	values["runtime.sched_latency_p99_us"] = d.SchedP99 * 1e6
}

// obsLayer fills the obs and traceq metrics from a trace directory.
func (b *bench) obsLayer(dir string, values map[string]float64) error {
	files, err := filepath.Glob(filepath.Join(dir, "*.trace.jsonl"))
	if err != nil {
		return err
	}
	var size, events int
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		size += len(data)
		events += bytes.Count(data, []byte("\n")) - 1 // less the header line
	}
	t := time.Now()
	a, err := traceq.LoadDir(dir)
	if err != nil {
		return err
	}
	load := time.Since(t)
	t = time.Now()
	traceq.BuildReport(a)
	report := time.Since(t)
	n := float64(len(files))
	values["obs.trace_bytes_per_run"] = ratio(float64(size), n)
	values["obs.trace_events_per_run"] = ratio(float64(events), n)
	values["traceq.load_s"] = load.Seconds()
	values["traceq.report_s"] = report.Seconds()
	values["traceq.mb_per_s"] = float64(size) / (1 << 20) / load.Seconds()
	return nil
}

// traceRuns executes the sampled fault-free runs of recs in this
// process with all-rank tracing and writes their traces into dir.
func (b *bench) traceRuns(ctx context.Context, spec *campaign.Spec, recs []campaign.Record, sample string, dir string) error {
	k, n, err := campaign.ParseTraceSample(sample)
	if err != nil {
		return err
	}
	refs := specRuns(spec)
	var picked []runRef
	for _, r := range recs {
		if r.Fault == campaign.FaultNone && campaign.TraceSampled(spec.Seed, r.Key, k, n) {
			picked = append(picked, refs[r.Key])
		}
	}
	if len(picked) == 0 {
		return fmt.Errorf("trace sample %s of %s picked no fault-free run", sample, spec.Name)
	}
	errs := make([]error, len(picked))
	b.forEach(ctx, len(picked), func(i int) {
		ref := picked[i]
		env := &campaign.ExecEnv{Tracer: campaign.NewRunTracer(spec, ref.cell, ref.rep), TraceAllRanks: true}
		campaign.ExecuteRunEnv(spec, ref.cell, ref.rep, env)
		_, errs[i] = campaign.WriteRunTrace(dir, env.Tracer, false)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// serviceLayer serves the fault-free runs of recs through a warmed
// in-process solverd with b.workers closed-loop clients, checks every
// served record is byte-identical to the workload's record, and fills
// the service metrics.
func (b *bench) serviceLayer(ctx context.Context, spec *campaign.Spec, recs []campaign.Record, values map[string]float64) error {
	refs := specRuns(spec)
	byKey := make(map[string]campaign.Record)
	var order []runRef
	for _, r := range recs {
		if r.Fault == campaign.FaultNone && r.Err == "" {
			order = append(order, refs[r.Key])
			byKey[r.Key] = r
		}
	}
	s, err := b.warmServer(ctx, b.path("layer-journal"), *spec)
	if err != nil {
		return err
	}
	defer s.stop()
	before, err := s.cl.Stats()
	if err != nil {
		return err
	}
	m0, err := s.scrape()
	if err != nil {
		return err
	}
	ops := b.closedLoop(ctx, s, spec, order, func(int, time.Duration) bool { return true })
	after, err := s.cl.Stats()
	if err != nil {
		return err
	}
	m1, err := s.scrape()
	if err != nil {
		return err
	}
	if len(ops) != len(order) {
		return fmt.Errorf("served %d of %d runs: %w", len(ops), len(order), ctx.Err())
	}
	var latMs float64
	for _, op := range ops {
		if op.err != nil {
			return fmt.Errorf("serving %s: %w", op.ref.cell.RunKey(op.ref.rep), op.err)
		}
		latMs += op.ms
		got, _ := json.Marshal(op.rec) // a Record always marshals
		want, _ := json.Marshal(byKey[op.rec.Key])
		b.check(bytes.Equal(got, want), "served record %s differs from the workload's:\nserved %s\nworkload %s", op.rec.Key, got, want)
	}
	mean := func(name string) float64 {
		return ratio(m1[name+"_sum"]-m0[name+"_sum"], m1[name+"_count"]-m0[name+"_count"]) * 1e3
	}
	n := float64(len(ops))
	values["service.queue_wait_ms"] = mean("repro_run_queue_wait_seconds")
	values["service.execute_ms"] = mean("repro_run_execute_seconds")
	values["service.overhead_ms"] = latMs/n - values["service.queue_wait_ms"] - values["service.execute_ms"]
	hits := after.Cache.SetupHits - before.Cache.SetupHits
	misses := after.Cache.SetupMisses - before.Cache.SetupMisses
	values["service.setup_hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	return nil
}

// layerPass is the traced pass after the workload's runs: it fills
// every per-layer metric from the instrumented pass p, then from
// aggregation, traces (traceDir when the workload traced, else a sample
// of fault-free runs traced here), serving and the layer driver.
func (b *bench) layerPass(ctx context.Context, p *specPass, traceDir, sample string) (*outcome, error) {
	values := map[string]float64{}
	campaignLayer(p, values)
	runtimeLayer(p.rt, len(p.runs), values)
	t := time.Now()
	agg, _, err := aggregate(p)
	if err != nil {
		return nil, err
	}
	values["campaign.aggregate_s"] = time.Since(t).Seconds()
	recs, err := campaign.ReadRecords(p.out)
	if err != nil {
		return nil, err
	}
	if traceDir == "" {
		traceDir = b.path("layer-traces")
		if err := b.traceRuns(ctx, &p.spec, recs, sample, traceDir); err != nil {
			return nil, err
		}
	}
	if err := b.obsLayer(traceDir, values); err != nil {
		return nil, err
	}
	if err := b.serviceLayer(ctx, &p.spec, recs, values); err != nil {
		return nil, err
	}
	lt, err := b.driveLayers(ctx, &p.spec, recs)
	b.check(err == nil, "layer driver: %v", err)
	lt.metrics(values)
	return &outcome{values: values, attempted: agg.Runs, failed: errored(agg)}, nil
}

// quickTracedPass is the traced pass of campaign-quick and
// traced-quick: one instrumented quick-grid pass in worker processes
// (traced on all ranks of a 1/4 sample for traced-quick), then the
// layer pass.
func quickTracedPass(ctx context.Context, b *bench, traced bool) (*outcome, error) {
	o := passOpts{spec: "quick", seed: b.quickSeed(), out: b.path("layer.jsonl"), instrument: true}
	if traced {
		o.traceDir, o.traceSample = b.path("layer-traces"), tracedSample
	}
	p, err := b.runPass(ctx, o)
	if err != nil {
		return nil, err
	}
	return b.layerPass(ctx, p, o.traceDir, tracedSample)
}

// servedTracedPass is served-g48's traced pass: one round of the
// served requests executed directly in a worker process, then the
// layer pass, whose serving step is the workload's own path.
func servedTracedPass(ctx context.Context, b *bench) (*outcome, error) {
	p, err := b.runPass(ctx, passOpts{spec: "served", seed: b.seed, out: b.path("layer.jsonl"), instrument: true})
	if err != nil {
		return nil, err
	}
	return b.layerPass(ctx, p, "", "1/16")
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/traceq"
)

// path names a file in the invocation's scratch directory.
func (b *bench) path(name string) string { return filepath.Join(b.workdir, name) }

// quickSeed is the first campaign seed of an invocation; a workload
// runs consecutive campaign seeds from here.
func (b *bench) quickSeed() uint64 { return b.seed * 1000 }

// tracedSample is traced-quick's deterministic trace sample.
const tracedSample = "1/4"

// aggregate folds a pass's record stream into the campaign aggregate
// and its canonical bytes (what campaign.WriteAggregate writes).
func aggregate(p *specPass) (*campaign.Aggregate, []byte, error) {
	agg, err := campaign.AggregateFiles(p.spec, "perfbench", p.out)
	if err != nil {
		return nil, nil, err
	}
	data, err := json.MarshalIndent(agg, "", "  ")
	return agg, data, err
}

// errored counts the runs of an aggregate that recorded an error,
// unfinished runs included.
func errored(agg *campaign.Aggregate) int {
	n := 0
	for _, c := range agg.Cells {
		n += c.Errors
	}
	return n
}

// execMs lists a pass's per-run wall times in milliseconds.
func execMs(p *specPass) []float64 {
	out := make([]float64, 0, len(p.runs))
	for _, r := range p.runs {
		out = append(out, float64(r.execNs)/1e6)
	}
	return out
}

// campaignQuick is the campaign-quick workload: consecutive seeds of
// the quick grid through campaign.Run, each followed by aggregation.
func campaignQuick(ctx context.Context, b *bench) (*outcome, error) {
	if b.trace {
		return quickTracedPass(ctx, b, false)
	}
	return quickLoop(ctx, b, false)
}

// tracedQuick is the traced-quick workload: quick-grid passes traced on
// every rank of a deterministic sample of runs, each followed by
// traceq.LoadDir and traceq.BuildReport over its trace directory.
func tracedQuick(ctx context.Context, b *bench) (*outcome, error) {
	if b.trace {
		return quickTracedPass(ctx, b, true)
	}
	return quickLoop(ctx, b, true)
}

// quickPassesPerSecond is the rate at which each quick-grid workload
// ran passes when the benchmark was sized, on 2 vCPUs of a shared
// x86-64 host: 47 to 55 untraced and 11 traced passes in 30 s.
var quickPassesPerSecond = map[bool]float64{false: 1.6, true: 0.36}

// quickPasses is the number of measured passes of an invocation: as
// many as fill b.seconds at the sizing rate, and at least three. The
// count is fixed rather than cut by the clock because about one quick
// seed in eight has a livelocked run (see README.md): a window cut by
// time would cover a varying number of seeds, so attempted and failed
// would differ between two invocations of one seed.
func (b *bench) quickPasses(traced bool) int {
	return max(3, int(math.Round(b.seconds*quickPassesPerSecond[traced])))
}

// quickLoop measures a fixed number of quick-grid passes over
// consecutive campaign seeds. The first measured pass repeats the
// unmeasured warm-up pass's seed, and their outputs must match byte
// for byte. Each metric is the median over passes of the pass's
// figure, so a pass that met a burst of machine noise moves it little.
func quickLoop(ctx context.Context, b *bench, traced bool) (*outcome, error) {
	pass := func(seed uint64, name string) (*specPass, string, error) {
		o := passOpts{spec: "quick", seed: seed, out: b.path(name + ".jsonl")}
		if traced {
			o.traceDir, o.traceSample = b.path(name+"-traces"), tracedSample
		}
		p, err := b.runPass(ctx, o)
		return p, o.traceDir, err
	}
	warm, warmDir, err := pass(b.quickSeed(), "warm")
	if err != nil {
		return nil, err
	}
	_, warmAgg, err := aggregate(warm)
	if err != nil {
		return nil, err
	}
	if traced {
		b.checkRenders(warmDir)
	}

	setups := append([]float64(nil), warm.setups...)
	var (
		lat, p50s, p95s, rates, reportRates []float64
		attempted, failed                   int
	)
	for i := range b.quickPasses(traced) {
		t := time.Now()
		p, dir, err := pass(b.quickSeed()+uint64(i), fmt.Sprintf("pass-%d", i))
		if err != nil {
			return nil, err
		}
		tAgg := time.Now()
		agg, aggBytes, err := aggregate(p)
		if err != nil {
			return nil, err
		}
		aggDur := time.Since(tAgg)
		errs := errored(agg)
		rates = append(rates, float64(agg.Runs-errs)/time.Since(t).Seconds())
		if traced {
			t := time.Now()
			a, err := traceq.LoadDir(dir)
			if err != nil {
				return nil, err
			}
			traceq.BuildReport(a)
			reportRates = append(reportRates, float64(len(a.Runs))/time.Since(t).Seconds())
		} else {
			t := time.Now()
			campaign.BuildReport(agg)
			reportRates = append(reportRates, float64(agg.Runs)/(aggDur+time.Since(t)).Seconds())
		}
		if i == 0 {
			b.check(bytes.Equal(aggBytes, warmAgg), "%s: aggregate of seed %d differs between repetitions", b.workload, p.spec.Seed)
			if traced {
				b.checkTraces(warmDir, dir)
			}
		}
		attempted += agg.Runs
		failed += errs
		passLat := execMs(p)
		p95, err := mustPercentile("per-run wall time", passLat, 0.95)
		if err != nil {
			return nil, err
		}
		p50s, p95s = append(p50s, median(passLat)), append(p95s, p95)
		lat = append(lat, passLat...)
		setups = append(setups, p.setups...)
		for _, f := range []string{p.out, dir, warm.out, warmDir} {
			if f != "" {
				if err := os.RemoveAll(f); err != nil {
					return nil, err
				}
			}
		}
	}
	fmt.Printf("%d passes, %d per-run latency samples, %s\n", len(rates), len(lat), p99Line(lat))
	return &outcome{
		values: map[string]float64{
			"runs_per_s":        median(rates),
			"run_p50_ms":        median(p50s),
			"run_p95_ms":        median(p95s),
			"report_runs_per_s": median(reportRates),
			"completed_frac":    completedFrac(attempted, failed),
			"setup_s":           median(setups),
			"peak_rss_mb":       b.peakRSSMB(),
		},
		attempted: attempted,
		failed:    failed,
	}, nil
}

// checkRenders renders one trace directory twice; the bytes must match.
func (b *bench) checkRenders(dir string) {
	var out [2]*traceq.Report
	for i := range out {
		a, err := traceq.LoadDir(dir)
		if err != nil {
			b.check(false, "traceq over %s: %v", dir, err)
			return
		}
		out[i] = traceq.BuildReport(a)
	}
	b.check(bytes.Equal(out[0].Markdown, out[1].Markdown) && bytes.Equal(out[0].CSV, out[1].CSV),
		"two traceq renders of %s differ", dir)
}

// checkTraces compares two trace directories of one seed: the same
// files, byte-identical except rank-kill runs, whose survivor-side
// timings differ in trailing digits by design (see comm.Die).
func (b *bench) checkTraces(dirA, dirB string) {
	names := func(dir string) []string {
		m, err := filepath.Glob(filepath.Join(dir, "*.trace.jsonl"))
		if err != nil {
			b.check(false, "listing %s: %v", dir, err)
		}
		for i := range m {
			m[i] = filepath.Base(m[i])
		}
		return m
	}
	a, bn := names(dirA), names(dirB)
	b.check(strings.Join(a, ",") == strings.Join(bn, ","), "trace files differ between repetitions: %d vs %d files", len(a), len(bn))
	compared := 0
	for _, n := range a {
		if strings.Contains(n, campaign.FaultRankKill) {
			continue
		}
		x, errA := os.ReadFile(filepath.Join(dirA, n))
		y, errB := os.ReadFile(filepath.Join(dirB, n))
		b.check(errA == nil && errB == nil && bytes.Equal(x, y), "trace %s differs between repetitions", n)
		compared++
	}
	b.check(compared > 0, "no trace compared between repetitions")
}

package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// metricDef is one metric the benchmark prints: its name and unit.
// BENCHMARK.json declares the same lists; a self-test keeps them equal.
type metricDef struct{ name, unit string }

// endToEnd are printed with -trace 0, on every workload.
var endToEnd = []metricDef{
	{"runs_per_s", "1/s"},
	{"run_p50_ms", "ms"},
	// p95, not p99: about 1% of quick-grid runs (the slowest bit-flip
	// GMRES runs) take several times longer than the rest, so p99 sits on
	// the edge of that class and jumps between 5 and 11 ms from seed to
	// seed. p99 is printed on an information line instead.
	{"run_p95_ms", "ms"},
	{"report_runs_per_s", "1/s"},
	{"completed_frac", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer are printed with -trace 1, on every workload.
var perLayer = []metricDef{
	{"campaign.run_p50_ms", "ms"},
	{"campaign.run_p90_ms", "ms"},
	{"campaign.aggregate_s", "s"},
	{"campaign.restarts_per_op", "count"},
	{"problems.build_ms_per_op", "ms"},
	{"dist.assemble_ms_per_op", "ms"},
	{"dist.apply_frac", "ratio"},
	{"dist.apply_ns_per_nnz", "ns"},
	{"precond.setup_ms_per_op", "ms"},
	{"precond.apply_frac", "ratio"},
	{"krylov.self_frac", "ratio"},
	{"krylov.iters_per_op", "count"},
	{"krylov.us_per_iter", "us"},
	{"comm.collectives_per_op", "count"},
	{"comm.msgs_per_op", "count"},
	{"comm.flops_per_op", "count"},
	{"comm.vsec_per_op", "s"},
	{"service.queue_wait_ms", "ms"},
	{"service.execute_ms", "ms"},
	{"service.overhead_ms", "ms"},
	{"service.setup_hit_ratio", "ratio"},
	{"obs.trace_bytes_per_run", "bytes"},
	{"obs.trace_events_per_run", "count"},
	{"traceq.load_s", "s"},
	{"traceq.report_s", "s"},
	{"traceq.mb_per_s", "MB/s"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"runtime.alloc_kb_per_op", "KB"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.idle_cpu_frac", "ratio"},
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// finish checks that values holds exactly the metrics of defs, each a
// finite number, and builds the result. A missing or extra metric is a
// benchmark bug, reported as an error rather than printed.
func finish(defs []metricDef, values map[string]float64, attempted, failed int, correct bool) (*result, error) {
	if attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	r := &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite (%v)", d.name, v)
		}
		r.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, %d declared", len(values), len(defs))
	}
	return r, nil
}

// completedFrac is the share of attempted operations that finished
// without error: 1 − failed/attempted, the failed fraction in a form
// that is never 0.
func completedFrac(attempted, failed int) float64 {
	return float64(attempted-failed) / float64(attempted)
}

func (r *result) line() string {
	data, err := json.Marshal(r)
	if err != nil {
		panic(err) // only finite floats, strings and ints reach here
	}
	return string(data)
}

// percentile returns the nearest-rank p-quantile of samples, and false
// when fewer than ten samples lie beyond it: a tail estimated from
// fewer is noise, so it is not reported at all.
func percentile(samples []float64, p float64) (float64, bool) {
	n := len(samples)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < 10 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank-1], true
}

// median is the 0.5 nearest-rank quantile, without the tail rule.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// mustPercentile is percentile for a tail the workload sized its
// sample for; too few samples is reported as an error.
func mustPercentile(what string, samples []float64, p float64) (float64, error) {
	v, ok := percentile(samples, p)
	if !ok {
		return 0, fmt.Errorf("%s: %d samples leave fewer than ten beyond p%g", what, len(samples), p*100)
	}
	return v, nil
}

// p99Line describes the p99 of latency samples in milliseconds, or why
// it is not reported.
func p99Line(ms []float64) string {
	if v, ok := percentile(ms, 0.99); ok {
		return fmt.Sprintf("p99 %.3f ms", v)
	}
	return "too few samples for p99"
}

package main

import (
	"fmt"
	"math"
	"runtime/metrics"
)

// runtimeProbe reads the Go runtime's own counters at construction and
// again on read, so the figures cover exactly the work in between.
type runtimeProbe struct {
	start []metrics.Sample
}

var runtimeNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
	"/sched/latencies:seconds",
}

func sampleRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func newRuntimeProbe() *runtimeProbe { return &runtimeProbe{start: sampleRuntime()} }

// runtimeDelta is what the runtime spent between probe and read.
type runtimeDelta struct {
	GCCPU, IdleCPU, TotalCPU float64 // CPU-seconds, as the runtime estimates them
	AllocBytes               float64
	SchedP99                 float64 // seconds a goroutine waited to run, 99th percentile
}

func (p *runtimeProbe) read() runtimeDelta {
	end := sampleRuntime()
	f := func(i int) float64 { return end[i].Value.Float64() - p.start[i].Value.Float64() }
	d := runtimeDelta{
		GCCPU:      f(0),
		IdleCPU:    f(1),
		TotalCPU:   f(2),
		AllocBytes: float64(end[3].Value.Uint64() - p.start[3].Value.Uint64()),
	}
	a, b := p.start[4].Value.Float64Histogram(), end[4].Value.Float64Histogram()
	counts := make([]uint64, len(b.Counts))
	for i := range counts {
		counts[i] = b.Counts[i] - a.Counts[i]
	}
	d.SchedP99 = histQuantile(counts, b.Buckets, 0.99)
	return d
}

// histQuantile returns the upper edge of the bucket holding quantile q
// of a runtime/metrics histogram (0 when it holds no samples).
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var acc uint64
	for i, c := range counts {
		acc += c
		if acc >= rank {
			hi := buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = buckets[i]
			}
			return hi
		}
	}
	return buckets[len(buckets)-1]
}

func (d runtimeDelta) encode() string {
	return fmt.Sprintf("%g %g %g %g %g", d.GCCPU, d.IdleCPU, d.TotalCPU, d.AllocBytes, d.SchedP99)
}

func decodeRuntime(s string) (runtimeDelta, error) {
	var d runtimeDelta
	_, err := fmt.Sscanf(s, "%g %g %g %g %g", &d.GCCPU, &d.IdleCPU, &d.TotalCPU, &d.AllocBytes, &d.SchedP99)
	return d, err
}

// add accumulates another process's runtime figures (the worker
// processes of one pass), keeping the worst scheduling tail.
func (d *runtimeDelta) add(o runtimeDelta) {
	d.GCCPU += o.GCCPU
	d.IdleCPU += o.IdleCPU
	d.TotalCPU += o.TotalCPU
	d.AllocBytes += o.AllocBytes
	d.SchedP99 = math.Max(d.SchedP99, o.SchedP99)
}

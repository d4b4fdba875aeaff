package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
	"repro/internal/comm"
)

// stuckCPU is the process CPU time a run may see spent, without its
// solver reporting one iteration, before the watchdog declares it
// livelocked. A solver iteration on these grids takes microseconds and
// the longest legitimate gap measured between two iterations of one run
// (set-up, a rank-kill restart, an FT-GMRES outer step) is about 18 ms
// of process CPU, so 150 ms leaves an 8× margin. Counting CPU rather
// than wall time keeps a process that the machine descheduled from
// looking stuck: descheduled, it spends no CPU.
const stuckCPU = 0.15

// stuckWall catches a run blocked without spending CPU (a deadlock):
// no iteration for this long is stuck whatever the CPU did.
const stuckWall = 10 * time.Second

// stalled reports whether a run that made no solver progress while its
// process spent cpu CPU-seconds over wall is stuck.
func stalled(cpu float64, wall time.Duration) bool {
	return cpu >= stuckCPU || wall >= stuckWall
}

// stuckExit is the child's exit code after it reported a stuck run.
const stuckExit = 3

// childOpts is the worker's command line: one campaign spec executed
// through campaign.Run, every run reported on stdout.
type childOpts struct {
	spec        string // "quick" or "served"
	specSeed    uint64
	out         string
	workers     int
	traceDir    string
	traceSample string
	instrument  bool
}

func parseChild(args []string) (childOpts, error) {
	var o childOpts
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.StringVar(&o.spec, "spec", "quick", "campaign spec: quick or served")
	fs.Uint64Var(&o.specSeed, "spec-seed", 0, "campaign seed")
	fs.StringVar(&o.out, "out", "", "JSONL record stream (resumed)")
	fs.IntVar(&o.workers, "workers", 1, "campaign workers")
	fs.StringVar(&o.traceDir, "trace-dir", "", "write all-rank traces of sampled runs here")
	fs.StringVar(&o.traceSample, "trace-sample", "1/1", "k/n trace sample")
	fs.BoolVar(&o.instrument, "instrument", false, "report per-layer timings and counts per run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.out == "" {
		return o, fmt.Errorf("child: -out is required")
	}
	return o, nil
}

// inflight is one executing run as the watchdog sees it.
type inflight struct {
	key    string
	beats  atomic.Int64 // solver iterations reported by rank 0
	seen   int64        // beats at the last watchdog look
	cpuAt  float64      // process CPU seconds when beats last moved
	wallAt time.Time    // when beats last moved
}

// processCPU returns this process's user+system CPU seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// runChild executes one campaign spec through campaign.Run and reports
// every finished run on stdout. Go cannot stop a goroutine, so a run
// that never returns (a solver livelock) is handled by exiting the
// process: the watchdog prints "stuck <key>" and exits with stuckExit,
// and the parent records the run as unfinished and resumes the
// campaign in a fresh process. execute runs one run; the benchmark
// passes campaign.ExecuteRunEnv, its tests a run that never returns.
func runChild(args []string, execute func(*campaign.Spec, campaign.Cell, int, *campaign.ExecEnv) campaign.Record) int {
	o, err := parseChild(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	spec, err := specFor(o.spec, o.specSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}
	sampleK, sampleN, err := campaign.ParseTraceSample(o.traceSample)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 2
	}

	stdout := bufio.NewWriter(os.Stdout)
	var outMu sync.Mutex
	emit := func(format string, args ...any) {
		outMu.Lock()
		fmt.Fprintf(stdout, format+"\n", args...)
		stdout.Flush()
		outMu.Unlock()
	}

	var (
		liveMu sync.Mutex
		live   = map[*inflight]bool{}
	)
	stop := make(chan struct{})
	watchdogDone := make(chan struct{})
	go func() {
		defer close(watchdogDone)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			cpu, now := processCPU(), time.Now()
			liveMu.Lock()
			for f := range live {
				if b := f.beats.Load(); b != f.seen {
					f.seen, f.cpuAt, f.wallAt = b, cpu, now
					continue
				}
				if stalled(cpu-f.cpuAt, now.Sub(f.wallAt)) {
					emit("stuck %s", f.key)
					os.Exit(stuckExit)
				}
			}
			liveMu.Unlock()
		}
	}()

	rt := newRuntimeProbe()
	exec := func(sp *campaign.Spec, cell campaign.Cell, rep int) campaign.Record {
		f := &inflight{key: cell.RunKey(rep), cpuAt: processCPU(), wallAt: time.Now()}
		liveMu.Lock()
		live[f] = true
		liveMu.Unlock()

		env := &campaign.ExecEnv{Progress: func(int, int, float64) { f.beats.Add(1) }}
		if o.traceDir != "" && campaign.TraceSampled(sp.Seed, f.key, sampleK, sampleN) {
			env.Tracer = campaign.NewRunTracer(sp, cell, rep)
			env.TraceAllRanks = true
		}
		var buildNs int64
		var led *comm.Ledger
		if o.instrument {
			env.Problems = func(name string, grid int) (campaign.Problem, error) {
				t := time.Now()
				p, err := campaign.BuildProblem(name, grid)
				buildNs += time.Since(t).Nanoseconds()
				return p, err
			}
			if cell.Fault.Model == campaign.FaultNone {
				led = &comm.Ledger{}
				env.Ledger = led
			}
		}
		start := time.Now()
		rec := execute(sp, cell, rep, env)
		execNs := time.Since(start).Nanoseconds()
		liveMu.Lock()
		delete(live, f)
		liveMu.Unlock()
		if _, err := campaign.WriteRunTrace(o.traceDir, env.Tracer, false); err != nil && rec.Err == "" {
			rec.Err = "perfbench: writing trace: " + err.Error()
		}

		if o.instrument {
			var s comm.LedgerSnapshot
			if led != nil {
				s = led.Snapshot()
			}
			emit("done %s %d %d %d %t %d %d %g %g", f.key, execNs, buildNs, rec.Restarts,
				led != nil, s.Stats.Collective, s.Stats.Sends, s.Stats.Flops, s.RankSeconds)
		} else {
			emit("done %s %d", f.key, execNs)
		}
		return rec
	}

	emit("ready")
	_, err = campaign.Run(campaign.Options{Spec: spec, Workers: o.workers, Out: o.out, Resume: true, Exec: exec})
	close(stop)
	<-watchdogDone
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	if o.instrument {
		emit("runtime %s", rt.read().encode())
	}
	return 0
}

// Command perfbench is the repository's same-machine benchmark. It
// drives the system through its public entry points — the campaign
// engine, the solve service over loopback HTTP and the trace analytics
// — on three workloads, checks their outputs, and prints one JSON
// result line. See README.md in this directory.
//
// Usage (from the repository root, through run.sh, which builds it):
//
//	bash perfbench/run.sh --workload campaign-quick --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/campaign"
)

// deadline bounds a whole invocation: past it, workers are killed and
// the benchmark exits with an error, so it ends even if a run of the
// program never returns and the watchdog missed it.
const deadline = 150 * time.Second

// bench holds one invocation's settings.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	self     string // this executable, re-run as the worker process
	workers  int
	// workerRSS is the largest peak resident set, in KiB, of the
	// worker processes run so far.
	workerRSS int64
	failures  []string // output checks that failed
}

// check records a failed output check; the result then reads
// "correct": false.
func (b *bench) check(ok bool, format string, args ...any) {
	if !ok {
		msg := fmt.Sprintf(format, args...)
		b.failures = append(b.failures, msg)
		fmt.Printf("CHECK FAILED: %s\n", msg)
	}
}

// outcome is what a workload hands back for printing.
type outcome struct {
	values            map[string]float64
	attempted, failed int
}

type workloadFunc func(ctx context.Context, b *bench) (*outcome, error)

var workloads = map[string]workloadFunc{
	"campaign-quick": campaignQuick,
	"served-g48":     servedG48,
	"traced-quick":   tracedQuick,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(runChild(os.Args[2:], campaign.ExecuteRunEnv))
	}
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	b := &bench{workers: runtime.NumCPU()}
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&b.workload, "workload", "", "campaign-quick, served-g48 or traced-quick")
	fs.Uint64Var(&b.seed, "seed", 1, "input seed")
	fs.Float64Var(&b.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced pass")
	fs.StringVar(&b.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory for campaign streams and traces")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[b.workload]
	if !ok || (trace != 0 && trace != 1) || b.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload campaign-quick|served-g48|traced-quick, --trace 0|1 and --seconds > 0\n")
		return 2
	}
	b.trace = trace == 1
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.self = self
	b.workdir = filepath.Join(b.workdir, b.workload+"-"+strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(b.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.workdir)

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	out, err := wl(ctx, b)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	res, err := finish(defs, out.values, out.attempted, out.failed, len(b.failures) == 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(res.line())
	return 0
}

// forEach calls fn(i) for i in [0, n) on b.workers goroutines and
// returns once every call has, or once ctx is done.
func (b *bench) forEach(ctx context.Context, n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < b.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// peakRSSMB is the largest resident set of this process or any worker
// process it ran, in MiB.
func (b *bench) peakRSSMB() float64 {
	var self syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)    // zero on failure: the workers' peak stands
	return float64(max(self.Maxrss, b.workerRSS)) / 1024 // Linux reports KiB
}

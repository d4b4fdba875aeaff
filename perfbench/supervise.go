package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/campaign"
)

// runLine is one finished run as a worker process reported it.
type runLine struct {
	execNs  int64
	buildNs int64
	// Filled only by instrumented workers.
	restarts    int
	ledger      bool // fault-free run with a comm ledger attached
	collectives float64
	sends       float64
	flops       float64
	vsec        float64
}

// specPass is the outcome of executing one campaign spec in worker
// processes, across any restarts a stuck run forced.
type specPass struct {
	spec   campaign.Spec
	out    string
	runs   map[string]runLine // by run key; a re-executed run keeps its last report
	setups []float64          // seconds from spawning a worker to its "ready"
	stuck  []string           // run keys recorded as unfinished
	rt     runtimeDelta
}

// passOpts selects how a spec is executed.
type passOpts struct {
	spec        string // "quick" or "served"
	seed        uint64
	out         string
	traceDir    string
	traceSample string
	instrument  bool
}

// unfinishedErr is the Err a run carries when the benchmark stopped it.
const unfinishedErr = "perfbench: unfinished — no solver progress while its process spent 0.15 CPU-seconds (livelock); the worker was killed"

// runPass executes one spec through campaign.Run in worker processes
// (this binary in child mode). When a worker reports a stuck run, the
// run is recorded as unfinished in the JSONL stream and a fresh worker
// resumes the campaign, so a livelocked run costs one watchdog period
// instead of the whole workload.
func (b *bench) runPass(ctx context.Context, o passOpts) (*specPass, error) {
	spec, err := specFor(o.spec, o.seed)
	if err != nil {
		return nil, err
	}
	refs := specRuns(&spec)
	if err := os.Remove(o.out); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	p := &specPass{spec: spec, out: o.out, runs: make(map[string]runLine)}
	args := []string{"-child", "-spec", o.spec, "-spec-seed", strconv.FormatUint(o.seed, 10),
		"-out", o.out, "-workers", strconv.Itoa(b.workers),
		"-trace-dir", o.traceDir, "-trace-sample", o.traceSample}
	if o.instrument {
		args = append(args, "-instrument")
	}
	for {
		stuck, err := b.spawnWorker(ctx, args, p)
		if err != nil {
			return nil, err
		}
		if stuck == "" {
			return p, nil
		}
		ref, ok := refs[stuck]
		if !ok {
			return nil, fmt.Errorf("worker reported unknown stuck run %q", stuck)
		}
		p.stuck = append(p.stuck, stuck)
		fmt.Printf("unfinished run (killed): %s  [%s seed %d]\n", stuck, spec.Name, spec.Seed)
		rec := ref.cell.Record(&spec, ref.rep)
		rec.Err = unfinishedErr
		w, err := campaign.NewWriter(o.out, true)
		if err != nil {
			return nil, err
		}
		werr := w.Write(rec)
		if cerr := w.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return nil, fmt.Errorf("recording unfinished run %s: %w", stuck, werr)
		}
	}
}

// spawnWorker runs one worker process to its end, folding its reports
// into p. It returns the key of the run the worker declared stuck, or
// "" when the worker finished the spec.
func (b *bench) spawnWorker(ctx context.Context, args []string, p *specPass) (string, error) {
	cmd := exec.CommandContext(ctx, b.self, args...)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return "", err
	}
	var stuck string
	var parseErr error
	sc := bufio.NewScanner(pipe)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case "ready":
			p.setups = append(p.setups, time.Since(start).Seconds())
		case "stuck":
			if len(f) == 2 {
				stuck = f[1]
			}
		case "done":
			key, rl, err := parseDone(f)
			if err != nil && parseErr == nil {
				parseErr = err
			}
			p.runs[key] = rl
		case "runtime":
			d, err := decodeRuntime(strings.Join(f[1:], " "))
			if err != nil && parseErr == nil {
				parseErr = err
			}
			p.rt.add(d)
		}
	}
	waitErr := cmd.Wait()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		b.workerRSS = max(b.workerRSS, ru.Maxrss)
	}
	if ctx.Err() != nil {
		return "", fmt.Errorf("worker for %s seed %d stopped at the benchmark deadline: %w", p.spec.Name, p.spec.Seed, ctx.Err())
	}
	if parseErr != nil {
		return "", parseErr
	}
	if stuck != "" {
		var ee *exec.ExitError
		if errors.As(waitErr, &ee) && ee.ExitCode() == stuckExit {
			return stuck, nil
		}
	}
	if waitErr != nil {
		return "", fmt.Errorf("worker for %s seed %d: %w", p.spec.Name, p.spec.Seed, waitErr)
	}
	return "", nil
}

func parseDone(f []string) (string, runLine, error) {
	var rl runLine
	bad := fmt.Errorf("malformed worker line %q", strings.Join(f, " "))
	if len(f) != 3 && len(f) != 10 {
		return "", rl, bad
	}
	key := f[1]
	var err error
	if rl.execNs, err = strconv.ParseInt(f[2], 10, 64); err != nil {
		return "", rl, bad
	}
	if len(f) == 3 {
		return key, rl, nil
	}
	if rl.buildNs, err = strconv.ParseInt(f[3], 10, 64); err != nil {
		return "", rl, bad
	}
	if rl.restarts, err = strconv.Atoi(f[4]); err != nil {
		return "", rl, bad
	}
	if rl.ledger, err = strconv.ParseBool(f[5]); err != nil {
		return "", rl, bad
	}
	for i, dst := range []*float64{&rl.collectives, &rl.sends, &rl.flops, &rl.vsec} {
		if *dst, err = strconv.ParseFloat(f[6+i], 64); err != nil {
			return "", rl, bad
		}
	}
	return key, rl, nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/obs"
	"repro/internal/service"
)

// server is one in-process solverd on a loopback port.
type server struct {
	srv *service.Server
	hs  *http.Server
	cl  *service.Client
}

// requestTimeout bounds one served solve as the client sees it; a
// 48² solve takes tens of milliseconds.
const requestTimeout = 10 * time.Second

// startServer starts solverd with default workers and the journal on,
// fsync off: on a shared machine an fsync barrier measures the disk,
// not the program.
func (b *bench) startServer(journalDir string) (*server, error) {
	srv, err := service.New(service.Options{JournalDir: journalDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}}
	go s.hs.Serve(ln) // returns once stop shuts the listener down
	s.cl = &service.Client{
		Base: "http://" + ln.Addr().String(),
		HTTP: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 4 * b.workers}},
	}
	if err := s.cl.Healthz(); err != nil {
		s.stop()
		return nil, err
	}
	return s, nil
}

// stop shuts the listener and drains the pool. A solve that never
// returns would block the drain forever; after a grace period stop
// gives up, and the goroutine left behind ends with the process.
func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // only the grace period can fail it
	drained := make(chan struct{})
	go func() { s.srv.Close(); close(drained) }()
	select {
	case <-drained:
	case <-ctx.Done():
	}
	s.cl.HTTP.CloseIdleConnections()
}

// scrape reads /metrics.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.cl.HTTP.Get(s.cl.Base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return obs.ParseText(data)
}

// servedOp is one request of a closed loop and what came back.
type servedOp struct {
	ref  runRef
	rec  campaign.Record
	ms   float64
	done time.Duration // since the loop started
	err  error
}

// closedLoop runs b.workers clients, each with one outstanding
// request, over refs in order. A client takes the next request only
// while more(taken, elapsed) holds; more must stay false once it is.
// It returns the finished operations in request order.
func (b *bench) closedLoop(ctx context.Context, s *server, spec *campaign.Spec, refs []runRef, more func(taken int, elapsed time.Duration) bool) []servedOp {
	ops := make([]servedOp, len(refs))
	start := time.Now()
	b.forEach(ctx, len(refs), func(i int) {
		if !more(i, time.Since(start)) {
			return
		}
		op := &ops[i]
		op.ref = refs[i]
		t := time.Now()
		op.rec, op.err = s.cl.Solve(service.NewSolveRequest(spec, refs[i].cell, refs[i].rep))
		op.ms = float64(time.Since(t).Nanoseconds()) / 1e6
		op.done = time.Since(start)
		if op.err == nil && op.rec.Err != "" {
			op.err = fmt.Errorf("%s", op.rec.Err)
		}
		if op.err != nil {
			op.rec = refs[i].cell.Record(spec, refs[i].rep)
			op.rec.Err = "perfbench: " + op.err.Error()
		}
	})
	done := ops[:0]
	for _, op := range ops {
		if op.ms > 0 { // skip requests the loop closed before sending
			done = append(done, op)
		}
	}
	return done
}

// permutedRounds lists reps rounds of spec's cells, each round in its
// own seeded order.
func permutedRounds(spec *campaign.Spec, reps int, seed uint64) []runRef {
	cells := spec.Cells()
	rng := rand.New(rand.NewPCG(seed, 0x5e4ed))
	var refs []runRef
	for r := 0; r < reps; r++ {
		for _, i := range rng.Perm(len(cells)) {
			refs = append(refs, runRef{cells[i], r})
		}
	}
	return refs
}

// warmServer starts a server and fills its problem and setup caches
// for spec with one GMRES solve per (problem, ranks, preconditioner),
// which covers every cache key of spec's cells. Users pay this once per
// (problem, grid), so it is set-up, not steady-state serving. The
// warm-up requests use another campaign seed, so none of them answers a
// measured request from the journal.
func (b *bench) warmServer(ctx context.Context, journalDir string, spec campaign.Spec) (*server, error) {
	s, err := b.startServer(journalDir)
	if err != nil {
		return nil, err
	}
	warm := spec
	warm.Seed ^= 0xa5a5
	warm.Solvers = []string{campaign.SolverGMRES}
	warm.Faults = []campaign.FaultSpec{{Model: campaign.FaultNone}}
	warm.Noises = nil
	warm.Replicates = 1
	var refs []runRef
	for _, c := range warm.Cells() {
		refs = append(refs, runRef{c, 0})
	}
	ops := b.closedLoop(ctx, s, &warm, refs, func(int, time.Duration) bool { return true })
	for _, op := range ops {
		if op.err != nil {
			s.stop()
			return nil, fmt.Errorf("warm-up solve %s: %w", op.rec.Key, op.err)
		}
	}
	if len(ops) != len(refs) {
		s.stop()
		return nil, fmt.Errorf("warm-up: %d of %d solves finished: %w", len(ops), len(refs), ctx.Err())
	}
	return s, nil
}

// servedSetups is how many times served-g48 starts and warms a server;
// setup_s is their median.
const servedSetups = 5

// minRounds is the least number of complete rounds a window holds; the
// report step always reduces exactly this many.
const minRounds = 7

// reportTime is how long served-g48 repeats its report step. One step
// takes a few milliseconds, and on a shared machine single-thread speed
// shifts by tens of percent for seconds at a time, so the rate is taken
// over seconds of repetitions.
const reportTime = 3 * time.Second

// servedG48 is the served-g48 workload: a closed loop of b.workers
// clients against an in-process solverd. Requests come in rounds, each
// round every served cell once in a seeded order. Rounds differ only in
// order, so metrics over complete rounds do not depend on where the
// window happened to cut the request mix.
func servedG48(ctx context.Context, b *bench) (*outcome, error) {
	if b.trace {
		return servedTracedPass(ctx, b)
	}
	seed := b.seed
	var setups []float64
	var s *server
	for i := 0; i < servedSetups; i++ {
		if s != nil {
			s.stop()
		}
		t := time.Now()
		var err error
		if s, err = b.warmServer(ctx, b.path(fmt.Sprintf("journal-%d", i)), servedSpec(seed, 1)); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
	}

	const maxRounds = 128
	spec := servedSpec(seed, maxRounds)
	ncells := len(spec.Cells())
	refs := permutedRounds(&spec, maxRounds, seed)
	window := time.Duration(b.seconds * float64(time.Second))
	ops := b.closedLoop(ctx, s, &spec, refs, func(taken int, el time.Duration) bool {
		return el < window || taken < minRounds*ncells
	})
	// Stopped before the timed report step, so no server work shares
	// the CPU with it.
	s.stop()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	failed := 0
	for _, op := range ops {
		if op.err != nil {
			failed++
			fmt.Printf("failed solve: %s: %v\n", op.rec.Key, op.err)
		}
	}
	rounds := len(ops) / ncells
	var lat, rates []float64
	var prev time.Duration
	for r := 0; r < rounds; r++ {
		var last time.Duration
		ok := 0
		for _, op := range ops[r*ncells : (r+1)*ncells] {
			last = max(last, op.done)
			if op.err == nil {
				lat = append(lat, op.ms)
				ok++
			}
		}
		rates = append(rates, float64(ok)/(last-prev).Seconds())
		prev = last
	}
	p95, err := mustPercentile("served solve latency", lat, 0.95)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%d complete rounds, %d solve latency samples, %s\n", rounds, len(lat), p99Line(lat))

	// The user's report over the first minRounds rounds, a fixed amount
	// of work: the aggregate `solverd submit` writes, rendered as
	// `campaign report` does. Only what it and the direct check need stays
	// reachable, and the heap is collected first, so the timed step runs
	// on a heap that does not grow with the window.
	attempted := len(ops)
	recs := make([]campaign.Record, 0, minRounds*ncells)
	for _, op := range ops[:minRounds*ncells] {
		recs = append(recs, op.rec)
	}
	first := append([]servedOp(nil), ops[:ncells]...)
	runtime.GC()
	reported := 0
	t0 := time.Now()
	for time.Since(t0) < reportTime {
		agg, err := campaign.AggregateRecords(servedSpec(seed, minRounds), "perfbench", recs)
		if err != nil {
			return nil, err
		}
		campaign.BuildReport(agg)
		reported += len(recs)
	}
	reportRate := float64(reported) / time.Since(t0).Seconds()

	// Served records must equal direct execution of the same requests.
	b.checkDirect(ctx, &spec, first)

	return &outcome{
		values: map[string]float64{
			"runs_per_s":        median(rates),
			"run_p50_ms":        median(lat),
			"run_p95_ms":        p95,
			"report_runs_per_s": reportRate,
			"completed_frac":    completedFrac(attempted, failed),
			"setup_s":           median(setups),
			"peak_rss_mb":       b.peakRSSMB(),
		},
		attempted: attempted,
		failed:    failed,
	}, nil
}

// checkDirect executes each served operation's run in this process
// through campaign.ExecuteRunEnv and checks the served record is
// byte-identical.
func (b *bench) checkDirect(ctx context.Context, spec *campaign.Spec, ops []servedOp) {
	direct := b.executeDirect(ctx, spec, ops)
	for i, op := range ops {
		if op.err != nil {
			continue
		}
		got, _ := json.Marshal(op.rec)     // a Record always marshals: the service
		want, _ := json.Marshal(direct[i]) // clamps non-finite residuals to -1
		b.check(bytes.Equal(got, want), "served record %s differs from direct execution:\nserved %s\ndirect %s", op.rec.Key, got, want)
	}
}

// executeDirect runs each operation's (spec, cell, rep) locally on
// b.workers goroutines. Only fault-free runs come here, so no run can
// livelock.
func (b *bench) executeDirect(ctx context.Context, spec *campaign.Spec, ops []servedOp) []campaign.Record {
	out := make([]campaign.Record, len(ops))
	b.forEach(ctx, len(ops), func(i int) {
		out[i] = campaign.ExecuteRunEnv(spec, ops[i].ref.cell, ops[i].ref.rep, nil)
	})
	return out
}

package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/campaign"
)

// hangKey is the run the test worker never finishes when hangEnv
// names it.
const (
	hangKey = "pcg/jacobi/poisson/p2/none/r1"
	hangEnv = "PERFBENCH_TEST_HANG"
)

// TestMain lets this test binary stand in for the worker process: the
// supervisor re-runs its own executable with -child, exactly as the
// real benchmark does. The test worker's executor spins forever on the
// run hangEnv names, burning CPU without solver progress like the
// FGMRES livelock.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		hang := os.Getenv(hangEnv)
		os.Exit(runChild(os.Args[2:], func(spec *campaign.Spec, cell campaign.Cell, rep int, env *campaign.ExecEnv) campaign.Record {
			if cell.RunKey(rep) == hang {
				for n := 0; ; n++ {
					_ = n
				}
			}
			return campaign.ExecuteRunEnv(spec, cell, rep, env)
		}))
	}
	os.Exit(m.Run())
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what string
		got  []metricDef
		want []struct{ Name, Unit string }
	}{{"end_to_end", endToEnd, decl.EndToEnd}, {"per_layer", perLayer, decl.PerLayer}} {
		if len(c.got) != len(c.want) {
			t.Errorf("%s: benchmark prints %d metrics, BENCHMARK.json declares %d", c.what, len(c.got), len(c.want))
			continue
		}
		for i, d := range c.got {
			if d.name != c.want[i].Name || d.unit != c.want[i].Unit {
				t.Errorf("%s[%d]: benchmark prints %s (%s), BENCHMARK.json declares %s (%s)",
					c.what, i, d.name, d.unit, c.want[i].Name, c.want[i].Unit)
			}
		}
	}
}

// TestFinishPrintsExactlyTheDeclaredMetrics pins the result line: every
// declared metric, nothing else, and failures counted against attempts.
func TestFinishPrintsExactlyTheDeclaredMetrics(t *testing.T) {
	values := map[string]float64{}
	for i, d := range endToEnd {
		values[d.name] = float64(i + 1)
	}
	r, err := finish(endToEnd, values, 936, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]metricValue
	}
	if err := json.Unmarshal([]byte(r.line()), &back); err != nil {
		t.Fatal(err)
	}
	if !back.Correct || back.Attempted != 936 || back.Failed != 2 || len(back.Metrics) != len(endToEnd) {
		t.Fatalf("result line %s", r.line())
	}
	values["extra"] = 1
	if _, err := finish(endToEnd, values, 936, 0, true); err == nil {
		t.Error("an undeclared metric was accepted")
	}
	delete(values, "extra")
	delete(values, "setup_s")
	if _, err := finish(endToEnd, values, 936, 0, true); err == nil {
		t.Error("a missing metric was accepted")
	}
	if _, err := finish(perLayer, nil, 0, 0, true); err == nil {
		t.Error("a result with no attempted operation was accepted")
	}
}

func TestCompletedFracCountsAgainstAttempts(t *testing.T) {
	for _, c := range []struct {
		attempted, failed int
		want              float64
	}{{936, 0, 1}, {936, 1, 935.0 / 936}, {4, 4, 0}} {
		if got := completedFrac(c.attempted, c.failed); got != c.want {
			t.Errorf("completedFrac(%d, %d) = %v, want %v", c.attempted, c.failed, got, c.want)
		}
	}
}

// The quick-grid pass count depends on --seconds only, never on how
// fast the passes ran, so two invocations of one seed attempt the same
// runs and meet the same livelocked ones.
func TestQuickPassCountIsFixedBySeconds(t *testing.T) {
	for _, c := range []struct {
		seconds float64
		traced  bool
		want    int
	}{{30, false, 48}, {30, true, 11}, {1, false, 3}, {1, true, 3}} {
		b := &bench{seconds: c.seconds}
		if got := b.quickPasses(c.traced); got != c.want {
			t.Errorf("quickPasses(%g s, traced %t) = %d, want %d", c.seconds, c.traced, got, c.want)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending: percentile must sort
		}
		return s
	}
	for _, c := range []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{1000, 0.99, true, 990},
		{999, 0.99, false, 0},
		{100, 0.90, true, 90},
		{99, 0.90, false, 0},
		{20, 0.5, true, 10},
		{0, 0.5, false, 0},
	} {
		got, ok := percentile(samples(c.n), c.p)
		if ok != c.ok || got != c.want {
			t.Errorf("percentile(n=%d, p=%g) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
}

func TestStalledCountsCPUOrWallTime(t *testing.T) {
	for _, c := range []struct {
		cpu, wall float64
		want      bool
	}{
		{0.01, 1, false},
		{stuckCPU, 0.2, true},
		{0, stuckWall.Seconds(), true}, // blocked without spending CPU
		{0.01, stuckWall.Seconds() - 1, false},
	} {
		if got := stalled(c.cpu, time.Duration(c.wall*float64(time.Second))); got != c.want {
			t.Errorf("stalled(cpu %v, wall %v) = %v, want %v", c.cpu, c.wall, got, c.want)
		}
	}
}

// TestRunThatNeverReturnsIsReportedUnfinished drives the supervisor
// over the quick grid with a worker whose executor never returns for
// one run: the pass must still end, name the run, and count it as an
// errored run of the aggregate.
func TestRunThatNeverReturnsIsReportedUnfinished(t *testing.T) {
	if testing.Short() {
		t.Skip("executes the quick grid")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(hangEnv, hangKey)
	b := &bench{self: self, workers: 2, workdir: t.TempDir()}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	p, err := b.runPass(ctx, passOpts{spec: "quick", seed: 7, out: b.path("hang.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.stuck) != 1 || p.stuck[0] != hangKey {
		t.Fatalf("unfinished runs %v, want [%s]", p.stuck, hangKey)
	}
	agg, _, err := aggregate(p)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs != 936 || errored(agg) != 1 {
		t.Fatalf("aggregate has %d runs, %d errored; want 936 and 1", agg.Runs, errored(agg))
	}
	if _, ok := p.runs[hangKey]; ok {
		t.Errorf("the unfinished run was reported as done")
	}
}

// TestWorkerTracesMatchCampaignRun pins the worker's Exec hook to the
// engine it stands in for: a traced quick-grid pass through the worker
// must give the same records as campaign.Run with TraceDir, TraceRanks
// "all" and the same sample, and byte-identical traces except rank-kill
// runs (see comm.Die).
func TestWorkerTracesMatchCampaignRun(t *testing.T) {
	if testing.Short() {
		t.Skip("executes and traces the quick grid twice")
	}
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	spec := quickSpec(7)
	engineDir := filepath.Join(dir, "engine")
	if _, err := campaign.Run(campaign.Options{Spec: spec, Workers: 2, Out: filepath.Join(dir, "engine.jsonl"),
		TraceDir: engineDir, TraceRanks: "all", TraceSample: tracedSample}); err != nil {
		t.Fatal(err)
	}
	b := &bench{self: self, workers: 2, workdir: dir}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	p, err := b.runPass(ctx, passOpts{spec: "quick", seed: 7, out: b.path("worker.jsonl"),
		traceDir: b.path("worker"), traceSample: tracedSample})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := aggregate(p)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := aggregate(&specPass{spec: spec, out: filepath.Join(dir, "engine.jsonl")})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("worker and campaign.Run aggregates differ")
	}
	b.checkTraces(engineDir, b.path("worker"))
	for _, f := range b.failures {
		t.Error(f)
	}
}

package campaign

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// runAndAggregate executes the whole spec into dir/name.jsonl and
// returns the canonical aggregate bytes.
func runAndAggregate(t *testing.T, spec Spec, dir, name string) []byte {
	t.Helper()
	out := filepath.Join(dir, name+".jsonl")
	st, err := Run(Options{Spec: spec, Out: out})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != st.Planned {
		t.Fatalf("executed %d of %d planned runs", st.Executed, st.Planned)
	}
	agg, err := AggregateFiles(spec, "test", out)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "CAMPAIGN_"+name+".json")
	if err := WriteAggregate(agg, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCampaignIsReproducible is the acceptance gate: two full runs of
// one spec produce byte-identical aggregate files.
func TestCampaignIsReproducible(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	a := runAndAggregate(t, spec, dir, "a")
	b := runAndAggregate(t, spec, dir, "b")
	if !bytes.Equal(a, b) {
		t.Error("two identical campaigns produced different aggregates")
	}
}

// TestResumeAfterKill simulates a campaign killed mid-flight: half the
// records survive plus a torn trailing line; -resume completes only the
// missing runs, and the aggregate is byte-identical to an uninterrupted
// campaign's.
func TestResumeAfterKill(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	want := runAndAggregate(t, spec, dir, "full")

	// Build the "crashed" file: first half of the full run's records,
	// then a torn line (the append that was cut short).
	full, err := os.ReadFile(filepath.Join(dir, "full.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(full, []byte("\n")), []byte("\n"))
	if len(lines) < 4 {
		t.Fatalf("test spec too small: %d records", len(lines))
	}
	kept := lines[:len(lines)/2]
	crashed := filepath.Join(dir, "crashed.jsonl")
	partial := append(bytes.Join(kept, []byte("\n")), '\n')
	partial = append(partial, []byte(`{"schema":"repro-campaign/v1","key":"torn`)...)
	if err := os.WriteFile(crashed, partial, 0o644); err != nil {
		t.Fatal(err)
	}

	st, err := Run(Options{Spec: spec, Out: crashed, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	// The resumed writer sealed the tear in place: the fragment is
	// followed by one seal line citing the offset where it was cut.
	resumed, err := os.ReadFile(crashed)
	if err != nil {
		t.Fatal(err)
	}
	seal := fmt.Sprintf("\n{\"schema\":%q,\"kind\":\"seal\",\"offset\":%d}\n", RunSchema, len(partial))
	if !bytes.HasPrefix(resumed, append(partial, seal...)) {
		t.Errorf("resumed file does not seal the torn tail with %q", seal)
	}
	if st.Resumed != len(kept) {
		t.Errorf("resume skipped %d runs, want %d", st.Resumed, len(kept))
	}
	if st.Executed != st.Planned-len(kept) {
		t.Errorf("resume executed %d runs, want %d", st.Executed, st.Planned-len(kept))
	}
	agg, err := AggregateFiles(spec, "test", crashed)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "CAMPAIGN_resumed.json")
	if err := WriteAggregate(agg, path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("killed-then-resumed campaign differs from an uninterrupted one")
	}

	// Resuming a complete campaign is a no-op.
	st, err = Run(Options{Spec: spec, Out: crashed, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.Executed != 0 || st.Resumed != st.Planned {
		t.Errorf("resume of a complete campaign executed %d runs", st.Executed)
	}
}

// TestTruncatedMidFileLineFails: a record line cut short in the middle
// of a campaign file (not the torn tail a kill leaves) is corruption.
// Aggregation and -resume both refuse the file, naming it and the byte
// offset of the bad line, instead of reporting a run missing or
// silently re-running it; the refused resume leaves the file as it was.
func TestTruncatedMidFileLineFails(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	runAndAggregate(t, spec, dir, "full")
	full, err := os.ReadFile(filepath.Join(dir, "full.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(full, []byte("\n"))
	bad := len(lines) / 2
	offset := len(bytes.Join(lines[:bad], nil))
	lines[bad] = append(lines[bad][:len(lines[bad])/2:len(lines[bad])/2], '\n')
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	data := bytes.Join(lines, nil)
	if err := os.WriteFile(corrupt, data, 0o644); err != nil {
		t.Fatal(err)
	}
	where := fmt.Sprintf("at byte %d", offset)

	if _, err := AggregateFiles(spec, "test", corrupt); err == nil || !strings.Contains(err.Error(), corrupt) || !strings.Contains(err.Error(), where) {
		t.Errorf("AggregateFiles error %v does not name %s %s", err, corrupt, where)
	}
	if _, err := Run(Options{Spec: spec, Out: corrupt, Resume: true}); err == nil || !strings.Contains(err.Error(), corrupt) || !strings.Contains(err.Error(), where) {
		t.Errorf("resume error %v does not name %s %s", err, corrupt, where)
	}
	after, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Error("a refused resume changed the file")
	}
}

// TestShardsPartitionTheGrid: shards 0/2 and 1/2 are disjoint, cover
// every cell, and their merged aggregate matches the unsharded one.
func TestShardsPartitionTheGrid(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	want := runAndAggregate(t, spec, dir, "whole")

	s0 := filepath.Join(dir, "shard0.jsonl")
	s1 := filepath.Join(dir, "shard1.jsonl")
	st0, err := Run(Options{Spec: spec, Out: s0, Shard: 0, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := Run(Options{Spec: spec, Out: s1, Shard: 1, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := len(spec.Cells()) * spec.Replicates
	if st0.Planned+st1.Planned != total {
		t.Errorf("shards plan %d+%d runs, grid has %d", st0.Planned, st1.Planned, total)
	}
	if st0.Planned == 0 || st1.Planned == 0 {
		t.Error("degenerate shard split")
	}

	// One shard alone is incomplete — aggregation must refuse it.
	if _, err := AggregateFiles(spec, "test", s0); err == nil {
		t.Error("aggregation of a lone shard did not report missing runs")
	}

	agg, err := AggregateFiles(spec, "test", s0, s1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "CAMPAIGN_merged.json")
	if err := WriteAggregate(agg, path); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("sharded campaign aggregate differs from unsharded")
	}
}

// TestWorkerCountInvariance: the pool size must not leak into results.
func TestWorkerCountInvariance(t *testing.T) {
	spec := testSpec()
	dir := t.TempDir()
	for _, workers := range []int{1, 8} {
		out := filepath.Join(dir, "w.jsonl")
		if _, err := Run(Options{Spec: spec, Out: out, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		agg, err := AggregateFiles(spec, "test", out)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, "CAMPAIGN_w.json")
		if err := WriteAggregate(agg, path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		ref := filepath.Join(dir, "CAMPAIGN_ref.json")
		if workers == 1 {
			if err := os.Rename(path, ref); err != nil {
				t.Fatal(err)
			}
			continue
		}
		refData, err := os.ReadFile(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, refData) {
			t.Errorf("worker count %d changed the aggregate", workers)
		}
	}
}

func TestLoadSpec(t *testing.T) {
	if _, err := LoadSpec("quick"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec("full"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec("no-such-spec"); err == nil {
		t.Error("unknown spec reference accepted")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(`{
		"name": "file", "seed": 1,
		"solvers": ["cg"], "preconds": ["none"], "problems": ["poisson"],
		"ranks": [2], "faults": [{"model": "none"}],
		"replicates": 1, "grid": 8, "tol": 1e-6, "max_iter": 100
	}`), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "file" || len(s.Cells()) != 1 {
		t.Errorf("file spec parsed wrong: %+v", s)
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(bad); err == nil {
		t.Error("invalid file spec accepted")
	}
}

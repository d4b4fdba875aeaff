package campaign

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestReadShardFileDiagnostics pins the per-file errors aggregation
// inputs produce: missing, empty, torn-only, garbage and schema-foreign
// shard files each fail with a message naming the file and the failure
// mode (and the byte offset of a bad line), instead of silently
// contributing zero records to a partial aggregate.
func TestReadShardFileDiagnostics(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	cases := []struct {
		name string
		path string
		want []string
	}{
		{"missing", filepath.Join(dir, "nope.jsonl"), []string{"nope.jsonl", "no such file"}},
		{"empty", write("empty.jsonl", ""), []string{"empty.jsonl", "file is empty"}},
		{"blank lines only", write("blank.jsonl", "\n\n\n"), []string{"blank.jsonl", "file is empty"}},
		{"foreign schema", write("foreign.jsonl", `{"schema":"repro-bench/v1","key":"x"}`+"\n"),
			[]string{"foreign.jsonl", `schema "repro-campaign/v1"`, `"repro-bench/v1"`}},
		{"garbage", write("garbage.jsonl", "not json\nalso not\n"), []string{"garbage.jsonl", "not valid JSON", "at byte 0"}},
		{"torn line only", write("torn.jsonl", `{"schema":"repro-campaign/v1","key":"torn`), []string{"torn.jsonl", "only a torn line at byte 0"}},
		{"foreign line mid-file", write("mixed.jsonl", `{"schema":"repro-campaign/v1","key":"a"}`+"\n"+`{"schema":"repro-bench/v1","key":"x"}`+"\n"+`{"schema":"repro-campaign/v1","key":"b"}`+"\n"),
			[]string{"mixed.jsonl", `foreign schema "repro-bench/v1"`, "at byte 41"}},
	}
	for _, tc := range cases {
		_, err := ReadShardFile(tc.path)
		if err == nil {
			t.Errorf("%s: ReadShardFile accepted", tc.name)
			continue
		}
		for _, want := range tc.want {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s: error %q lacks %q", tc.name, err, want)
			}
		}
	}

	// A valid file with one torn tail still reads — the crash-safety
	// contract ReadRecords has always honoured.
	spec := synthSpec()
	recs := aggRecords(spec, func(c Cell, rep int) (bool, int, float64) { return true, 5, 1 })
	valid := filepath.Join(dir, "valid.jsonl")
	w, err := NewWriter(valid, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	f, err := os.OpenFile(valid, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"schema":"repro-campaign/v1","key":"torn`)
	f.Close()
	got, err := ReadShardFile(valid)
	if err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	if len(got) != len(recs) {
		t.Errorf("read %d records, want %d", len(got), len(recs))
	}

	// AggregateFiles propagates the diagnostic, naming the bad file
	// even when other inputs are fine.
	if _, err := AggregateFiles(spec, "t", valid, filepath.Join(dir, "nope.jsonl")); err == nil || !strings.Contains(err.Error(), "nope.jsonl") {
		t.Errorf("AggregateFiles error does not name the missing shard: %v", err)
	}
}

// TestReadAggregateEmptyFile pins compare's input diagnostic.
func TestReadAggregateEmptyFile(t *testing.T) {
	p := filepath.Join(t.TempDir(), "CAMPAIGN_empty.json")
	if err := os.WriteFile(p, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := ReadAggregate(p)
	if err == nil || !strings.Contains(err.Error(), "empty file") {
		t.Errorf("empty aggregate error: %v", err)
	}
}

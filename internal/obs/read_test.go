package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestReadTraceRejectsBadCounts: a header's event count is outside
// input — a negative one is an error, not a panic, and a huge one is
// an honest count mismatch, not a huge allocation.
func TestReadTraceRejectsBadCounts(t *testing.T) {
	for _, tc := range []struct{ events, want string }{
		{"-1", "negative event count"},
		{"9000000000000000000", "header says 9000000000000000000 events, file has 0"},
	} {
		_, err := ReadTrace(strings.NewReader(`{"schema":"repro-trace/v1","key":"k","seed":1,"events":` + tc.events + "}\n"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("events %s: error %v, want %q", tc.events, err, tc.want)
		}
	}
}

// FuzzReadTrace throws arbitrary bytes at the trace reader. The
// invariants: no panic; parsing is deterministic; and an accepted trace
// holds exactly the number of events its header declares.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	tr := NewRunTracer("solver/p4/r0", 7)
	tr.Emit(0, 0.5, "iteration", 0, 1, 0.1, "")
	tr.EmitSpan(1, 0.5, 0.75, 0, PhaseSpMV)
	if err := tr.WriteJSONL(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"schema":"repro-trace/v1","key":"k","seed":1,"events":-1}` + "\n"))
	f.Add([]byte(`{"schema":"repro-trace/v1","key":"k","seed":1,"events":0}` + "\n"))
	f.Add([]byte(`{"schema":"other/v1","events":0}` + "\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadTrace(bytes.NewReader(data))
		got2, err2 := ReadTrace(bytes.NewReader(data))
		if (err == nil) != (err2 == nil) || !reflect.DeepEqual(got, got2) {
			t.Fatal("parse is nondeterministic")
		}
		if err != nil {
			return
		}
		var hdr traceHeader
		first, _, _ := bytes.Cut(data, []byte("\n"))
		if err := json.Unmarshal(first, &hdr); err != nil {
			t.Fatalf("accepted a trace whose header does not parse: %v", err)
		}
		if len(got.Events) != hdr.Events {
			t.Errorf("accepted %d events under a header count of %d", len(got.Events), hdr.Events)
		}
	})
}

package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Trace is one parsed repro-trace/v1 file: the run identity from the
// header plus the events in export order, exactly as written.
type Trace struct {
	// Key is the run key the trace was recorded under.
	Key string
	// Seed is the run's derived seed.
	Seed uint64
	// Events holds the timeline in the file's (T, Rank, Seq) order.
	Events []Event
}

// maxPreallocEvents caps the event capacity ReadTrace reserves from a
// header's count; longer traces grow by append.
const maxPreallocEvents = 1 << 16

// ReadTrace parses one repro-trace/v1 JSONL stream. It is strict: the
// header must carry the expected schema and its event count must match
// the number of event lines, so a truncated or foreign file fails
// loudly instead of yielding a silently short timeline.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("obs: empty trace")
	}
	var hdr traceHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil {
		return nil, fmt.Errorf("obs: trace header: %w", err)
	}
	if hdr.Schema != TraceSchema {
		return nil, fmt.Errorf("obs: trace schema %q, want %q", hdr.Schema, TraceSchema)
	}
	if hdr.Events < 0 {
		return nil, fmt.Errorf("obs: trace %q: negative event count %d", hdr.Key, hdr.Events)
	}
	// The header is outside input: trust its count for the capacity only
	// up to a bound, so a corrupt count cannot demand unbounded memory.
	tr := &Trace{Key: hdr.Key, Seed: hdr.Seed, Events: make([]Event, 0, min(hdr.Events, maxPreallocEvents))}
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("obs: trace %q event %d: %w", hdr.Key, len(tr.Events), err)
		}
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(tr.Events) != hdr.Events {
		return nil, fmt.Errorf("obs: trace %q: header says %d events, file has %d", hdr.Key, hdr.Events, len(tr.Events))
	}
	return tr, nil
}

// ReadTraceFile is ReadTrace over a file path.
func ReadTraceFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := ReadTrace(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return tr, nil
}

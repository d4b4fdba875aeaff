// Package jsonlog is the repository's one append-only JSONL log: the
// framing, crash policy and strict reader shared by the campaign's
// repro-campaign/v1 run records and the solve service's
// repro-journal/v1 journal. Callers own only what a line means — the
// Go type it decodes into and the checks it must pass.
//
// The crash policy is the same for every log. Each line is one
// O_APPEND write, so a killed writer leaves at worst one torn final
// line. A writer that reopens the file to resume seals such a tear with
// one seal line, {"schema":S,"kind":"seal","offset":N}, so the fragment
// becomes a forgiven, skipped line instead of mid-file corruption once
// new lines follow it. The reader skips a sealed tear and reports an
// unsealed torn tail by its offset; any other line that does not decode
// or check fails the read with the file name and byte offset, because
// data that cannot be trusted must not be silently dropped.
package jsonlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"unicode"
)

// Log is an open append-only JSONL file. Append, Sync and Rotate may be
// called from several goroutines: each line is a single write on a file
// opened O_APPEND, so concurrent lines never interleave.
type Log struct {
	f     *os.File
	fsync bool
}

// Open opens the log at path for appending lines of schema, creating
// the file if it is missing. With resume false the file is truncated (a
// fresh log); with resume true existing lines are kept, and a torn
// final line — one the reader would report as torn — is sealed first,
// so the next append cannot fuse with or follow the fragment. fsync
// true makes every Append a durability barrier.
func Open(path, schema string, resume, fsync bool) (*Log, error) {
	flags := os.O_CREATE | os.O_RDWR | os.O_APPEND
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, err
	}
	if resume {
		if err := sealTornTail(f, schema); err != nil {
			f.Close()
			return nil, err
		}
	}
	return &Log{f: f, fsync: fsync}, nil
}

// sealTornTail appends a seal line after f's last non-blank line when
// that line is torn: cut short of its newline, or terminated but not
// valid JSON (a crash that persisted the newline but not the content).
func sealTornTail(f *os.File, schema string) error {
	data, err := io.ReadAll(f)
	if err != nil {
		return err
	}
	body := bytes.TrimRightFunc(data, unicode.IsSpace)
	if len(body) == 0 {
		return nil
	}
	last, _, terminated := bytes.Cut(data[bytes.LastIndexByte(body, '\n')+1:], newline)
	if terminated && json.Valid(last) {
		return nil
	}
	seal := fmt.Appendf(nil, "%s%d}\n", sealPrefix(schema), len(data))
	if data[len(data)-1] != '\n' {
		seal = append([]byte{'\n'}, seal...)
	}
	_, err = f.Write(seal)
	return err
}

// sealPrefix is every seal line of schema up to its offset digits.
func sealPrefix(schema string) []byte {
	return []byte(`{"schema":` + strconv.Quote(schema) + `,"kind":"seal","offset":`)
}

// isSeal reports whether line is exactly a seal line with the given
// prefix: the prefix, one or more digits, and the closing brace.
func isSeal(line, prefix []byte) bool {
	digits, ok := bytes.CutPrefix(line, prefix)
	digits, closed := bytes.CutSuffix(digits, []byte("}"))
	return ok && closed && len(digits) > 0 && len(bytes.TrimLeft(digits, "0123456789")) == 0
}

// Append writes one full line (newline included) in a single write,
// then syncs when the log was opened with fsync.
func (l *Log) Append(line []byte) error {
	if _, err := l.f.Write(line); err != nil {
		return err
	}
	if l.fsync {
		return l.f.Sync()
	}
	return nil
}

// Sync forces the platform's durability barrier.
func (l *Log) Sync() error { return l.f.Sync() }

// Rotate truncates the log to empty: the rotation step once a snapshot
// has captured everything the log held.
func (l *Log) Rotate() error { return l.f.Truncate(0) }

// Close closes the file.
func (l *Log) Close() error { return l.f.Close() }

// Read decodes every line of data — the contents of the log name,
// which errors cite — into a T, in file order, and returns the entries
// with the byte offset of an unsealed torn final line (-1 when the tail
// is clean). check validates each decoded entry.
//
// Blank lines and seal lines are skipped. A final line without its
// newline is torn even if it decodes: its write never completed. A
// line that fails to decode or check is forgiven when the next
// non-blank line is a seal (a sealed tear), and is the torn tail when
// it is the last non-blank line and not valid JSON. Any other failing
// line fails the read with "<name>: <reason> at byte N".
func Read[T any](name string, data []byte, schema string, check func(*T) error) ([]T, int64, error) {
	prefix := sealPrefix(schema)
	var out []T
	for rest := data; len(rest) > 0; {
		start := int64(len(data) - len(rest))
		line, next, terminated := bytes.Cut(rest, newline)
		rest = next
		if blank(line) {
			continue
		}
		if !terminated {
			return out, start, nil
		}
		if isSeal(line, prefix) {
			continue
		}
		var v T
		err := json.Unmarshal(line, &v)
		var syn *json.SyntaxError
		garbage := errors.As(err, &syn)
		if err == nil {
			err = check(&v)
		}
		if err == nil {
			if out == nil {
				out = make([]T, 0, bytes.Count(rest, newline)+1)
			}
			out = append(out, v)
			continue
		}
		if after, sealed := sealFollows(rest, prefix); sealed {
			rest = after
			continue
		}
		if garbage {
			if blank(rest) {
				return out, start, nil
			}
			err = errors.New("corrupt line (not valid JSON)")
		}
		return nil, -1, fmt.Errorf("%s: %v at byte %d", name, err, start)
	}
	return out, -1, nil
}

// sealFollows reports whether the next non-blank line of rest is a
// complete seal line, returning what follows that seal when so.
func sealFollows(rest, prefix []byte) ([]byte, bool) {
	for {
		line, after, ok := bytes.Cut(rest, newline)
		if !ok {
			return rest, false
		}
		if !blank(line) {
			return after, isSeal(line, prefix)
		}
		rest = after
	}
}

// newline is the line terminator.
var newline = []byte{'\n'}

// blank reports whether b holds only white space.
func blank(b []byte) bool { return len(bytes.TrimSpace(b)) == 0 }

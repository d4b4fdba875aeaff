package jsonlog

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

const testSchema = "test-log/v1"

// entry is the line type of the tests' log.
type entry struct {
	Schema string `json:"schema"`
	N      int    `json:"n"`
}

// checkEntry rejects foreign schemas and negative n.
func checkEntry(e *entry) error {
	if e.Schema != testSchema {
		return errors.New("foreign schema")
	}
	if e.N < 0 {
		return errors.New("negative n")
	}
	return nil
}

func line(n string) string { return `{"schema":"test-log/v1","n":` + n + "}\n" }

// seal is the seal line for offset off.
func seal(off string) string {
	return `{"schema":"test-log/v1","kind":"seal","offset":` + off + "}\n"
}

// TestReadPolicy pins the one crash policy: torn tails and sealed
// tears are forgiven, everything else fails with name and offset.
func TestReadPolicy(t *testing.T) {
	second := "at byte 31" // len(line("1"))
	cases := []struct {
		name    string
		data    string
		want    []int
		torn    int64
		wantErr []string
	}{
		{name: "empty", data: "", torn: -1},
		{name: "blank lines", data: "\n \n\n", torn: -1},
		{name: "clean", data: line("1") + line("2"), want: []int{1, 2}, torn: -1},
		{name: "unterminated tail is torn even if it decodes", data: line("1") + strings.TrimSuffix(line("2"), "\n"), want: []int{1}, torn: 31},
		{name: "cut tail", data: line("1") + line("2")[:9], want: []int{1}, torn: 31},
		{name: "terminated garbage tail is torn", data: line("1") + "{\"sch\n", want: []int{1}, torn: 31},
		{name: "sealed tear", data: line("1") + line("2")[:9] + "\n" + seal("40") + line("3"), want: []int{1, 3}, torn: -1},
		{name: "lone seal", data: seal("5") + line("1"), want: []int{1}, torn: -1},
		{name: "mid-file garbage", data: line("1") + "nope\n" + line("2"), wantErr: []string{"log.jsonl", "not valid JSON", second}},
		{name: "garbage before a blank line", data: line("1") + "nope\n\n" + line("2"), wantErr: []string{"not valid JSON", second}},
		{name: "check failure mid-file", data: line("1") + line("-1") + line("2"), wantErr: []string{"negative n", second}},
		{name: "check failure on the last line", data: line("1") + line("-1"), wantErr: []string{"negative n", second}},
		{name: "foreign seal is not a seal", data: line("1") + "nope\n" + `{"schema":"x/v1","kind":"seal","offset":1}` + "\n" + line("2"), wantErr: []string{"not valid JSON", second}},
		{name: "malformed seal is an ordinary line", data: `{"schema":"test-log/v1","kind":"seal","offset":-1}` + "\n", want: []int{0}, torn: -1},
		{name: "undecodable type", data: `{"schema":"test-log/v1","n":"x"}` + "\n" + line("1"), wantErr: []string{"cannot unmarshal", "at byte 0"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, torn, err := Read("log.jsonl", []byte(tc.data), testSchema, checkEntry)
			if len(tc.wantErr) > 0 {
				if err == nil {
					t.Fatalf("accepted: %v", got)
				}
				for _, frag := range tc.wantErr {
					if !strings.Contains(err.Error(), frag) {
						t.Errorf("error %q lacks %q", err, frag)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			var ns []int
			for _, e := range got {
				ns = append(ns, e.N)
			}
			if !reflect.DeepEqual(ns, tc.want) || torn != tc.torn {
				t.Errorf("read %v torn %d, want %v torn %d", ns, torn, tc.want, tc.torn)
			}
		})
	}
}

// TestOpenSealsTornTail: resuming a log whose last line is torn — cut
// short, or terminated but not JSON — seals it, after which the reader
// skips the tear; reopening a clean log changes nothing, and a fresh
// open truncates.
func TestOpenSealsTornTail(t *testing.T) {
	for _, tc := range []struct{ name, tail, sealed string }{
		{"cut short", line("2")[:9], line("2")[:9] + "\n" + seal("40")},
		{"terminated garbage", "{\"sch\n", "{\"sch\n" + seal("37")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			if err := os.WriteFile(path, []byte(line("1")+tc.tail), 0o644); err != nil {
				t.Fatal(err)
			}
			l, err := Open(path, testSchema, true, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Append([]byte(line("3"))); err != nil {
				t.Fatal(err)
			}
			l.Close()
			data, _ := os.ReadFile(path)
			if want := line("1") + tc.sealed + line("3"); string(data) != want {
				t.Fatalf("file is %q, want %q", data, want)
			}
			got, torn, err := Read(path, data, testSchema, checkEntry)
			if err != nil || len(got) != 2 || got[1].N != 3 || torn != -1 {
				t.Fatalf("sealed log read as %v torn %d err %v", got, torn, err)
			}
			l, err = Open(path, testSchema, true, false)
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			if again, _ := os.ReadFile(path); string(again) != string(data) {
				t.Error("reopening a clean log changed it")
			}
			l, err = Open(path, testSchema, false, false)
			if err != nil {
				t.Fatal(err)
			}
			l.Close()
			if st, _ := os.Stat(path); st.Size() != 0 {
				t.Errorf("fresh open left %d bytes", st.Size())
			}
		})
	}
}

// FuzzRead throws arbitrary bytes at the reader. Invariants: no panic;
// the result is deterministic; errors name the file and an offset; a
// torn offset lies inside the data; every accepted entry passed check;
// and a resumed writer's seal turns any torn tail into a clean read of
// the same entries.
func FuzzRead(f *testing.F) {
	for _, s := range []string{
		"",
		line("1") + line("2"),
		line("1") + line("2")[:9],
		line("1") + "nope\n" + line("2"),
		line("1") + "{\"sch\n",
		line("1") + line("2")[:9] + "\n" + seal("40") + line("3"),
		line("-1"),
		"\n\n" + seal("0"),
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, torn, err := Read("fuzz.jsonl", data, testSchema, checkEntry)
		got2, torn2, err2 := Read("fuzz.jsonl", data, testSchema, checkEntry)
		if (err == nil) != (err2 == nil) || torn != torn2 || !reflect.DeepEqual(got, got2) {
			t.Fatal("read is nondeterministic")
		}
		if err != nil {
			if !strings.Contains(err.Error(), "fuzz.jsonl") || !strings.Contains(err.Error(), "at byte ") {
				t.Errorf("error %q does not name the file and offset", err)
			}
			return
		}
		if torn >= int64(len(data)) {
			t.Errorf("torn offset %d beyond %d bytes", torn, len(data))
		}
		for _, e := range got {
			if checkEntry(&e) != nil {
				t.Errorf("accepted unchecked entry %+v", e)
			}
		}
		if torn < 0 {
			return
		}
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, testSchema, true, false)
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		sealed, _ := os.ReadFile(path)
		after, torn3, err := Read("fuzz.jsonl", sealed, testSchema, checkEntry)
		if err != nil || torn3 != -1 {
			t.Fatalf("sealed tail still torn (%d) or rejected: %v", torn3, err)
		}
		if len(after) < len(got) || !slices.Equal(after[:len(got)], got) {
			t.Errorf("sealing changed the entries: %v, then %v", got, after)
		}
	})
}

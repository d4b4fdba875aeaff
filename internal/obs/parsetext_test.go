package obs

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestParseTextRoundTripsEveryKind pins the satellite contract for the
// exposition parser: a registry holding every metric kind — counter,
// gauge, histogram, and the CounterFunc/GaugeFunc bridges — writes an
// exposition that ParseText reads back to exactly the values written,
// including histogram +Inf buckets and escaped label values.
func TestParseTextRoundTripsEveryKind(t *testing.T) {
	r := NewRegistry()
	r.Counter("rt_counter_total", "a counter").Add(5)
	r.Gauge("rt_gauge", "a gauge").Set(-2.5)
	h := r.Histogram("rt_hist_seconds", "a histogram", []float64{0.1, 1})
	h.Observe(0.05) // first bucket
	h.Observe(0.5)  // second bucket
	h.Observe(10)   // +Inf only
	r.CounterFunc("rt_bridge_total", "a counter bridge", func() float64 { return 42 })
	r.GaugeFunc("rt_bridge_gauge", "a gauge bridge", func() float64 { return 0.125 })
	r.Counter("rt_labeled_total", "escaping",
		Label{Key: "path", Value: "a\"b\\c\nend"}).Inc()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	series, err := ParseText([]byte(b.String()))
	if err != nil {
		t.Fatalf("ParseText rejected our own exposition: %v\n%s", err, b.String())
	}

	for name, want := range map[string]float64{
		"rt_counter_total":                      5,
		"rt_gauge":                              -2.5,
		`rt_hist_seconds_bucket{le="0.1"}`:      1,
		`rt_hist_seconds_bucket{le="1"}`:        2,
		`rt_hist_seconds_bucket{le="+Inf"}`:     3,
		"rt_hist_seconds_sum":                   10.55,
		"rt_hist_seconds_count":                 3,
		"rt_bridge_total":                       42,
		"rt_bridge_gauge":                       0.125,
		`rt_labeled_total{path="a\"b\\c\nend"}`: 1,
	} {
		got, ok := series[name]
		if !ok {
			t.Errorf("round trip lost series %s; parsed keys: %v", name, keys(series))
			continue
		}
		if got != want {
			t.Errorf("%s = %g after round trip, want %g", name, got, want)
		}
	}
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// FuzzParseText: the exposition parser never panics, and any input it
// accepts means exactly its map — rendering the map back as one
// "series value" line per key re-parses to the same map, bit for bit
// (NaN included).
func FuzzParseText(f *testing.F) {
	r := NewRegistry()
	r.Counter("fz_total", "c", Label{Key: "k", Value: "a b"}).Add(3)
	r.Histogram("fz_seconds", "h", []float64{0.5}).Observe(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(b.String()))
	f.Add([]byte("# HELP x\n\nx NaN\ny -Inf\nx 1e308\n"))
	f.Add([]byte("no_value\n"))
	f.Add([]byte(" \t\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseText(data)
		if err != nil {
			return
		}
		series := make([]string, 0, len(m))
		for k := range m {
			series = append(series, k)
		}
		sort.Strings(series)
		var out strings.Builder
		for _, k := range series {
			out.WriteString(k + " " + strconv.FormatFloat(m[k], 'g', -1, 64) + "\n")
		}
		again, err := ParseText([]byte(out.String()))
		if err != nil {
			t.Fatalf("re-parse of %q failed: %v", out.String(), err)
		}
		if len(again) != len(m) {
			t.Fatalf("re-parse has %d series, want %d", len(again), len(m))
		}
		for k, v := range m {
			if w, ok := again[k]; !ok || math.Float64bits(w) != math.Float64bits(v) {
				t.Fatalf("series %q: re-parsed %v (present %v), want %v", k, w, ok, v)
			}
		}
	})
}

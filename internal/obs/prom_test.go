package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestExpositionCountersAndGauges(t *testing.T) {
	e := NewExposition()
	e.Counter("qo_requests_total", "Total requests.", L("route", "/v2/rank"), 42)
	e.Counter("qo_requests_total", "Total requests.", L("route", "/v2/rank"), 7)
	e.Gauge("qo_queue_depth", "Queue depth.", nil, 3)
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	wantLines := []string{
		"# HELP qo_requests_total Total requests.",
		"# TYPE qo_requests_total counter",
		`qo_requests_total{route="/v2/rank"} 42`,
		`qo_requests_total{route="/v2/rank"} 7`,
		"# TYPE qo_queue_depth gauge",
		"qo_queue_depth 3",
	}
	for _, l := range wantLines {
		if !strings.Contains(out, l+"\n") {
			t.Errorf("missing line %q in:\n%s", l, out)
		}
	}
	// One HELP/TYPE pair per family even with two series.
	if strings.Count(out, "# TYPE qo_requests_total") != 1 {
		t.Errorf("TYPE line repeated:\n%s", out)
	}
}

func TestExpositionLabelEscaping(t *testing.T) {
	e := NewExposition()
	e.Gauge("qo_g", "help", L("path", `a"b\c`+"\n"), 1)
	var b strings.Builder
	e.WriteTo(&b)
	want := `qo_g{path="a\"b\\c\n"} 1`
	if !strings.Contains(b.String(), want) {
		t.Errorf("escaping: got %q, want to contain %q", b.String(), want)
	}
}

func TestExpositionHistogram(t *testing.T) {
	var h Histogram
	h.Observe(3 * time.Millisecond)
	h.Observe(30 * time.Millisecond)
	h.Observe(time.Duration(1) << 55) // clamps into the unbounded tail bucket
	e := NewExposition()
	e.Histogram("qo_latency_seconds", "Latency.", L("route", "/v2/rank"), h.Snapshot())
	var b strings.Builder
	e.WriteTo(&b)
	out := b.String()

	if !strings.Contains(out, "# TYPE qo_latency_seconds histogram") {
		t.Fatalf("missing TYPE histogram:\n%s", out)
	}
	// Buckets must be cumulative and monotone, +Inf must equal _count,
	// and _count must be the observation count.
	var last float64
	var infSeen bool
	var infVal, countVal float64
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "qo_latency_seconds_bucket"):
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				t.Fatalf("bad bucket line %q: %v", line, err)
			}
			if v < last {
				t.Fatalf("bucket counts not monotone at %q (prev %v)", line, last)
			}
			last = v
			if strings.Contains(line, `le="+Inf"`) {
				infSeen, infVal = true, v
			}
		case strings.HasPrefix(line, "qo_latency_seconds_count"):
			countVal, _ = strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		}
	}
	if !infSeen {
		t.Fatalf("no +Inf bucket:\n%s", out)
	}
	if infVal != countVal || countVal != 3 {
		t.Fatalf("+Inf=%v count=%v, want both 3", infVal, countVal)
	}
	if !strings.Contains(out, "qo_latency_seconds_sum ") && !strings.Contains(out, "qo_latency_seconds_sum{") {
		t.Fatalf("missing _sum:\n%s", out)
	}
}

func TestExpositionSortSeries(t *testing.T) {
	e := NewExposition()
	e.Counter("qo_c_total", "h", L("route", "/z"), 1)
	e.Counter("qo_c_total", "h", L("route", "/a"), 2)
	e.SortSeries()
	var b strings.Builder
	e.WriteTo(&b)
	out := b.String()
	if strings.Index(out, `route="/a"`) > strings.Index(out, `route="/z"`) {
		t.Errorf("series not sorted:\n%s", out)
	}
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{0, "0"},
		{3, "3"},
		{0.25, "0.25"},
		{1e21, "1e+21"},
	} {
		if got := formatFloat(tc.v); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

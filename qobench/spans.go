package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// spanLog records the benchmark's own spans — around client calls and
// around the per-layer replays — in memory, and writes them out as
// Chrome-trace JSON when the run ends. A nil *spanLog records nothing,
// so untraced runs thread nil through.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []benchSpan
}

type benchSpan struct {
	name  string
	start time.Time
	dur   time.Duration
	reqID string // server request ID, when the span wraps an HTTP call
	tid   int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

func (l *spanLog) add(name string, start time.Time, dur time.Duration, reqID string, tid int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, benchSpan{name: name, start: start, dur: dur, reqID: reqID, tid: tid})
	l.mu.Unlock()
}

// timed runs fn inside a span.
func (l *spanLog) timed(name string, fn func()) {
	start := time.Now()
	fn()
	l.add(name, start, time.Since(start), "", 0)
}

// micros returns every recorded duration of the named span, in µs.
func (l *spanLog) micros(name string) []float64 {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.name == name {
			out = append(out, durMicros(s.dur))
		}
	}
	return out
}

// byRequest returns the named spans that wrap a server request, keyed
// by the server's request ID.
func (l *spanLog) byRequest(name string) map[string]time.Duration {
	out := map[string]time.Duration{}
	if l == nil {
		return out
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, s := range l.spans {
		if s.name == name && s.reqID != "" {
			out[s.reqID] = s.dur
		}
	}
	return out
}

func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	events := make([]chromeEvent, 0, len(l.spans))
	for _, s := range l.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: "bench", Ph: "X", Pid: 2, Tid: s.tid,
			Ts:   durMicros(s.start.Sub(l.epoch)),
			Dur:  durMicros(s.dur),
			Args: chromeArgs{RequestID: s.reqID},
		})
	}
	if err := json.NewEncoder(f).Encode(events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// chromeEvent is one Chrome-trace complete event, the format both the
// server's obs.Tracer and spanLog write.
type chromeEvent struct {
	Name string     `json:"name"`
	Cat  string     `json:"cat"`
	Ph   string     `json:"ph"`
	Ts   float64    `json:"ts"`
	Dur  float64    `json:"dur"`
	Pid  int        `json:"pid"`
	Tid  int        `json:"tid"`
	Args chromeArgs `json:"args"`
}

type chromeArgs struct {
	RequestID string `json:"requestId,omitempty"`
}

// serverRequest is one traced server request rebuilt from its events.
type serverRequest struct {
	route  string
	dur    float64 // µs
	stages []chromeEvent
}

// readServerTrace groups a closed obs.Tracer document by request ID.
func readServerTrace(path string) (map[string]*serverRequest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var events []chromeEvent
	if err := json.NewDecoder(f).Decode(&events); err != nil && err != io.EOF {
		return nil, fmt.Errorf("parsing server trace %s: %w", path, err)
	}
	reqs := map[string]*serverRequest{}
	for _, ev := range events {
		r := reqs[ev.Args.RequestID]
		if r == nil {
			r = &serverRequest{}
			reqs[ev.Args.RequestID] = r
		}
		if ev.Cat == "request" {
			r.route, r.dur = ev.Name, ev.Dur
		} else {
			r.stages = append(r.stages, ev)
		}
	}
	return reqs, nil
}

// coveredMicros is the length of the union of the stage intervals: the
// part of the request's wall time its stage spans explain (fan-out
// lanes overlap, so plain summing would over-count).
func (r *serverRequest) coveredMicros() float64 {
	iv := make([][2]float64, 0, len(r.stages))
	for _, s := range r.stages {
		iv = append(iv, [2]float64{s.Ts, s.Ts + s.Dur})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curS, curE := 0.0, 0.0, -1.0
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}

// attrRow is one line of an attribution table: a layer's median cost
// times how often one op incurs it.
type attrRow struct {
	layer string
	per   float64 // µs per occurrence
	count float64 // occurrences per op
	note  string
}

// printAttribution renders one op's attribution: the end-to-end cost,
// each layer's median × per-op count, and the unexplained remainder.
func printAttribution(w io.Writer, title string, total float64, rows []attrRow) {
	fmt.Fprintf(w, "== attribution: %s = %.1f us per op\n", title, total)
	sum := 0.0
	for _, r := range rows {
		v := r.per * r.count
		sum += v
		fmt.Fprintf(w, "  %-34s %10.1f us  %6.1f%%   (%.3g us x %.4g)%s\n", r.layer, v, pct(v, total), r.per, r.count, suffix(r.note))
	}
	rest := total - sum
	fmt.Fprintf(w, "  %-34s %10.1f us  %6.1f%%\n", "unexplained remainder", rest, pct(rest, total))
}

func pct(v, total float64) float64 {
	if total == 0 {
		return 0
	}
	return 100 * v / total
}

func suffix(note string) string {
	if note == "" {
		return ""
	}
	return "  " + note
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"qoadvisor/internal/rules"
)

func smallPopulation(workload string) population {
	p := servingPopulation(workload)
	p.BaseTemplates, p.Templates, p.Pool = 16, 512, 32
	return p
}

func TestInputsDeterministicPerSeed(t *testing.T) {
	cat := rules.NewCatalog()
	pop := smallPopulation(wHintedBulk)
	digest := func(seed int64) string {
		in, err := genServingInputs(cat, seed, pop)
		if err != nil {
			t.Fatal(err)
		}
		return in.digest()
	}
	a, b, c := digest(7), digest(7), digest(8)
	if a != b {
		t.Fatalf("same seed gave different inputs: %s vs %s", a, b)
	}
	if a == c {
		t.Fatalf("seeds 7 and 8 gave identical inputs %s", a)
	}
}

func TestInputsRealistic(t *testing.T) {
	if testing.Short() {
		t.Skip("featurizes 128 templates")
	}
	in, err := genServingInputs(rules.NewCatalog(), 7, servingPopulation(wHintedBulk))
	if err != nil {
		t.Fatal(err)
	}
	if _, p50, _ := in.spanQuantiles(); p50 < 10 {
		t.Errorf("span median %v bits, want >= 10", p50)
	}
	if in.coverage < 0.89 || in.coverage > 0.91 {
		t.Errorf("hint coverage %v, want about 0.9", in.coverage)
	}
}

// metricNameRE is the form every metric name must take.
var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesWellFormed(t *testing.T) {
	seen := map[string]bool{}
	layers := map[string]bool{"bench": true, "api": true, "client": true, "serve": true, "par": true, "core": true,
		"bandit": true, "wal": true, "drift": true, "optimizer": true, "flighting": true}
	for _, s := range specs {
		if !metricNameRE.MatchString(s.Name) {
			t.Errorf("metric name %q does not match %s", s.Name, metricNameRE)
		}
		if seen[s.Name] {
			t.Errorf("metric %q declared twice", s.Name)
		}
		seen[s.Name] = true
		if s.Better != "lower" && s.Better != "higher" {
			t.Errorf("metric %q: better = %q", s.Name, s.Better)
		}
		layer, _, dotted := strings.Cut(s.Name, ".")
		if s.EndToEnd == dotted {
			t.Errorf("metric %q: end-to-end names are bare, per-layer names are <layer>.<what>", s.Name)
		}
		if dotted && !layers[layer] {
			t.Errorf("metric %q: unknown layer %q", s.Name, layer)
		}
		if s.EndToEnd && !s.Ungated && (s.Bound <= 0 || s.Bound > 0.25) {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e, layer []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
		s, ok := specFor(m.Name)
		if !ok || !s.EndToEnd || s.Unit != m.Unit || s.Better != m.Better || s.Bound != m.Bound {
			t.Errorf("end_to_end %+v disagrees with the program's %+v", m, s)
		}
	}
	for _, m := range bf.PerLayer {
		layer = append(layer, m.Name)
		s, ok := specFor(m.Name)
		if !ok || s.EndToEnd || s.Unit != m.Unit || s.Better != m.Better {
			t.Errorf("per_layer %+v disagrees with the program's %+v", m, s)
		}
	}
	sort.Strings(e2e)
	sort.Strings(layer)
	for _, w := range bf.Workloads {
		if got := sorted(expectedMetrics(w.Name, false)); strings.Join(got, ",") != strings.Join(e2e, ",") {
			t.Errorf("%s emits end-to-end %v, BENCHMARK.json lists %v", w.Name, got, e2e)
		}
		if got := sorted(expectedMetrics(w.Name, true)); strings.Join(got, ",") != strings.Join(layer, ",") {
			t.Errorf("%s emits per-layer %v, BENCHMARK.json lists %v", w.Name, got, layer)
		}
	}
	if _, err := parseFlags(bf.Command[2:], &bytes.Buffer{}); err != nil {
		t.Errorf("BENCHMARK.json command arguments: %v", err)
	}
}

func sorted(xs []string) []string {
	out := append([]string(nil), xs...)
	sort.Strings(out)
	return out
}

// stalledTarget answers in 1ms, except that every request arriving in
// the stall window waits until the window closes.
type stalledTarget struct {
	mu         sync.Mutex
	start      time.Time
	from, till time.Duration
}

func (s *stalledTarget) op(ctx context.Context, i int, sched time.Time) opResult {
	if s.till > 0 {
		if at := time.Since(s.start); at >= s.from && at < s.till {
			time.Sleep(s.till - at)
		}
	}
	time.Sleep(time.Millisecond)
	return opResult{jobs: 1, rankLat: time.Since(sched)}
}

func TestStalledTargetShowsAsLatencyNotFewerOps(t *testing.T) {
	run := func(stall bool) phaseResult {
		tgt := &stalledTarget{start: time.Now()}
		if stall {
			tgt.from, tgt.till = 200*time.Millisecond, 500*time.Millisecond
		}
		return openLoop(context.Background(), 200, time.Second, 2, 0, tgt.op)
	}
	base, stalled := run(false), run(true)
	if base.ops != stalled.ops || base.ops != 200 {
		t.Fatalf("ops: %d unstalled, %d stalled; want 200 each", base.ops, stalled.ops)
	}
	if p99 := quantile(stalled.rankMs(), 0.99); p99 < 200 || p99 < 10*quantile(base.rankMs(), 0.99) {
		t.Errorf("stalled p99 %.1f ms vs unstalled %.1f ms: the stall is hidden", p99, quantile(base.rankMs(), 0.99))
	}
	if lag := quantile(stalled.lagMs(), 0.99); lag < 100 {
		t.Errorf("stalled send lag p99 %.1f ms, want the generator to report running late", lag)
	}
	if base.maxInFlight > 2 || stalled.maxInFlight > 2 {
		t.Errorf("in flight: %d, %d; limit 2", base.maxInFlight, stalled.maxInFlight)
	}
}

func checkReport(t *testing.T, rep *report) {
	t.Helper()
	var out bytes.Buffer
	res := rep.finish(&out)
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("run failed checks:\n%s", out.String())
	}
	want := expectedMetrics(rep.workload, rep.traced)
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, want %d:\n%s", len(res.Metrics), len(want), out.String())
	}
	for _, n := range want {
		if _, ok := res.Metrics[n]; !ok {
			t.Errorf("metric %s missing", n)
		}
	}
	last := strings.TrimSpace(out.String())
	last = last[strings.LastIndex(last, "\n")+1:]
	var parsed jsonResult
	if err := json.Unmarshal([]byte(last), &parsed); err != nil {
		t.Errorf("last line is not the JSON result: %v", err)
	}
}

func TestSmokeServing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the serving workloads")
	}
	for _, w := range servingWorkloads {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			cfg := newServingConfig(w, 3, 1, 4000, 2, dir, dir)
			cfg.pop = smallPopulation(w)
			cfg.setups, cfg.minTail, cfg.fillLog = 2, 0, 200
			if w == wExploreDurable {
				cfg.rate = 400
			}
			var log bytes.Buffer
			rep, err := runServing(context.Background(), cfg, traced, &log)
			if err != nil {
				t.Fatalf("%s traced=%v: %v\n%s", w, traced, err, log.String())
			}
			checkReport(t, rep)
		}
	}
}

func TestSmokePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pipeline workload")
	}
	for _, traced := range []bool{false, true} {
		cfg := newPipelineConfig(3, 0.01, t.TempDir())
		cfg.templates, cfg.days = 12, 2
		var log bytes.Buffer
		rep, err := runPipeline(context.Background(), cfg, traced, &log)
		if err != nil {
			t.Fatalf("traced=%v: %v\n%s", traced, err, log.String())
		}
		checkReport(t, rep)
	}
}

func TestFlagErrors(t *testing.T) {
	var stderr bytes.Buffer
	for _, args := range [][]string{
		{"--workload", "nope", "--rates", "hinted-bulk=1,explore-durable=1"},
		{"--workload", "hinted-bulk"},
		{"--trace", "2", "--workload", "pipeline-daily"},
	} {
		if code := run(args, &bytes.Buffer{}, &stderr); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Workload names.
const (
	wHintedBulk     = "hinted-bulk"
	wExploreDurable = "explore-durable"
	wPipelineDaily  = "pipeline-daily"
)

var (
	servingWorkloads = []string{wHintedBulk, wExploreDurable}
	allWorkloads     = []string{wHintedBulk, wExploreDurable, wPipelineDaily}
	pipelineOnly     = []string{wPipelineDaily}
)

// metricSpec declares one reported metric. EndToEnd metrics are what a
// user of the system sees (emitted by untraced runs); the rest are
// per-layer metrics (emitted by traced runs), named <layer>.<what>.
type metricSpec struct {
	Name     string
	Unit     string
	Better   string // "lower" or "higher"
	EndToEnd bool
	Bound    float64 // end-to-end only: allowed worsening as a share of the median
	// Ungated end-to-end metrics are printed but left out of the result
	// line: wall-clock latency and throughput on a shared 2-vCPU host
	// (CPU steal and disk contention from neighbours) spread from run to
	// run by more than the largest bound a gate may use.
	Ungated   bool
	Workloads []string
	// Moves names the end-to-end metric(s) and workload(s) a change in
	// this layer metric should move (per-layer metrics only).
	Moves string
}

// specs is the benchmark's complete metric list. BENCHMARK.json mirrors
// the entries that apply to its workloads (metrics_test.go checks it).
var specs = []metricSpec{
	// End to end.
	{Name: "setup_s", Unit: "s", Better: "lower", EndToEnd: true, Bound: 0.25, Workloads: allWorkloads},
	{Name: "rank_p50_ms", Unit: "ms", Better: "lower", EndToEnd: true, Ungated: true, Workloads: servingWorkloads},
	{Name: "rank_p99_ms", Unit: "ms", Better: "lower", EndToEnd: true, Ungated: true, Workloads: servingWorkloads},
	{Name: "reward_p50_ms", Unit: "ms", Better: "lower", EndToEnd: true, Ungated: true, Workloads: servingWorkloads},
	{Name: "reward_p99_ms", Unit: "ms", Better: "lower", EndToEnd: true, Ungated: true, Workloads: servingWorkloads},
	{Name: "sat_jobs_s", Unit: "jobs/s", Better: "higher", EndToEnd: true, Ungated: true, Workloads: servingWorkloads},
	{Name: "cpu_us_per_job", Unit: "us", Better: "lower", EndToEnd: true, Bound: 0.25, Workloads: servingWorkloads},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", EndToEnd: true, Bound: 0.25, Workloads: allWorkloads},
	{Name: "pipeline_cold_s", Unit: "s", Better: "lower", EndToEnd: true, Bound: 0.15, Workloads: pipelineOnly},
	{Name: "pipeline_jobs_s", Unit: "jobs/s", Better: "higher", EndToEnd: true, Bound: 0.15, Workloads: pipelineOnly},

	// bench: harness validity.
	{Name: "bench.send_lag_p99_ms", Unit: "ms", Better: "lower", Workloads: servingWorkloads, Moves: "validity: a late generator understates rank_p99_ms"},
	{Name: "bench.input_gen_s", Unit: "s", Better: "lower", Workloads: allWorkloads, Moves: "none (excluded from setup_s)"},
	{Name: "bench.tracing_overhead_frac", Unit: "frac", Better: "lower", Workloads: allWorkloads, Moves: "validity of the traced per-layer numbers"},
	{Name: "bench.allocs_per_job", Unit: "count", Better: "lower", Workloads: servingWorkloads, Moves: "cpu_us_per_job on both serving workloads"},
	{Name: "bench.gc_cpu_frac", Unit: "frac", Better: "lower", Workloads: servingWorkloads, Moves: "cpu_us_per_job, rank_p99_ms on both serving workloads"},

	// api: the JSON codec on the run's own bodies.
	{Name: "api.rank_decode_us_per_job", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "cpu_us_per_job, sat_jobs_s on hinted-bulk; flat on explore-durable"},
	{Name: "api.rank_encode_us_per_job", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "cpu_us_per_job, sat_jobs_s on hinted-bulk; flat on explore-durable"},
	{Name: "api.reward_decode_us_per_event", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "cpu_us_per_job, reward_p50_ms on hinted-bulk"},

	// client.
	{Name: "client.rank_call_p50_us", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p50_ms on both serving workloads"},
	{Name: "client.overhead_us_per_op", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p50_ms on hinted-bulk"},

	// serve.
	{Name: "serve.rank_route_p50_us", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p50_ms on both serving workloads"},
	{Name: "serve.rank_route_p99_us", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p99_ms on both serving workloads"},
	{Name: "serve.rank_unexplained_us_per_op", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p50_ms, sat_jobs_s on hinted-bulk"},
	{Name: "serve.hint_hit_frac", Unit: "frac", Better: "higher", Workloads: servingWorkloads, Moves: "input property, not a speed metric"},
	{Name: "serve.hint_lookup_ns_p50", Unit: "ns", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p50_ms on hinted-bulk"},
	{Name: "serve.rollover_ms", Unit: "ms", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p99_ms on hinted-bulk"},
	{Name: "serve.reward_route_p50_us", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "reward_p50_ms on both serving workloads"},
	{Name: "serve.reward_route_p99_us", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "reward_p99_ms on both serving workloads"},
	{Name: "serve.ingest_queue_wait_us_p50", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "failures, cpu_us_per_job on explore-durable"},
	{Name: "serve.queue_full", Unit: "count", Better: "lower", Workloads: servingWorkloads, Moves: "failures on explore-durable"},
	{Name: "serve.ingest_apply_us_p50", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p99_ms on explore-durable"},
	{Name: "serve.train_runs_per_1k_rewards", Unit: "count", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p99_ms on explore-durable"},

	// par.
	{Name: "par.for_speedup", Unit: "x", Better: "higher", Workloads: servingWorkloads, Moves: "sat_jobs_s on hinted-bulk; none on explore-durable"},

	// core.
	{Name: "core.context_features_us", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p50_ms, cpu_us_per_job on explore-durable"},
	{Name: "core.featuregen_cold_s", Unit: "s", Better: "lower", Workloads: pipelineOnly, Moves: "pipeline_cold_s"},
	{Name: "core.featuregen_warm_s", Unit: "s", Better: "lower", Workloads: pipelineOnly, Moves: "pipeline_jobs_s"},
	{Name: "core.rest_warm_s", Unit: "s", Better: "lower", Workloads: pipelineOnly, Moves: "pipeline_jobs_s"},
	{Name: "core.recommendations_per_day", Unit: "count", Better: "higher", Workloads: pipelineOnly, Moves: "pipeline_jobs_s (work per day)"},

	// bandit.
	{Name: "bandit.rank_stage_us_p50", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p50_ms, sat_jobs_s, cpu_us_per_job on explore-durable"},
	{Name: "bandit.rank_call_us", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "rank_p50_ms, sat_jobs_s, cpu_us_per_job on explore-durable"},
	{Name: "bandit.log_size", Unit: "count", Better: "lower", Workloads: servingWorkloads, Moves: "peak_rss_mb on explore-durable"},

	// wal.
	{Name: "wal.append_us_p50", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "reward_p50_ms on explore-durable; flat on hinted-bulk"},
	{Name: "wal.commit_wait_us_p50", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "reward_p50_ms on explore-durable; flat on hinted-bulk"},
	{Name: "wal.commit_wait_us_p99", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "reward_p99_ms on explore-durable; flat on hinted-bulk"},
	{Name: "wal.fsync_us_p50", Unit: "us", Better: "lower", Workloads: servingWorkloads, Moves: "reward_p50_ms on explore-durable; flat on hinted-bulk"},
	{Name: "wal.records_per_fsync", Unit: "count", Better: "higher", Workloads: servingWorkloads, Moves: "reward_p50_ms, reward_p99_ms on explore-durable"},
	{Name: "wal.bytes_per_job", Unit: "B", Better: "lower", Workloads: servingWorkloads, Moves: "reward_p50_ms on explore-durable"},

	// drift.
	{Name: "drift.observe_ns", Unit: "ns", Better: "lower", Workloads: servingWorkloads, Moves: "reward_p50_ms on hinted-bulk"},
	{Name: "drift.quarantines", Unit: "count", Better: "lower", Workloads: servingWorkloads, Moves: "correctness: must be 0"},

	// optimizer.
	{Name: "optimizer.cache_hit_frac", Unit: "frac", Better: "higher", Workloads: pipelineOnly, Moves: "pipeline_cold_s, pipeline_jobs_s"},
	{Name: "optimizer.compiles_per_day", Unit: "count", Better: "lower", Workloads: pipelineOnly, Moves: "pipeline_cold_s, pipeline_jobs_s"},

	// flighting.
	{Name: "flighting.flights_per_day", Unit: "count", Better: "lower", Workloads: pipelineOnly, Moves: "pipeline_jobs_s"},
}

func specFor(name string) (metricSpec, bool) {
	for _, s := range specs {
		if s.Name == name {
			return s, true
		}
	}
	return metricSpec{}, false
}

func (s metricSpec) appliesTo(workload string) bool {
	for _, w := range s.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}

// expectedMetrics lists the metric names one run reports: the
// end-to-end set untraced, the per-layer set traced.
func expectedMetrics(workload string, traced bool) []string {
	var out []string
	for _, s := range specs {
		if s.appliesTo(workload) && s.EndToEnd != traced && !s.Ungated {
			out = append(out, s.Name)
		}
	}
	return out
}

// report accumulates one run's metrics and correctness verdict and
// renders them: human-readable lines first, the JSON result last.
type report struct {
	workload  string
	traced    bool
	values    map[string]float64
	attempted int64
	failed    int64
	failures  []string // failed correctness checks
}

func newReport(workload string, traced bool) *report {
	return &report{workload: workload, traced: traced, values: map[string]float64{}}
}

// set records a metric. Metrics that do not belong to this run's kind
// (end-to-end vs per-layer) are kept for the human-readable output only.
func (r *report) set(name string, v float64) {
	if _, ok := specFor(name); !ok {
		panic("qobench: undeclared metric " + name)
	}
	r.values[name] = v
}

// check records one correctness check; a false ok fails the run.
func (r *report) check(ok bool, format string, args ...any) {
	if !ok {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// finish validates completeness and writes the metric lines and the
// final JSON line. Every expected metric must be present and finite.
func (r *report) finish(w io.Writer) jsonResult {
	for _, name := range expectedMetrics(r.workload, r.traced) {
		v, ok := r.values[name]
		r.check(ok, "metric %s was not measured", name)
		r.check(!ok || !math.IsNaN(v) && !math.IsInf(v, 0), "metric %s is not finite: %v", name, v)
	}
	if r.attempted < 1 {
		r.check(false, "no operation was attempted")
	}
	kind := "end-to-end"
	if r.traced {
		kind = "per-layer"
	}
	fmt.Fprintf(w, "== metrics (%s, %s)\n", r.workload, kind)
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		si, _ := specFor(names[i])
		sj, _ := specFor(names[j])
		if si.EndToEnd != sj.EndToEnd {
			return si.EndToEnd
		}
		return names[i] < names[j]
	})
	res := jsonResult{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	want := map[string]bool{}
	for _, n := range expectedMetrics(r.workload, r.traced) {
		want[n] = true
	}
	for _, n := range names {
		s, _ := specFor(n)
		v := r.values[n]
		extra := ""
		switch {
		case s.Ungated:
			extra = "  (ungated: printed, not in the result line)"
		case !want[n]:
			extra = "  (not in this run's result line)"
		}
		if r.traced && s.Moves != "" {
			extra += "  -> " + s.Moves
		}
		fmt.Fprintf(w, "  %-36s %14.6g %-7s%s\n", n, v, s.Unit, extra)
		if want[n] && !math.IsNaN(v) && !math.IsInf(v, 0) {
			res.Metrics[n] = jsonMetric{Value: v, Unit: s.Unit}
		}
	}
	if len(r.failures) == 0 {
		fmt.Fprintln(w, "== correctness: all checks passed")
	} else {
		fmt.Fprintf(w, "== correctness: %d check(s) FAILED\n", len(r.failures))
		for _, f := range r.failures {
			fmt.Fprintf(w, "  FAIL %s\n", strings.TrimSpace(f))
		}
	}
	res.Correct = len(r.failures) == 0
	line, _ := json.Marshal(res)
	fmt.Fprintln(w, string(line))
	return res
}

// Command qobench is the steering-cost benchmark: one command that runs
// the online steering service and the offline daily pipeline on
// generated inputs, prints every end-to-end metric by name and unit (or,
// traced, every per-layer metric with an attribution table), checks the
// outputs, and ends with one JSON result line.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash qobench/run.sh --rates hinted-bulk=9000,explore-durable=800 \
//	    --workload hinted-bulk --seed 7 --seconds 10 --trace 0
//
// Without --workload it runs every workload, each in a fresh process.
// The offered rates of the fixed-rate phases are part of the benchmark's
// definition and live in BENCHMARK.json's command. The system is driven
// only through its public functions: serve.New behind net/http on
// loopback, driven by the api/client package, and core.Advisor.RunDay.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	rates    map[string]float64
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("qobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(allWorkloads, ", ")+" (empty = all, each in a fresh process)")
	seed := fs.Int64("seed", 1, "input generation seed")
	seconds := fs.Float64("seconds", 10, "measuring time per run, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run: per-layer metrics, attribution table, CPU profile")
	rates := fs.String("rates", "", "offered jobs/s of each serving workload's fixed-rate phase, e.g. hinted-bulk=9000,explore-durable=800")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, rates: map[string]float64{}}
	if *trace != 0 && *trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if o.workload != "" && !contains(allWorkloads, o.workload) {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(allWorkloads, ", "))
	}
	for _, kv := range strings.Split(*rates, ",") {
		if kv == "" {
			continue
		}
		k, v, ok := strings.Cut(kv, "=")
		r, err := strconv.ParseFloat(v, 64)
		if !ok || err != nil || r <= 0 || !contains(servingWorkloads, k) {
			return o, fmt.Errorf("bad --rates entry %q", kv)
		}
		o.rates[k] = r
	}
	for _, w := range servingWorkloads {
		if (o.workload == "" || o.workload == w) && o.rates[w] == 0 {
			return o, fmt.Errorf("--rates must give %s's offered rate", w)
		}
	}
	return o, nil
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "qobench:", err)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.workload == "" {
		return runAll(ctx, args, stdout, stderr)
	}
	res, err := runWorkload(ctx, o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "qobench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runWorkload runs one workload in this process and writes its report.
func runWorkload(ctx context.Context, o options, stdout io.Writer) (jsonResult, error) {
	base := ".bench_build"
	dir := filepath.Join(base, "run", fmt.Sprintf("%s-%d", o.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return jsonResult{}, err
	}
	defer os.RemoveAll(dir)
	artifacts := filepath.Join(base, "artifacts")
	mode := "untraced (end-to-end metrics)"
	if o.trace {
		mode = "traced (per-layer metrics)"
	}
	fmt.Fprintf(stdout, "qobench %s seed=%d seconds=%g %s\n", o.workload, o.seed, o.seconds, mode)
	fmt.Fprint(stdout, hostHeader(dir))

	var rep *report
	var err error
	switch o.workload {
	case wPipelineDaily:
		rep, err = runPipeline(ctx, newPipelineConfig(o.seed, o.seconds, artifacts), o.trace, stdout)
	default:
		cfg := newServingConfig(o.workload, o.seed, o.seconds, o.rates[o.workload], runtime.NumCPU(), dir, artifacts)
		rep, err = runServing(ctx, cfg, o.trace, stdout)
	}
	if err != nil {
		return jsonResult{}, err
	}
	return rep.finish(stdout), nil
}

// runAll runs every workload, each in a fresh process of this binary,
// and closes with a combined result line.
func runAll(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "qobench:", err)
		return 1
	}
	total := jsonResult{Correct: true, Metrics: map[string]jsonMetric{}}
	code := 0
	for _, w := range allWorkloads {
		cmd := exec.CommandContext(ctx, self, append(append([]string(nil), args...), "--workload", w)...)
		cmd.Stderr = stderr
		pipe, err := cmd.StdoutPipe()
		if err != nil {
			fmt.Fprintln(stderr, "qobench:", err)
			return 1
		}
		if err := cmd.Start(); err != nil {
			fmt.Fprintln(stderr, "qobench:", err)
			return 1
		}
		var last string
		sc := bufio.NewScanner(pipe)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			last = sc.Text()
			fmt.Fprintln(stdout, last)
		}
		werr := cmd.Wait()
		var res jsonResult
		if werr != nil || json.Unmarshal([]byte(last), &res) != nil {
			fmt.Fprintf(stderr, "qobench: workload %s failed: %v\n", w, werr)
			total.Correct = false
			code = 1
			continue
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for name, m := range res.Metrics {
			total.Metrics[w+"."+name] = m
		}
	}
	line, _ := json.Marshal(total)
	fmt.Fprintln(stdout, string(line))
	if !total.Correct {
		code = 1
	}
	return code
}

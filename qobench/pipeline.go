package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"qoadvisor/internal/core"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/flighting"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// pipelineConfig parameterizes the offline daily-loop workload.
type pipelineConfig struct {
	seed      int64
	templates int
	maxDaily  int
	days      int
	seconds   float64
	artifacts string
}

func newPipelineConfig(seed int64, seconds float64, artifacts string) pipelineConfig {
	return pipelineConfig{seed: seed, templates: 96, maxDaily: 2, days: 5, seconds: seconds, artifacts: artifacts}
}

// dayRun is one timed Advisor.RunDay.
type dayRun struct {
	wall       time.Duration // RunDay
	featureGen time.Duration // outside FeatureGen.Run before RunDay (traced only)
	jobs       int           // jobs in view
	report     *core.DayReport
	digest     string // SIS hint table after the day
}

// pipelineIter is one fresh pass over all days.
type pipelineIter struct {
	setup    time.Duration
	inputGen time.Duration
	days     []dayRun
	compiles []uint64 // compile-cache misses after each day
	hitFrac  float64
}

// runPipelineIter builds a fresh generator and advisor and runs every
// day: the simulated production cluster (untimed input generation)
// produces the view, then Advisor.RunDay runs timed. Traced, the day's
// FeatureGen.Run is called from outside first, timing span computation.
func runPipelineIter(ctx context.Context, cat *rules.Catalog, cfg pipelineConfig, traced bool) (pipelineIter, error) {
	var it pipelineIter
	start := time.Now()
	gen, err := workload.New(workload.Config{Seed: cfg.seed, NumTemplates: cfg.templates, MaxDailyInstances: cfg.maxDaily})
	if err != nil {
		return it, err
	}
	store := sis.NewStore(cat)
	adv := core.NewAdvisor(cat, store, core.Config{Seed: cfg.seed, Flighting: flighting.Config{Catalog: cat, Seed: cfg.seed + 1}})
	it.setup = time.Since(start)
	prod := core.NewProduction(cat, store, exec.DefaultCluster(cfg.seed), cfg.seed)
	for day := 1; day <= cfg.days; day++ {
		if err := ctx.Err(); err != nil {
			return it, err
		}
		t := time.Now()
		jobs, err := gen.JobsForDay(day)
		if err != nil {
			return it, err
		}
		_, view, err := prod.RunDay(day, jobs)
		if err != nil {
			return it, err
		}
		it.inputGen += time.Since(t)
		var d dayRun
		if traced {
			t = time.Now()
			if _, err := adv.FeatureGen.Run(jobs, view); err != nil {
				return it, err
			}
			d.featureGen = time.Since(t)
		}
		t = time.Now()
		rep, err := adv.RunDay(day, jobs, view)
		d.wall = time.Since(t)
		if err != nil {
			return it, fmt.Errorf("day %d: %w", day, err)
		}
		d.jobs, d.report = rep.JobsInView, rep
		var buf bytes.Buffer
		if err := sis.Serialize(&buf, sis.File{Day: day, Hints: adv.ActiveHints()}); err != nil {
			return it, err
		}
		sum := sha256.Sum256(buf.Bytes())
		d.digest = hex.EncodeToString(sum[:8])
		it.days = append(it.days, d)
		it.compiles = append(it.compiles, adv.CompileCacheStats().Misses)
	}
	cs := adv.CompileCacheStats()
	if cs.Hits+cs.Misses > 0 {
		it.hitFrac = float64(cs.Hits) / float64(cs.Hits+cs.Misses)
	}
	return it, nil
}

func (it pipelineIter) warm() (wall, fg time.Duration, jobs int) {
	for _, d := range it.days[1:] {
		wall += d.wall
		fg += d.featureGen
		jobs += d.jobs
	}
	return wall, fg, jobs
}

func (it pipelineIter) total() (d time.Duration) {
	for _, x := range it.days {
		d += x.wall + x.featureGen
	}
	return d
}

func (it pipelineIter) digests() string {
	var s string
	for _, d := range it.days {
		s += d.digest + " "
	}
	return s
}

// runPipeline executes the pipeline-daily workload.
func runPipeline(ctx context.Context, cfg pipelineConfig, traced bool, out io.Writer) (*report, error) {
	rep := newReport(wPipelineDaily, traced)
	cat := rules.NewCatalog()
	if cfg.days < 2 {
		return nil, fmt.Errorf("pipeline needs at least 2 days, got %d", cfg.days)
	}
	fmt.Fprintf(out, "== inputs (%s, seed %d)\n  templates      %d (workload.New, MaxDailyInstances %d), %d days, parallelism default\n",
		wPipelineDaily, cfg.seed, cfg.templates, cfg.maxDaily, cfg.days)

	// Untraced passes until the measuring time is spent (at least one).
	var iters []pipelineIter
	begin := time.Now()
	for len(iters) == 0 || time.Since(begin).Seconds() < cfg.seconds && !traced {
		it, err := runPipelineIter(ctx, cat, cfg, false)
		rep.attempted += int64(len(it.days))
		if err != nil {
			rep.failed++
			return nil, err
		}
		iters = append(iters, it)
	}
	var setup, inputGen, cold, jobsS []float64
	for _, it := range iters {
		setup = append(setup, it.setup.Seconds())
		inputGen = append(inputGen, it.inputGen.Seconds())
		cold = append(cold, it.days[0].wall.Seconds())
		wall, _, jobs := it.warm()
		jobsS = append(jobsS, float64(jobs)/wall.Seconds())
		rep.check(it.digests() == iters[0].digests(), "hint tables differ between identical passes: %s vs %s", it.digests(), iters[0].digests())
	}
	fmt.Fprintf(out, "== passes: %d untraced, days %d; hint digests per day: %s\n", len(iters), cfg.days, iters[0].digests())
	rep.set("setup_s", median(setup))
	rep.set("bench.input_gen_s", median(inputGen))
	rep.set("pipeline_cold_s", median(cold))
	rep.set("pipeline_jobs_s", median(jobsS))
	rep.set("peak_rss_mb", peakRSSMiB())
	if !traced {
		return rep, nil
	}

	// Traced pass, under a CPU profile: its hint tables must match.
	if err := os.MkdirAll(cfg.artifacts, 0o755); err != nil {
		return nil, err
	}
	prof, err := os.Create(filepath.Join(cfg.artifacts, wPipelineDaily+"-cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	tr, err := runPipelineIter(ctx, cat, cfg, true)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	rep.attempted += int64(len(tr.days))
	if err != nil {
		return nil, err
	}
	base := iters[0]
	rep.check(tr.digests() == base.digests(), "traced hint tables %s differ from untraced %s", tr.digests(), base.digests())
	rep.set("bench.tracing_overhead_frac", (tr.total().Seconds()-base.total().Seconds())/base.total().Seconds())
	warmDays := float64(len(tr.days) - 1)
	wall, fg, _ := tr.warm()
	rep.set("core.featuregen_cold_s", tr.days[0].featureGen.Seconds())
	rep.set("core.featuregen_warm_s", fg.Seconds()/warmDays)
	rep.set("core.rest_warm_s", wall.Seconds()/warmDays)
	recs, flights := 0, 0
	for _, d := range tr.days {
		recs += d.report.Recommendations
		flights += d.report.FlightsRequested
	}
	days := float64(len(tr.days))
	rep.set("core.recommendations_per_day", float64(recs)/days)
	rep.set("flighting.flights_per_day", float64(flights)/days)
	rep.set("optimizer.compiles_per_day", float64(tr.compiles[len(tr.compiles)-1])/days)
	rep.set("optimizer.cache_hit_frac", tr.hitFrac)

	bw, _, _ := base.warm()
	printAttribution(out, "pipeline-daily cold day (untraced RunDay)", durMicros(base.days[0].wall), []attrRow{
		{layer: "core.featuregen_cold_s", per: durMicros(tr.days[0].featureGen), count: 1, note: "span computation, timed from outside"},
		{layer: "rest of RunDay (span memo warm)", per: durMicros(tr.days[0].wall), count: 1},
	})
	printAttribution(out, "pipeline-daily warm day (untraced RunDay, mean)", durMicros(bw)/warmDays, []attrRow{
		{layer: "core.featuregen_warm_s", per: durMicros(fg) / warmDays, count: 1},
		{layer: "core.rest_warm_s", per: durMicros(wall) / warmDays, count: 1},
	})
	fmt.Fprintf(out, "== artifacts: %s/%s-cpu.pprof\n", cfg.artifacts, wPipelineDaily)
	return rep, nil
}

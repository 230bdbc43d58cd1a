package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/obs"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

// servingConfig parameterizes one serving workload run.
type servingConfig struct {
	workload string
	seed     int64
	pop      population
	walMode  wal.Mode
	// templateRewards attributes every job's reward to its template
	// (the drift safeguard's input); otherwise only bandit decisions are
	// rewarded, by event ID.
	templateRewards bool
	rate            float64 // offered jobs/s in the fixed-rate phase
	seconds         float64
	setups          int // set-up repetitions; setup_s is their median (untraced runs)
	minTail         int // samples the fixed-rate phase must hold beyond p99
	workers         int // ops in flight (and connections) at most
	dir             string
	artifacts       string
	traceEvery      int // server tracer samples 1 request in traceEvery (odd, so alternating rank and reward calls both get sampled)
	fillLog         int // warm-up runs until the event log holds this many events
}

func servingPopulation(workload string) population {
	p := population{BaseTemplates: 256, Templates: 4096, ZipfS: 1.1, ZipfV: 10, RewardSigma: 0.1}
	switch workload {
	case wHintedBulk:
		p.Batch, p.HintCoverage, p.Pool = 128, 0.9, 512
	case wExploreDurable:
		p.Batch, p.HintCoverage, p.Pool = 4, 0, 4096
	}
	return p
}

func newServingConfig(workload string, seed int64, seconds, rate float64, workers int, dir, artifacts string) servingConfig {
	cfg := servingConfig{
		workload: workload, seed: seed, pop: servingPopulation(workload),
		rate: rate, seconds: seconds, setups: 42, minTail: 10, workers: workers,
		dir: dir, artifacts: artifacts, traceEvery: 7, fillLog: eventLogCap,
	}
	switch workload {
	case wHintedBulk:
		cfg.walMode, cfg.templateRewards = wal.ModeAsync, true
	case wExploreDurable:
		cfg.walMode = wal.ModeSync
	}
	return cfg
}

// node is one steering server on a loopback listener, set up exactly as
// production runs it: a WAL, the drift detector on, the default flight
// recorder and SLO tracking.
type node struct {
	srv    *serve.Server
	wal    *wal.WAL
	hs     *http.Server
	done   chan struct{}
	url    string
	dir    string
	tracer *obs.Tracer
}

// startNode sets up a server and returns once it answers health probes.
func startNode(ctx context.Context, cat *rules.Catalog, seed int64, dir string, mode wal.Mode, hints []sis.Hint, tracer *obs.Tracer) (*node, error) {
	j, err := wal.Open(wal.Options{Dir: dir, Mode: mode})
	if err != nil {
		return nil, fmt.Errorf("opening WAL: %w", err)
	}
	dc := drift.DefaultConfig()
	srv := serve.New(serve.Config{Catalog: cat, Seed: seed, WAL: j, Drift: &dc, Tracer: tracer})
	n := &node{srv: srv, wal: j, dir: dir, tracer: tracer, done: make(chan struct{})}
	if len(hints) > 0 {
		if _, err := srv.InstallHints(hints); err != nil {
			n.stop()
			return nil, fmt.Errorf("installing hints: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.stop()
		return nil, err
	}
	n.url = "http://" + ln.Addr().String()
	n.hs = &http.Server{Handler: srv}
	go func() {
		defer close(n.done)
		n.hs.Serve(ln)
	}()
	if _, err := client.New(n.url).Health(ctx); err != nil {
		n.stop()
		return nil, fmt.Errorf("server not ready: %w", err)
	}
	return n, nil
}

// stop shuts the listener down (waiting for in-flight handlers), drains
// the server, closes the journal and the tracer, and removes the WAL.
func (n *node) stop() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if n.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(n.hs.Shutdown(ctx))
		cancel()
		<-n.done
	}
	n.srv.Close()
	keep(n.wal.Close())
	if n.tracer != nil {
		keep(n.tracer.Close())
	}
	keep(os.RemoveAll(n.dir))
	return first
}

// setupOnce times one complete set-up — WAL open, serve.New, hint
// install, listener answering — and returns the ready node.
func (r *servingRun) setupOnce(ctx context.Context, cat *rules.Catalog) (*node, error) {
	runtime.GC() // garbage owed by earlier work must not be collected inside the timing
	dir := filepath.Join(r.cfg.dir, fmt.Sprintf("wal-%d", len(r.setups)))
	start := time.Now()
	n, err := startNode(ctx, cat, r.cfg.seed, dir, r.cfg.walMode, r.in.hints, nil)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, time.Since(start).Seconds())
	return n, nil
}

// timeSetups times k throwaway set-ups.
func (r *servingRun) timeSetups(ctx context.Context, cat *rules.Catalog, k int) error {
	for i := 0; i < k; i++ {
		n, err := r.setupOnce(ctx, cat)
		if err != nil {
			return err
		}
		if err := n.stop(); err != nil {
			return err
		}
	}
	return nil
}

// servingRun is one serving workload in progress.
type servingRun struct {
	cfg   servingConfig
	in    *servingInputs
	rep   *report
	out   io.Writer
	chk   *checker
	node  *node
	cl    *client.Client
	hc    *http.Client
	spans *spanLog // nil when untraced

	setups []float64 // set-up times, s

	sampleMu    sync.Mutex
	sampleResps []api.BatchRankResponse
	sampleRews  [][]api.RewardEvent
}

func (r *servingRun) dial() {
	tr := &http.Transport{MaxConnsPerHost: r.cfg.workers, MaxIdleConnsPerHost: r.cfg.workers}
	r.hc = &http.Client{Transport: tr, Timeout: 30 * time.Second}
	r.cl = client.New(r.node.url, client.WithHTTPClient(r.hc), client.WithRetries(0, 0))
}

func (r *servingRun) hangUp() {
	if r.hc != nil {
		r.hc.CloseIdleConnections()
	}
}

// op is one unit of offered load: rank a batch, then report its rewards.
func (r *servingRun) op(ctx context.Context, i int, sched time.Time) opResult {
	in := &r.in.batches[i%len(r.in.batches)]
	res := opResult{jobs: len(in.Jobs)}
	t0 := time.Now()
	resp, err := r.cl.RankBatch(ctx, in.Jobs)
	t1 := time.Now()
	res.rankLat = t1.Sub(sched)
	r.spans.add("client.rank_call", t0, t1.Sub(t0), resp.RequestID, 1)
	if err != nil {
		r.chk.violate("rank call: %v", err)
		res.failed = true
		return res
	}
	if !r.chk.rank(in, resp, t0, t1) {
		res.failed = true
	}

	var events []api.RewardEvent
	withID, withTemplate := 0, 0
	for j, jr := range resp.Results {
		if j >= len(in.Jobs) || jr.Error != nil {
			continue
		}
		ev := api.RewardEvent{Reward: &in.Rewards[j]}
		if jr.Source == api.SourceBandit {
			ev.EventID = jr.EventID
			withID++
		}
		if r.cfg.templateRewards {
			ev.TemplateHash = &in.Jobs[j].TemplateHash
			withTemplate++
		}
		if ev.EventID != "" || ev.TemplateHash != nil {
			events = append(events, ev)
		}
	}
	r.keepSample(resp, events)
	if len(events) == 0 {
		return res
	}
	t2 := time.Now()
	rr, err := r.cl.RewardBatch(ctx, events)
	t3 := time.Now()
	res.rewardLat = t3.Sub(t2)
	r.spans.add("client.reward_call", t2, t3.Sub(t2), rr.RequestID, 2)
	switch {
	case err != nil:
		r.chk.violate("reward call: %v", err)
		res.failed = true
	case rr.Queued != withID || len(rr.Rejected) != 0 || rr.Observed != withTemplate:
		first := ""
		if len(rr.Rejected) > 0 {
			first = rr.Rejected[0].Error.Code
		}
		r.chk.violate("reward batch: queued %d/%d, observed %d/%d, %d rejected (first: %s)",
			rr.Queued, withID, rr.Observed, withTemplate, len(rr.Rejected), first)
		res.failed = true
	}
	return res
}

// keepSample retains a few real bodies for the codec replays.
func (r *servingRun) keepSample(resp api.BatchRankResponse, events []api.RewardEvent) {
	r.sampleMu.Lock()
	defer r.sampleMu.Unlock()
	if len(r.sampleResps) < 32 {
		r.sampleResps = append(r.sampleResps, resp)
	}
	if len(r.sampleRews) < 32 && len(events) > 0 {
		r.sampleRews = append(r.sampleRews, events)
	}
}

// rollover installs the day-2 table, registering it with the checker
// under the generation the swap will mint.
func (r *servingRun) rollover() (time.Duration, error) {
	gen := r.node.srv.Cache().Generation() + 1
	r.chk.addTable(gen, r.in.next)
	start := time.Now()
	r.chk.rolloverBegin(start)
	got, err := r.node.srv.InstallHints(r.in.next)
	end := time.Now()
	r.chk.rolloverEnd(end)
	if err != nil {
		return 0, err
	}
	if got != gen {
		return 0, fmt.Errorf("rollover minted generation %d, want %d", got, gen)
	}
	return end.Sub(start), nil
}

// fixedPhase is the open-loop fixed-rate phase with the rollover at its
// midpoint. It returns the phase, the server-side deltas, and the
// process resource deltas.
type fixedPhase struct {
	res        phaseResult
	stats      statsDelta
	p0, p1     procSample
	rolloverMs float64
}

func (r *servingRun) runFixed(ctx context.Context, dur time.Duration, first int) (fixedPhase, error) {
	var fp fixedPhase
	var err error
	opsPerSec := r.cfg.rate / float64(r.cfg.pop.Batch)
	if fp.stats.before, err = r.cl.Stats(ctx); err != nil {
		return fp, err
	}
	fp.p0 = sampleProc()
	var rollErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-time.After(dur / 2):
		case <-ctx.Done():
			return
		}
		d, err := r.rollover()
		fp.rolloverMs, rollErr = float64(d)/float64(time.Millisecond), err
	}()
	fp.res = openLoop(ctx, opsPerSec, dur, r.cfg.workers, first, r.op)
	wg.Wait()
	fp.p1 = sampleProc()
	if rollErr != nil {
		return fp, fmt.Errorf("rollover: %w", rollErr)
	}
	fp.stats.after, err = r.cl.Stats(ctx)
	return fp, err
}

// phases splits the run's measured time.
func (r *servingRun) phases() (fixed, sat time.Duration) {
	s := time.Duration(r.cfg.seconds * float64(time.Second))
	return s * 2 / 3, s / 3
}

// eventLogCap is the server's default bound on retained rank events.
const eventLogCap = 1 << 14

// warmUp drives closed-loop load until the learner's event log is at its
// cap: until then every rank grows the heap and the log, so the service
// is not yet in its steady state. It returns the ops it issued.
func (r *servingRun) warmUp(ctx context.Context, first int) (int, error) {
	const limit = 90 * time.Second
	start := time.Now()
	ops := 0
	for r.node.srv.Bandit().LogSize() < r.cfg.fillLog {
		if time.Since(start) > limit {
			return ops, fmt.Errorf("warm-up: event log at %d after %v, want %d", r.node.srv.Bandit().LogSize(), limit, r.cfg.fillLog)
		}
		res := closedLoop(ctx, 250*time.Millisecond, r.cfg.workers, first+ops, r.op)
		ops += res.ops
		if err := ctx.Err(); err != nil {
			return ops, err
		}
	}
	return ops, nil
}

// runServing executes a serving workload, untraced (end-to-end metrics)
// or traced (per-layer metrics, attribution table, CPU profile).
func runServing(ctx context.Context, cfg servingConfig, traced bool, out io.Writer) (*report, error) {
	rep := newReport(cfg.workload, traced)
	cat := rules.NewCatalog()
	t0 := time.Now()
	in, err := genServingInputs(cat, cfg.seed, cfg.pop)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	rep.set("bench.input_gen_s", time.Since(t0).Seconds())
	r := &servingRun{cfg: cfg, in: in, rep: rep, out: out, chk: newChecker(in)}
	printInputs(out, cfg, in)

	// Set-up, repeated: half of the repetitions now (the last one becomes
	// the serving node), half after the measured phases, so setup_s
	// samples the host at both ends of the run.
	if err := r.timeSetups(ctx, cat, cfg.setups/2); err != nil {
		return nil, err
	}
	if r.node, err = r.setupOnce(ctx, cat); err != nil {
		return nil, err
	}
	r.chk.addTable(r.node.srv.Cache().Generation(), in.hints)
	r.dial()
	defer func() {
		r.hangUp()
		if r.node != nil {
			r.node.stop()
		}
	}()

	fixedDur, satDur := r.phases()
	first, err := r.warmUp(ctx, 0)
	if err != nil {
		return nil, err
	}
	fpA, err := r.runFixed(ctx, fixedDur, first)
	if err != nil {
		return nil, err
	}
	first += fpA.res.ops
	rep.attempted += int64(fpA.res.ops)
	rep.failed += int64(fpA.res.failed)
	untracedP50 := quantile(fpA.res.rankMs(), 0.5)

	if !traced {
		sat := closedLoop(ctx, satDur, cfg.workers, first, r.op)
		rep.attempted += int64(sat.ops)
		rep.failed += int64(sat.failed)
		r.finalChecks(ctx, fpA, sat.maxInFlight)
		rep.set("peak_rss_mb", peakRSSMiB())
		if err := r.timeSetups(ctx, cat, cfg.setups-len(r.setups)); err != nil {
			return nil, err
		}
		r.endToEnd(fpA, sat)
		return rep, nil
	}

	// Traced run: a second server with the stage tracer attached, the
	// same warm-up and fixed-rate phase, under a CPU profile.
	r.hangUp()
	if err := r.node.stop(); err != nil {
		return nil, err
	}
	r.node = nil
	if err := os.MkdirAll(cfg.artifacts, 0o755); err != nil {
		return nil, err
	}
	traceFile := filepath.Join(cfg.artifacts, cfg.workload+"-server-trace.json")
	tf, err := os.Create(traceFile)
	if err != nil {
		return nil, err
	}
	n, err := startNode(ctx, cat, cfg.seed, filepath.Join(cfg.dir, "wal-traced"), cfg.walMode, in.hints, obs.NewTracer(tf, cfg.traceEvery))
	if err != nil {
		tf.Close()
		return nil, err
	}
	r.node = n
	r.chk.resetTables()
	r.chk.addTable(n.srv.Cache().Generation(), in.hints)
	r.dial()
	warm, err := r.warmUp(ctx, first)
	if err != nil {
		return nil, err
	}
	first += warm
	r.spans = newSpanLog()
	prof, err := os.Create(filepath.Join(cfg.artifacts, cfg.workload+"-cpu.pprof"))
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(prof); err != nil {
		prof.Close()
		return nil, err
	}
	fpB, err := r.runFixed(ctx, fixedDur, first)
	pprof.StopCPUProfile()
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	rep.attempted += int64(fpB.res.ops)
	rep.failed += int64(fpB.res.failed)
	if err := n.tracer.Close(); err != nil {
		return nil, fmt.Errorf("closing server trace: %w", err)
	}
	n.tracer = nil
	reqs, err := readServerTrace(traceFile)
	if err != nil {
		return nil, err
	}
	tracedP50 := quantile(fpB.res.rankMs(), 0.5)
	rep.set("bench.tracing_overhead_frac", (tracedP50-untracedP50)/untracedP50)
	fmt.Fprintf(out, "== tracing overhead: rank_p50 untraced %.4f ms, traced %.4f ms (server tracer 1 in %d, bench spans on)\n",
		untracedP50, tracedP50, cfg.traceEvery)
	r.perLayer(fpA, fpB, reqs)
	r.finalChecks(ctx, fpB, max(fpA.res.maxInFlight, fpB.res.maxInFlight))
	if err := r.spans.writeChrome(filepath.Join(cfg.artifacts, cfg.workload+"-bench-trace.json")); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "== artifacts: %s/%s-{cpu.pprof,server-trace.json,bench-trace.json}\n", cfg.artifacts, cfg.workload)
	return rep, nil
}

// endToEnd sets the untraced run's metrics.
func (r *servingRun) endToEnd(fp fixedPhase, sat phaseResult) {
	rep, res := r.rep, fp.res
	rank, reward := res.rankMs(), res.rewardMs()
	rep.set("rank_p50_ms", quantile(rank, 0.50))
	rep.set("rank_p99_ms", quantile(rank, 0.99))
	rep.set("reward_p50_ms", quantile(reward, 0.50))
	rep.set("reward_p99_ms", quantile(reward, 0.99))
	rep.set("sat_jobs_s", sat.windowRate(time.Second))
	rep.set("setup_s", median(r.setups))
	rep.set("cpu_us_per_job", durMicros(fp.p1.cpu-fp.p0.cpu)/float64(res.jobs))
	// Harness validity, printed alongside.
	rep.set("bench.send_lag_p99_ms", quantile(res.lagMs(), 0.99))
	rep.set("bench.allocs_per_job", float64(fp.p1.mallocs-fp.p0.mallocs)/float64(res.jobs))
	rep.set("bench.gc_cpu_frac", (fp.p1.gcCPU-fp.p0.gcCPU)/(fp.p1.allCPU-fp.p0.allCPU))
	rep.set("serve.hint_hit_frac", hitFrac(fp.stats))
	rep.set("serve.rollover_ms", fp.rolloverMs)
	fmt.Fprintf(r.out, "== phases: fixed-rate %d ops (%d jobs) in %.2fs at %.0f jobs/s offered; saturation %d ops (%d jobs) in %.2fs with %d in flight\n",
		res.ops, res.jobs, res.elapsed.Seconds(), r.cfg.rate, sat.ops, sat.jobs, sat.elapsed.Seconds(), r.cfg.workers)
	fmt.Fprintf(r.out, "== samples: rank %d, reward %d (tail beyond p99: %d rank, %d reward); cpu_us_per_job includes the in-process client\n",
		len(rank), len(reward), len(rank)/100, len(reward)/100)
	fmt.Fprintf(r.out, "== slo: rank p99 %.3f ms (limit 25), reward p99 %.3f ms (limit 100)\n", quantile(rank, 0.99), quantile(reward, 0.99))
	r.rep.check(len(rank)/100 >= r.cfg.minTail, "fixed-rate phase holds %d rank samples beyond p99, need %d", len(rank)/100, r.cfg.minTail)
	r.rep.check(len(reward)/100 >= r.cfg.minTail, "fixed-rate phase holds %d reward samples beyond p99, need %d", len(reward)/100, r.cfg.minTail)
}

func hitFrac(d statsDelta) float64 {
	ranks := d.after.RankRequests - d.before.RankRequests
	if ranks == 0 {
		return 0
	}
	return float64(d.after.HintHits-d.before.HintHits) / float64(ranks)
}

// finalChecks applies the run-wide correctness checks.
func (r *servingRun) finalChecks(ctx context.Context, fp fixedPhase, maxInFlight int64) {
	rep := r.rep
	st, err := r.cl.Stats(ctx)
	rep.check(err == nil, "final stats scrape: %v", err)
	if err == nil {
		q := int64(0)
		if st.Drift != nil {
			q = st.Drift.Quarantines + int64(st.Drift.QuarantinedNow)
			rep.check(st.Drift.Enabled, "drift detector is not enabled")
		}
		rep.check(q == 0, "%d template(s) quarantined", q)
		rep.check(st.Ingest.JournalErrors == 0, "%d journal errors", st.Ingest.JournalErrors)
	}
	rep.check(maxInFlight <= int64(r.cfg.workers), "%d ops in flight, limit %d", maxInFlight, r.cfg.workers)
	hits := hitFrac(fp.stats)
	want := r.in.coverage
	rep.check(hits >= want-0.05 && hits <= want+0.05, "hint hit fraction %.3f, inputs target %.3f", hits, want)
	c := r.chk
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Fprintf(r.out, "== checks: %d hint results, %d bandit results, %d served from the adjacent generation during the rollover swap, max %d ops in flight\n",
		c.hintResults, c.banditResults, c.adjacent, maxInFlight)
	rep.check(c.banditResults > 0 || c.hintResults > 0, "no rank result was checked")
	for _, v := range c.violations {
		rep.check(false, "%s", v)
	}
	if c.dropped > 0 {
		rep.check(false, "%d further violations not listed", c.dropped)
	}
}

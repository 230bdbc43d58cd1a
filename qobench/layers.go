package main

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/bandit"
	"qoadvisor/internal/core"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/par"
)

// replayReps is how many timed repetitions each layer replay makes; the
// replays report medians.
const replayReps = 41

func printInputs(w io.Writer, cfg servingConfig, in *servingInputs) {
	p10, p50, p90 := in.spanQuantiles()
	fmt.Fprintf(w, "== inputs (%s, seed %d)\n", cfg.workload, cfg.seed)
	fmt.Fprintf(w, "  templates      %d hashes over %d featurized base templates, Zipf s=%.2f v=%.0f\n",
		cfg.pop.Templates, len(in.bases), cfg.pop.ZipfS, cfg.pop.ZipfV)
	fmt.Fprintf(w, "  span_bits      p10 %.0f  p50 %.0f  p90 %.0f (generated jobs)\n", p10, p50, p90)
	fmt.Fprintf(w, "  batch          %d jobs per /v2/rank call, %d pre-generated batches\n", cfg.pop.Batch, len(in.batches))
	fmt.Fprintf(w, "  hints          %d installed, traffic-weighted coverage %.3f; rollover to %d at mid-phase\n",
		len(in.hints), in.coverage, len(in.next))
	fmt.Fprintf(w, "  rewards        %s\n", map[bool]string{true: "template-attributed for every job, eventId for bandit decisions", false: "by eventId for every decision"}[cfg.templateRewards])
	fmt.Fprintf(w, "  wal_sync       %s\n", cfg.walMode)
	fmt.Fprintf(w, "  offered_rate   %.0f jobs/s (%.1f ops/s), %d ops in flight at most\n", cfg.rate, cfg.rate/float64(cfg.pop.Batch), cfg.workers)
	fmt.Fprintf(w, "  input_digest   %s\n", in.digest()[:16])
}

// timeReps runs fn reps times and returns the median duration.
func timeReps(reps int, fn func()) time.Duration {
	ds := make([]float64, reps)
	for i := range ds {
		start := time.Now()
		fn()
		ds[i] = float64(time.Since(start))
	}
	return time.Duration(median(ds))
}

// replayJobs concatenates pool batches into one 128-job batch.
func (r *servingRun) replayJobs() ([]api.RankRequest, []*core.JobFeatures) {
	var jobs []api.RankRequest
	for i := 0; len(jobs) < 128; i++ {
		jobs = append(jobs, r.in.batches[i%len(r.in.batches)].Jobs...)
	}
	jobs = jobs[:128]
	feats := make([]*core.JobFeatures, len(jobs))
	for i, j := range jobs {
		f := &core.JobFeatures{RowCount: j.RowCount, BytesRead: j.BytesRead}
		for _, b := range j.Span {
			f.Span.Set(b)
		}
		feats[i] = f
	}
	return jobs, feats
}

// perLayer sets the traced run's per-layer metrics and prints the
// attribution tables. fpA is the untraced fixed-rate phase, fpB the
// traced one; stage and route histograms come from fpB.
func (r *servingRun) perLayer(fpA, fpB fixedPhase, reqs map[string]*serverRequest) {
	rep, d := r.rep, fpB.stats
	res := fpB.res
	jobsPerOp := float64(r.cfg.pop.Batch)

	rep.set("bench.send_lag_p99_ms", quantile(res.lagMs(), 0.99))
	rep.set("bench.allocs_per_job", float64(fpA.p1.mallocs-fpA.p0.mallocs)/float64(fpA.res.jobs))
	rep.set("bench.gc_cpu_frac", (fpA.p1.gcCPU-fpA.p0.gcCPU)/(fpA.p1.allCPU-fpA.p0.allCPU))

	// Server-side histograms (deltas over the traced fixed-rate phase).
	rankRoute, rewardRoute := d.route(api.RouteV2Rank), d.route(api.RouteV2Reward)
	rep.set("serve.rank_route_p50_us", durMicros(rankRoute.Quantile(0.5)))
	rep.set("serve.rank_route_p99_us", durMicros(rankRoute.Quantile(0.99)))
	rep.set("serve.reward_route_p50_us", durMicros(rewardRoute.Quantile(0.5)))
	rep.set("serve.reward_route_p99_us", durMicros(rewardRoute.Quantile(0.99)))
	hintStage, banditStage := d.stage("rank_hint_lookup"), d.stage("rank_bandit")
	rep.set("serve.hint_lookup_ns_p50", float64(hintStage.Quantile(0.5)))
	rep.set("bandit.rank_stage_us_p50", durMicros(banditStage.Quantile(0.5)))
	rep.set("serve.ingest_queue_wait_us_p50", durMicros(d.stage("reward_queue_wait").Quantile(0.5)))
	rep.set("serve.ingest_apply_us_p50", durMicros(d.stage("reward_apply").Quantile(0.5)))
	appendStage, commitStage := d.stage("reward_wal_append"), d.stage("reward_commit_wait")
	rep.set("wal.append_us_p50", durMicros(appendStage.Quantile(0.5)))
	rep.set("wal.commit_wait_us_p50", durMicros(commitStage.Quantile(0.5)))
	rep.set("wal.commit_wait_us_p99", durMicros(commitStage.Quantile(0.99)))
	rep.set("wal.fsync_us_p50", durMicros(d.stage("wal_fsync").Quantile(0.5)))
	appends, bytes, syncs := d.wal()
	rep.set("wal.records_per_fsync", float64(appends)/float64(max(syncs, 1)))
	rep.set("wal.bytes_per_job", float64(bytes)/float64(res.jobs))
	ing0, ing1 := d.before.Ingest, d.after.Ingest
	rep.set("serve.queue_full", float64(ing1.Dropped-ing0.Dropped))
	rep.set("serve.train_runs_per_1k_rewards", 1000*float64(ing1.TrainRuns-ing0.TrainRuns)/float64(max(ing1.Applied-ing0.Applied, 1)))
	rep.set("serve.hint_hit_frac", hitFrac(d))
	rep.set("serve.rollover_ms", fpB.rolloverMs)
	rep.set("bandit.log_size", float64(d.after.BanditLog))
	q := int64(0)
	if d.after.Drift != nil {
		q = d.after.Drift.Quarantines
	}
	rep.set("drift.quarantines", float64(q))

	// Client spans matched to the server's traced requests.
	calls, rewardCalls := r.spans.byRequest("client.rank_call"), r.spans.byRequest("client.reward_call")
	var overhead, unexplained, rewardOverhead []float64
	for id, sr := range reqs {
		switch sr.route {
		case api.RouteV2Rank:
			unexplained = append(unexplained, sr.dur-sr.coveredMicros())
			if c, ok := calls[id]; ok {
				overhead = append(overhead, durMicros(c)-sr.dur)
			}
		case api.RouteV2Reward:
			if c, ok := rewardCalls[id]; ok {
				rewardOverhead = append(rewardOverhead, durMicros(c)-sr.dur)
			}
		}
	}
	rankCall := median(r.spans.micros("client.rank_call"))
	rep.set("client.rank_call_p50_us", rankCall)
	rep.set("client.overhead_us_per_op", median(overhead))
	rep.set("serve.rank_unexplained_us_per_op", median(unexplained))
	r.rep.check(len(overhead) > 0, "no traced rank request matched a client call")

	// Layer replays on the run's own inputs and bodies.
	jobs, feats := r.replayJobs()
	r.replayCodec()
	r.replayPar(jobs)
	ctxs := make([]bandit.Context, len(feats))
	acts := make([][]bandit.Action, len(feats))
	r.spans.timed("replay.core", func() {
		d := timeReps(replayReps, func() {
			for i, f := range feats {
				ctxs[i] = core.ContextFeatures(f)
				acts[i], _ = core.ActionsFor(r.in.cat, f)
			}
		})
		rep.set("core.context_features_us", durMicros(d)/float64(len(feats)))
	})
	r.spans.timed("replay.bandit", func() {
		svc := bandit.New(bandit.DefaultConfig(r.cfg.seed))
		svc.SetMaxLog(1 << 14)
		d := timeReps(replayReps, func() {
			for i := range ctxs {
				svc.Rank(ctxs[i], acts[i])
			}
		})
		rep.set("bandit.rank_call_us", durMicros(d)/float64(len(ctxs)))
	})
	r.spans.timed("replay.drift", func() {
		det := drift.NewDetector(drift.DefaultConfig())
		var hashes []uint64
		var rewards []float64
		for _, op := range r.in.batches {
			for j := range op.Jobs {
				hashes = append(hashes, uint64(op.Jobs[j].TemplateHash))
				rewards = append(rewards, op.Rewards[j])
			}
		}
		const chunk = 4096
		var per []float64
		for start := 0; start+chunk <= len(hashes); start += chunk {
			t := time.Now()
			for i := start; i < start+chunk; i++ {
				det.Observe(hashes[i], rewards[i])
			}
			per = append(per, float64(time.Since(t))/chunk)
		}
		rep.set("drift.observe_ns", median(per))
	})

	// Attribution tables.
	v := rep.values
	hits := v["serve.hint_hit_frac"] * jobsPerOp
	rankRows := []attrRow{
		{layer: "client.overhead_us_per_op", per: v["client.overhead_us_per_op"], count: 1, note: "client encode/decode + HTTP"},
		{layer: "api.rank_decode_us_per_job", per: v["api.rank_decode_us_per_job"], count: jobsPerOp},
		{layer: "api.rank_encode_us_per_job", per: v["api.rank_encode_us_per_job"], count: jobsPerOp},
		{layer: "serve.hint_lookup_ns_p50", per: v["serve.hint_lookup_ns_p50"] / 1000, count: jobsPerOp / v["par.for_speedup"], note: "every job looks up; lane work / par.for_speedup"},
		{layer: "bandit.rank_stage_us_p50", per: v["bandit.rank_stage_us_p50"], count: (jobsPerOp - hits) / v["par.for_speedup"], note: "hint misses; lane work / par.for_speedup"},
	}
	printAttribution(r.out, fmt.Sprintf("%s rank op (client.rank_call_p50_us, %d jobs)", r.cfg.workload, r.cfg.pop.Batch), rankCall, rankRows)
	events := 0.0
	for _, evs := range r.sampleRews {
		events += float64(len(evs))
	}
	events /= float64(max(len(r.sampleRews), 1))
	rewardRows := []attrRow{
		{layer: "client reward overhead (matched)", per: median(rewardOverhead), count: 1, note: "client encode/decode + HTTP"},
		{layer: "api.reward_decode_us_per_event", per: v["api.reward_decode_us_per_event"], count: events},
		{layer: "wal.append_us_p50", per: v["wal.append_us_p50"], count: 1},
		{layer: "wal.commit_wait_us_p50", per: v["wal.commit_wait_us_p50"], count: 1, note: "waits on " + r.cfg.walMode.String() + " group fsync"},
	}
	if r.cfg.templateRewards {
		rewardRows = append(rewardRows, attrRow{layer: "drift.observe_ns", per: v["drift.observe_ns"] / 1000, count: events})
	}
	printAttribution(r.out, fmt.Sprintf("%s reward op (client.reward_call_p50_us, %.1f events)", r.cfg.workload, events),
		median(r.spans.micros("client.reward_call")), rewardRows)
}

// replayCodec times encoding/json on the run's own bodies, as the
// server decodes requests and encodes responses.
func (r *servingRun) replayCodec() {
	rep := r.rep
	var rankReqs []api.BatchRankRequest
	for i := 0; i < 32 && i < len(r.in.batches); i++ {
		rankReqs = append(rankReqs, api.BatchRankRequest{Jobs: r.in.batches[i].Jobs})
	}
	var rewReqs []api.BatchRewardRequest
	for _, evs := range r.sampleRews {
		rewReqs = append(rewReqs, api.BatchRewardRequest{Events: evs})
	}
	reqBodies, rewBodies := encodeBodies(rankReqs), encodeBodies(rewReqs)
	jobs, events := 0, 0
	for _, q := range rankReqs {
		jobs += len(q.Jobs)
	}
	for _, q := range rewReqs {
		events += len(q.Events)
	}
	r.spans.timed("replay.api", func() {
		d := timeReps(replayReps, func() {
			for _, b := range reqBodies {
				var req api.BatchRankRequest
				json.Unmarshal(b, &req)
			}
		})
		rep.set("api.rank_decode_us_per_job", durMicros(d)/float64(jobs))
		d = timeReps(replayReps, func() {
			for _, resp := range r.sampleResps {
				json.Marshal(resp)
			}
		})
		results := 0
		for _, resp := range r.sampleResps {
			results += len(resp.Results)
		}
		rep.set("api.rank_encode_us_per_job", durMicros(d)/float64(max(results, 1)))
		d = timeReps(replayReps, func() {
			for _, b := range rewBodies {
				var req api.BatchRewardRequest
				json.Unmarshal(b, &req)
			}
		})
		rep.set("api.reward_decode_us_per_event", durMicros(d)/float64(max(events, 1)))
	})
}

// replayPar times one 128-job batch through Server.Rank sequentially and
// through par.For at the default worker count, interleaved.
func (r *servingRun) replayPar(jobs []api.RankRequest) {
	srv := r.node.srv
	var seq, fan []float64
	r.spans.timed("replay.par", func() {
		for k := 0; k < replayReps; k++ {
			t := time.Now()
			for i := range jobs {
				srv.Rank(jobs[i])
			}
			seq = append(seq, float64(time.Since(t)))
			t = time.Now()
			par.For(len(jobs), 0, func(i int) { srv.Rank(jobs[i]) })
			fan = append(fan, float64(time.Since(t)))
		}
	})
	r.rep.set("par.for_speedup", median(seq)/median(fan))
	fmt.Fprintf(r.out, "== par: sequential %.1f us, par.For %.1f us per %d-job batch\n",
		median(seq)/1e3, median(fan)/1e3, len(jobs))
}

// encodeBodies marshals a few of the run's own request bodies.
func encodeBodies[T any](xs []T) [][]byte {
	var out [][]byte
	for _, x := range xs {
		b, err := json.Marshal(x)
		if err == nil {
			out = append(out, b)
		}
	}
	return out
}

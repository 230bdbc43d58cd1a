package main

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"qoadvisor/internal/load"
)

// opResult is what one op reports back to the load generator.
type opResult struct {
	jobs      int           // jobs ranked
	rankLat   time.Duration // scheduled send → rank reply
	rewardLat time.Duration // reward send → acknowledgement (0: no reward call)
	failed    bool
}

// opFunc runs op number i, due at sched.
type opFunc func(ctx context.Context, i int, sched time.Time) opResult

// sample is one op as the generator saw it.
type sample struct {
	due, done time.Duration // offsets from the phase start
	lag       time.Duration // how late the op started against its schedule
	opResult
}

// phaseResult is one load phase: every op's sample, in order of due time.
type phaseResult struct {
	samples     []sample
	ops, failed int
	jobs        int64
	elapsed     time.Duration
	maxInFlight int64
}

// gauge tracks ops in flight and the highest count seen.
type gauge struct{ cur, max atomic.Int64 }

func (g *gauge) enter() {
	n := g.cur.Add(1)
	for {
		m := g.max.Load()
		if n <= m || g.max.CompareAndSwap(m, n) {
			return
		}
	}
}

func (g *gauge) leave() { g.cur.Add(-1) }

func newPhaseResult(lanes [][]sample, elapsed time.Duration, g *gauge) phaseResult {
	p := phaseResult{elapsed: elapsed, maxInFlight: g.max.Load()}
	for _, l := range lanes {
		p.samples = append(p.samples, l...)
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].due < p.samples[j].due })
	for _, s := range p.samples {
		p.ops++
		p.jobs += int64(s.jobs)
		if s.failed {
			p.failed++
		}
	}
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rankMs, rewardMs and lagMs list the successful ops' latencies.
func (p phaseResult) rankMs() []float64 {
	return p.collect(func(s sample) (float64, bool) { return ms(s.rankLat), !s.failed })
}

func (p phaseResult) rewardMs() []float64 {
	return p.collect(func(s sample) (float64, bool) { return ms(s.rewardLat), !s.failed && s.rewardLat > 0 })
}

func (p phaseResult) lagMs() []float64 {
	return p.collect(func(s sample) (float64, bool) { return ms(s.lag), true })
}

func (p phaseResult) collect(f func(sample) (float64, bool)) []float64 {
	out := make([]float64, 0, len(p.samples))
	for _, s := range p.samples {
		if v, ok := f(s); ok {
			out = append(out, v)
		}
	}
	return out
}

// windowRate is the median over consecutive windows of the jobs
// completed per second: a brief stall of the host moves one window, not
// the result.
func (p phaseResult) windowRate(window time.Duration) float64 {
	n := int(p.elapsed / window)
	if n < 1 {
		return float64(p.jobs) / p.elapsed.Seconds()
	}
	jobs := make([]float64, n)
	for _, s := range p.samples {
		if w := int(s.done / window); w < n && !s.failed {
			jobs[w] += float64(s.jobs)
		}
	}
	for i := range jobs {
		jobs[i] /= window.Seconds()
	}
	return median(jobs)
}

// openLoop offers ops at a fixed rate for dur, open loop: every op's
// send time is fixed in advance, at most `workers` ops are in flight, and
// an op that finds every worker busy starts late — its latency still
// counts from the scheduled instant, and the lateness is recorded. A
// stalled target therefore shows up as latency and send lag, never as
// fewer ops. Ops are numbered from first.
func openLoop(ctx context.Context, opsPerSec float64, dur time.Duration, workers, first int, op opFunc) phaseResult {
	sched := load.Phase{Shape: load.ShapeConstant, Duration: dur, Low: opsPerSec}.Schedule()
	next := make(chan int, len(sched)) // sized to the schedule: filled once, never blocks
	for i := range sched {
		next <- i
	}
	close(next)
	var g gauge
	lanes := make([][]sample, workers)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane *[]sample) {
			defer wg.Done()
			for i := range next {
				due := start.Add(sched[i])
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				if ctx.Err() != nil {
					return
				}
				g.enter()
				lag := time.Since(due)
				r := op(ctx, first+i, due)
				g.leave()
				*lane = append(*lane, sample{due: sched[i], done: time.Since(start), lag: lag, opResult: r})
			}
		}(&lanes[w])
	}
	wg.Wait()
	return newPhaseResult(lanes, time.Since(start), &g)
}

// closedLoop keeps exactly `workers` ops in flight for dur: each worker
// sends its next op as soon as the previous one completes.
func closedLoop(ctx context.Context, dur time.Duration, workers, first int, op opFunc) phaseResult {
	var seq atomic.Int64
	var g gauge
	lanes := make([][]sample, workers)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(lane *[]sample) {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(seq.Add(1)) - 1
				g.enter()
				sent := time.Now()
				r := op(ctx, first+i, sent)
				g.leave()
				*lane = append(*lane, sample{due: sent.Sub(start), done: time.Since(start), opResult: r})
			}
		}(&lanes[w])
	}
	wg.Wait()
	return newPhaseResult(lanes, time.Since(start), &g)
}

package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"qoadvisor/internal/api"
	"qoadvisor/internal/core"
	"qoadvisor/internal/exec"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/workload"
)

// population describes the generated serving traffic: the template
// population, its skew, and how ops are cut from it.
type population struct {
	BaseTemplates int     // templates generated and featurized with real spans
	Templates     int     // template hashes in the Zipf mix; each borrows a base template
	ZipfS, ZipfV  float64 // P(rank k) ∝ (ZipfV + k)^-ZipfS
	Batch         int     // jobs per /v2/rank call
	HintCoverage  float64 // traffic-weighted share of jobs whose template has a hint
	Pool          int     // distinct pre-generated op batches, cycled through
	RewardSigma   float64 // per-event reward noise around the template's mean
}

// baseTemplate is one generated template with its real features: the
// span core.FeatureGen computed, and the aggregated input-stream sizes.
type baseTemplate struct {
	ID    string
	Span  []int
	Rows  float64
	Bytes float64
	// hintable lists the span bits a hint may flip (required rules
	// cannot be flipped); flips is every flip the bandit may return.
	hintable []int
	flips    map[string]bool
}

type template struct {
	Hash   uint64
	Base   int
	Weight float64 // traffic share
	Mean   float64 // stationary reward mean
}

// opInput is one pre-generated op: a rank batch and the reward each
// job will earn.
type opInput struct {
	Jobs    []api.RankRequest
	Tmpl    []int // template index per job
	Rewards []float64
}

// servingInputs is everything a serving run sends, derived from the seed.
type servingInputs struct {
	cat       *rules.Catalog
	bases     []baseTemplate
	templates []template
	batches   []opInput
	// hints is the day-1 table installed at set-up; next is the day-2
	// table installed mid-run (the rollover).
	hints, next []sis.Hint
	coverage    float64 // traffic-weighted share of templates with a day-1 hint
}

// genBaseTemplates runs the offline pipeline's Feature Generation over a
// seeded set of generated templates: one simulated production day
// provides the view rows, core.FeatureGen the real spans.
func genBaseTemplates(cat *rules.Catalog, seed int64, n int) ([]baseTemplate, error) {
	gen, err := workload.New(workload.Config{Seed: seed, NumTemplates: n, MaxDailyInstances: 1})
	if err != nil {
		return nil, err
	}
	jobs, err := gen.JobsForDay(1)
	if err != nil {
		return nil, err
	}
	prod := core.NewProduction(cat, sis.NewStore(cat), exec.DefaultCluster(seed), seed)
	_, view, err := prod.RunDay(1, jobs)
	if err != nil {
		return nil, err
	}
	feats, err := core.NewFeatureGen(cat).Run(jobs, view)
	if err != nil {
		return nil, err
	}
	seen := map[uint64]bool{}
	var out []baseTemplate
	for _, f := range feats {
		if seen[f.Job.Template.Hash] {
			continue
		}
		seen[f.Job.Template.Hash] = true
		b := baseTemplate{ID: f.Job.Template.ID, Span: f.Span.Bits(), Rows: f.RowCount, Bytes: f.BytesRead,
			flips: map[string]bool{}}
		for _, bit := range b.Span {
			b.flips[cat.FlipFor(bit).String()] = true
			if cat.Rule(bit).Category != rules.Required {
				b.hintable = append(b.hintable, bit)
			}
		}
		out = append(out, b)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no generated template has a non-empty span")
	}
	return out, nil
}

// genServingInputs derives a serving workload's complete input from the
// seed. The same seed yields byte-identical inputs (see digest).
func genServingInputs(cat *rules.Catalog, seed int64, pop population) (*servingInputs, error) {
	bases, err := genBaseTemplates(cat, seed, pop.BaseTemplates)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	in := &servingInputs{cat: cat, bases: bases}

	// Template population: distinct hashes, Zipf–Mandelbrot weights.
	used := map[uint64]bool{}
	total := 0.0
	for k := 0; k < pop.Templates; k++ {
		h := rng.Uint64()
		for used[h] {
			h = rng.Uint64()
		}
		used[h] = true
		w := math.Pow(pop.ZipfV+float64(k), -pop.ZipfS)
		total += w
		in.templates = append(in.templates, template{Hash: h, Weight: w, Mean: 0.5 + rng.Float64()})
	}
	for k := range in.templates {
		in.templates[k].Weight /= total
	}
	// Each hash borrows a base template such that every base carries about
	// the same share of traffic (heaviest hash first, onto the least
	// loaded base; the seeded base order breaks ties): the traffic then
	// sees the featurized population's span distribution, not the spans
	// of whichever few bases the heaviest hashes happened to draw.
	load := make([]float64, len(bases))
	order := rng.Perm(len(bases))
	for k := range in.templates {
		best := order[0]
		for _, b := range order[1:] {
			if load[b] < load[best] {
				best = b
			}
		}
		in.templates[k].Base = best
		load[best] += in.templates[k].Weight
	}

	// Hint tables: leave hashes unhinted, in random order, while their
	// traffic fits in 1-coverage of their base template's traffic — so
	// the bandit path sees the same span distribution as the hint path —
	// then top up to 1-coverage overall. Hint the rest with a flip of a
	// rule in the template's span; the day-2 table re-draws half the flips.
	if pop.HintCoverage > 0 {
		budget := 1 - pop.HintCoverage
		free := make([]bool, len(in.templates))
		unhintedOf := make([]float64, len(bases))
		unhinted := 0.0
		perm := rng.Perm(len(in.templates))
		for _, k := range perm {
			t := in.templates[k]
			if unhintedOf[t.Base]+t.Weight <= budget*load[t.Base] || len(bases[t.Base].hintable) == 0 {
				free[k] = true
				unhintedOf[t.Base] += t.Weight
				unhinted += t.Weight
			}
		}
		for _, k := range perm {
			if t := in.templates[k]; !free[k] && unhinted+t.Weight <= budget {
				free[k] = true
				unhinted += t.Weight
			}
		}
		for _, k := range perm {
			if free[k] {
				continue
			}
			t := in.templates[k]
			b := bases[t.Base]
			bit := b.hintable[rng.Intn(len(b.hintable))]
			nextBit := bit
			if rng.Intn(2) == 0 {
				nextBit = b.hintable[rng.Intn(len(b.hintable))]
			}
			in.hints = append(in.hints, sis.Hint{TemplateHash: t.Hash, TemplateID: b.ID, Flip: cat.FlipFor(bit), Day: 1})
			in.next = append(in.next, sis.Hint{TemplateHash: t.Hash, TemplateID: b.ID, Flip: cat.FlipFor(nextBit), Day: 2})
		}
		in.coverage = 1 - unhinted
		sort.Slice(in.hints, func(i, j int) bool { return in.hints[i].TemplateHash < in.hints[j].TemplateHash })
		sort.Slice(in.next, func(i, j int) bool { return in.next[i].TemplateHash < in.next[j].TemplateHash })
	}

	// Op batches: jobs drawn from the Zipf mix, rewards from each
	// template's stationary distribution.
	zipf := rand.NewZipf(rng, pop.ZipfS, pop.ZipfV, uint64(pop.Templates-1))
	for i := 0; i < pop.Pool; i++ {
		op := opInput{
			Jobs:    make([]api.RankRequest, pop.Batch),
			Tmpl:    make([]int, pop.Batch),
			Rewards: make([]float64, pop.Batch),
		}
		for j := range op.Jobs {
			k := int(zipf.Uint64())
			t := in.templates[k]
			b := bases[t.Base]
			op.Jobs[j] = api.RankRequest{TemplateHash: api.TemplateHash(t.Hash), Span: b.Span, RowCount: b.Rows, BytesRead: b.Bytes}
			op.Tmpl[j] = k
			op.Rewards[j] = t.Mean + pop.RewardSigma*rng.NormFloat64()
		}
		in.batches = append(in.batches, op)
	}
	return in, nil
}

// digest fingerprints the generated inputs: everything the program
// under test will receive.
func (in *servingInputs) digest() string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, op := range in.batches {
		enc.Encode(op.Jobs)
		for _, r := range op.Rewards {
			binary.Write(h, binary.LittleEndian, math.Float64bits(r))
		}
	}
	enc.Encode(in.hints)
	enc.Encode(in.next)
	return hex.EncodeToString(h.Sum(nil))
}

// spanQuantiles reports the p10/p50/p90 span size over the generated jobs.
func (in *servingInputs) spanQuantiles() (p10, p50, p90 float64) {
	var sizes []float64
	for _, op := range in.batches {
		for _, j := range op.Jobs {
			sizes = append(sizes, float64(len(j.Span)))
		}
	}
	return quantile(sizes, 0.10), quantile(sizes, 0.50), quantile(sizes, 0.90)
}

// tableOf indexes a hint table by template hash → flip string.
func tableOf(hints []sis.Hint) map[uint64]string {
	m := make(map[uint64]string, len(hints))
	for _, h := range hints {
		m[h.TemplateHash] = h.Flip.String()
	}
	return m
}

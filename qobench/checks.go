package main

import (
	"fmt"
	"sync"
	"time"

	"qoadvisor/internal/api"
	"qoadvisor/internal/sis"
)

// maxListed bounds how many violations a run lists one by one.
const maxListed = 10

// checker verifies every rank result of a serving run against the
// inputs: hint results must carry the flip installed for their template
// at the generation they report, bandit results must be well-formed
// decisions over the job's own span.
type checker struct {
	in *servingInputs

	mu     sync.Mutex
	tables map[uint64]map[uint64]string // generation → template hash → flip
	// The rollover window. The hint cache swaps shard by shard and
	// documents that readers may see a momentary mix of two adjacent
	// generations; results produced while a swap was in progress may
	// therefore carry an adjacent generation's flip.
	rollStart, rollEnd time.Time

	hintResults, banditResults, adjacent int64
	violations                           []string
	dropped                              int
}

func newChecker(in *servingInputs) *checker {
	return &checker{in: in, tables: map[uint64]map[uint64]string{}}
}

func (c *checker) addTable(gen uint64, hints []sis.Hint) {
	c.mu.Lock()
	c.tables[gen] = tableOf(hints)
	c.mu.Unlock()
}

// resetTables forgets the tables of a stopped server.
func (c *checker) resetTables() {
	c.mu.Lock()
	c.tables = map[uint64]map[uint64]string{}
	c.rollStart, c.rollEnd = time.Time{}, time.Time{}
	c.mu.Unlock()
}

func (c *checker) rolloverBegin(t time.Time) {
	c.mu.Lock()
	c.rollStart, c.rollEnd = t, time.Time{}
	c.mu.Unlock()
}

func (c *checker) rolloverEnd(t time.Time) {
	c.mu.Lock()
	c.rollEnd = t
	c.mu.Unlock()
}

func (c *checker) violate(format string, args ...any) {
	c.mu.Lock()
	c.violateLocked(format, args...)
	c.mu.Unlock()
}

func (c *checker) violateLocked(format string, args ...any) {
	if len(c.violations) < maxListed {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	} else {
		c.dropped++
	}
}

// duringRollover reports whether [sent, recv] overlaps a rollover swap
// (one still in progress counts as overlapping).
func (c *checker) duringRollover(sent, recv time.Time) bool {
	if c.rollStart.IsZero() {
		return false
	}
	return recv.After(c.rollStart) && (c.rollEnd.IsZero() || sent.Before(c.rollEnd))
}

// rank checks one batch's results; false when any job failed a check.
func (c *checker) rank(op *opInput, resp api.BatchRankResponse, sent, recv time.Time) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(resp.Results) != len(op.Jobs) {
		c.violateLocked("rank batch: %d results for %d jobs", len(resp.Results), len(op.Jobs))
		return false
	}
	ok := true
	swap := c.duringRollover(sent, recv)
	for i, res := range resp.Results {
		t := c.in.templates[op.Tmpl[i]]
		if res.Error != nil {
			c.violateLocked("job %016x: rank error %s", t.Hash, res.Error.Error())
			ok = false
			continue
		}
		want, hinted := c.tables[res.Generation][t.Hash]
		switch res.Source {
		case api.SourceHint:
			c.hintResults++
			switch {
			case hinted && res.Flip == want:
			case swap && c.adjacentFlip(res.Generation, t.Hash, res.Flip):
				c.adjacent++
			default:
				c.violateLocked("job %016x: hint flip %q at generation %d, installed %q (hinted=%v)", t.Hash, res.Flip, res.Generation, want, hinted)
				ok = false
			}
		case api.SourceBandit:
			c.banditResults++
			b := c.in.bases[t.Base]
			switch {
			case res.EventID == "":
				c.violateLocked("job %016x: bandit result without eventId", t.Hash)
				ok = false
			case !(res.Prob > 0 && res.Prob <= 1):
				c.violateLocked("job %016x: bandit prob %v outside (0,1]", t.Hash, res.Prob)
				ok = false
			case res.NoOp && res.Flip != "":
				c.violateLocked("job %016x: no-op decision carries flip %q", t.Hash, res.Flip)
				ok = false
			case !res.NoOp && !b.flips[res.Flip]:
				c.violateLocked("job %016x: bandit flip %q is not a rule in the job's span", t.Hash, res.Flip)
				ok = false
			case hinted && !(swap && c.unhintedAdjacent(res.Generation, t.Hash)):
				c.violateLocked("job %016x: bandit path although generation %d hints the template", t.Hash, res.Generation)
				ok = false
			}
		default:
			c.violateLocked("job %016x: unknown source %q", t.Hash, res.Source)
			ok = false
		}
	}
	return ok
}

// adjacentFlip reports whether flip is the one installed for the
// template at a generation next to gen.
func (c *checker) adjacentFlip(gen, hash uint64, flip string) bool {
	for _, g := range []uint64{gen - 1, gen + 1} {
		if f, ok := c.tables[g][hash]; ok && f == flip {
			return true
		}
	}
	return false
}

// unhintedAdjacent reports whether a generation next to gen has no hint
// for the template.
func (c *checker) unhintedAdjacent(gen, hash uint64) bool {
	for _, g := range []uint64{gen - 1, gen + 1} {
		if tbl, ok := c.tables[g]; ok {
			if _, hinted := tbl[hash]; !hinted {
				return true
			}
		}
	}
	return false
}

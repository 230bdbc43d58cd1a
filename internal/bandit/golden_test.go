package bandit_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"qoadvisor/internal/bandit"
	"qoadvisor/internal/core"
	"qoadvisor/internal/rules"
)

// bandit200DecisionsSHA256 pins the decisions and final weights of the
// fixed-seed script in TestBanditGoldenDecisionDigest. It was captured
// before the masked pair indexing and allocation-free SGD updates went
// in; any change to the kernel's arithmetic (index reduction, summation
// order, update rule) changes it.
const bandit200DecisionsSHA256 = "d1a5e8124bf7a8a1217ef8950a8e526349cad582b718a1de7c4201e0793d387d"

// TestBanditGoldenDecisionDigest runs ~200 ranks over pipeline-shaped
// jobs (core.ContextFeatures / core.ActionsFor on random spans of 1–40
// rules) with rewards and periodic training, and hashes every chosen
// index, propensity and score plus the final snapshot bytes. The digest
// proves decisions and weights are bit-identical across kernel changes.
func TestBanditGoldenDecisionDigest(t *testing.T) {
	cat := rules.NewCatalog()
	rng := rand.New(rand.NewSource(2024))
	svc := bandit.New(bandit.DefaultConfig(7))
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	record := func(r bandit.Ranked) {
		put(uint64(r.Chosen), math.Float64bits(r.Prob), uint64(len(r.Scores)))
		for _, sc := range r.Scores {
			put(math.Float64bits(sc))
		}
	}
	for i := 0; i < 200; i++ {
		var f core.JobFeatures
		for n := 1 + rng.Intn(40); n > 0; n-- {
			f.Span.Set(rng.Intn(rules.NumRules))
		}
		f.RowCount = math.Pow(10, float64(rng.Intn(10)))
		f.BytesRead = math.Pow(10, float64(rng.Intn(13)))
		ctx := core.ContextFeatures(&f)
		actions, _ := core.ActionsFor(cat, &f)

		rank := svc.Rank
		if i%10 == 3 {
			rank = svc.RankUniform
		}
		r, err := rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		record(r)
		if i%7 == 5 {
			g, err := svc.RankGreedy(ctx, actions)
			if err != nil {
				t.Fatal(err)
			}
			record(g)
		}
		reward := rng.Float64()*2 - 0.5
		if err := svc.Reward(r.EventID, reward); err != nil {
			t.Fatal(err)
		}
		if i%16 == 15 {
			put(uint64(svc.Train()))
		}
	}
	put(uint64(svc.Train()))
	var snap bytes.Buffer
	if err := svc.Save(&snap); err != nil {
		t.Fatal(err)
	}
	h.Write(snap.Bytes())
	if got := hex.EncodeToString(h.Sum(nil)); got != bandit200DecisionsSHA256 {
		t.Errorf("decision digest = %s, want %s (snapshot %d bytes)", got, bandit200DecisionsSHA256, snap.Len())
	}
}

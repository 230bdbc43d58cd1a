package bandit

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// The reference kernel below is the plain formula the fast kernel must
// reproduce bit for bit: a 64-bit modulo per pair and one running sum
// in the shared enumeration order. Comparisons are ==, never a
// tolerance — the fast path may only change how an index is reduced,
// not which weight it names or the order the weights are added.

func refPairIndex(c, a uint64, dim int) int {
	return int(Mix64(c^(a*MixGamma)) % uint64(dim))
}

func refIndexes(ctxIDs, actIDs []uint64, dim int) []int {
	var idx []int
	for _, c := range append([]uint64{ctxBiasID}, ctxIDs...) {
		for _, a := range append([]uint64{actBiasID}, actIDs...) {
			idx = append(idx, refPairIndex(c, a, dim))
		}
	}
	return idx
}

func refScore(w []float64, ctxIDs, actIDs []uint64) float64 {
	idx := refIndexes(ctxIDs, actIDs, len(w))
	sum := w[idx[0]]
	for _, i := range idx[1:] {
		sum += w[i]
	}
	return sum
}

// kernelDims covers both reduction paths: powers of two (mask) and odd
// dims an old snapshot may carry (modulo).
var kernelDims = []int{1 << 10, 1 << 18, 1000, 4099}

// randomWeights fills every weight with a distinct non-zero value, so a
// wrong index or a reordered sum shows up in the score.
func randomWeights(s *Service, rng *rand.Rand) {
	for i := range s.w {
		s.w[i] = rng.NormFloat64() + 1e-3*float64(i%7+1)
	}
}

func randomIDs(rng *rand.Rand, n int) []uint64 {
	if n == 0 {
		return nil
	}
	ids := make([]uint64, n)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	return ids
}

func TestPairIndexMatchesModuloReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	edge := []uint64{0, 1, ctxBiasID, actBiasID, 1<<63 - 1, 1 << 63, ^uint64(0)}
	for _, dim := range kernelDims {
		for i := 0; i < 20000; i++ {
			c, a := rng.Uint64(), rng.Uint64()
			if i < len(edge)*len(edge) {
				c, a = edge[i/len(edge)], edge[i%len(edge)]
			}
			if got, want := int(pairIndex(c, a*MixGamma, uint64(dim))), refPairIndex(c, a, dim); got != want {
				t.Fatalf("dim=%d pairIndex(%#x, %#x) = %d, want %d", dim, c, a, got, want)
			}
		}
	}
}

func TestScoreKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, dim := range kernelDims {
		s := New(Config{Dim: dim, Seed: 1})
		randomWeights(s, rng)
		for trial := 0; trial < 40; trial++ {
			// Context sizes span the served range (a 19-bit span
			// featurizes to 122 IDs); action sizes cross the 8-ID stack
			// buffer into the heap fallback.
			ctxIDs := randomIDs(rng, rng.Intn(160))
			actions := make([]Action, 1+rng.Intn(24))
			for i := range actions {
				actions[i] = Action{IDs: randomIDs(rng, rng.Intn(13))}
			}
			for i, a := range actions {
				want := refScore(s.w, ctxIDs, a.IDs)
				if got := s.scoreIDs(ctxIDs, a.IDs); got != want {
					t.Fatalf("dim=%d trial=%d action %d: scoreIDs = %v, want %v", dim, trial, i, got, want)
				}
				wantIdx := refIndexes(ctxIDs, a.IDs, dim)
				gotIdx := s.appendFeatureIndexes([]int{-1}, ctxIDs, a.IDs)
				if len(gotIdx) != len(wantIdx)+1 || gotIdx[0] != -1 {
					t.Fatalf("dim=%d: appendFeatureIndexes appended %d indexes to a 1-element dst, want %d", dim, len(gotIdx)-1, len(wantIdx))
				}
				for j := range wantIdx {
					if gotIdx[j+1] != wantIdx[j] {
						t.Fatalf("dim=%d: appendFeatureIndexes[%d] = %d, want %d", dim, j, gotIdx[j+1], wantIdx[j])
					}
				}
			}

			scores, best := s.scoreActions(ctxIDs, actions)
			wantBest := 0
			for i, a := range actions {
				if want := refScore(s.w, ctxIDs, a.IDs); scores[i] != want {
					t.Fatalf("dim=%d: scoreActions[%d] = %v, want %v", dim, i, scores[i], want)
				}
				if scores[i] > scores[wantBest] {
					wantBest = i
				}
			}
			if best != wantBest {
				t.Fatalf("dim=%d: scoreActions best = %d, want %d", dim, best, wantBest)
			}
			greedy, err := s.RankGreedy(Context{IDs: ctxIDs}, actions)
			if err != nil {
				t.Fatal(err)
			}
			if greedy.Chosen != wantBest {
				t.Fatalf("dim=%d: RankGreedy chose %d, want %d", dim, greedy.Chosen, wantBest)
			}
		}
	}
}

// TestLoadOddDimSnapshotRoundTrip keeps the modulo branch covered end to
// end: a v3 snapshot with dim=1000 (not a power of two) loads, ranks,
// accepts rewards for a restored and a fresh event, trains to exactly
// the weights the reference SGD computes, and resaves byte-stably.
func TestLoadOddDimSnapshotRoundTrip(t *testing.T) {
	const dim = 1000
	rng := rand.New(rand.NewSource(13))
	restoredCtx, restoredAct := randomIDs(rng, 30), randomIDs(rng, 4)
	var snap strings.Builder
	fmt.Fprintf(&snap, "qoadvisor-bandit v3 dim=%d epsilon=0.1 lr=0.05 clip=50 wal=7\n", dim)
	for i := 3; i < dim; i += 17 {
		fmt.Fprintf(&snap, "%d %v\n", i, rng.NormFloat64())
	}
	fmt.Fprintf(&snap, "ev evold-00000001 0.25 0 0 %s %s\n", formatIDs(restoredCtx), formatIDs(restoredAct))

	svc, err := Load(strings.NewReader(snap.String()), 5)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if svc.cfg.Dim != dim || len(svc.w) != dim {
		t.Fatalf("loaded dim = %d (len(w)=%d), want %d", svc.cfg.Dim, len(svc.w), dim)
	}
	ref := append([]float64(nil), svc.w...)

	ctxIDs := randomIDs(rng, 122)
	actions := make([]Action, 20)
	for i := range actions {
		actions[i] = Action{IDs: randomIDs(rng, 4)}
	}
	r, err := svc.Rank(Context{IDs: ctxIDs}, actions)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range actions {
		if want := refScore(ref, ctxIDs, a.IDs); r.Scores[i] != want {
			t.Fatalf("Rank score[%d] = %v, want %v", i, r.Scores[i], want)
		}
	}
	if err := svc.Reward("evold-00000001", 1.5); err != nil {
		t.Fatal(err)
	}
	if err := svc.Reward(r.EventID, -0.5); err != nil {
		t.Fatal(err)
	}
	if n := svc.Train(); n != 2 {
		t.Fatalf("Train consumed %d events, want 2", n)
	}

	// Reference SGD: TrainEpochs passes over the pending examples in
	// reward order, one running prediction sum per example.
	examples := []struct {
		ctx, act     []uint64
		prob, reward float64
	}{
		{restoredCtx, restoredAct, 0.25, 1.5},
		{ctxIDs, actions[r.Chosen].IDs, r.Prob, -0.5},
	}
	for epoch := 0; epoch < svc.cfg.TrainEpochs; epoch++ {
		for _, ex := range examples {
			idx := refIndexes(ex.ctx, ex.act, dim)
			pred := 0.0
			for _, i := range idx {
				pred += ref[i]
			}
			weight := 1 / ex.prob
			if weight > svc.cfg.MaxIPSWeight {
				weight = svc.cfg.MaxIPSWeight
			}
			grad := svc.cfg.LearningRate * weight * (ex.reward - pred) / float64(len(idx))
			for _, i := range idx {
				ref[i] += grad
			}
		}
	}
	for i := range ref {
		if svc.w[i] != ref[i] {
			t.Fatalf("trained w[%d] = %v, want %v", i, svc.w[i], ref[i])
		}
	}

	var out bytes.Buffer
	if err := svc.Save(&out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("qoadvisor-bandit v3 dim=%d ", dim); !strings.HasPrefix(out.String(), want) {
		t.Fatalf("resaved header %q, want prefix %q", strings.SplitN(out.String(), "\n", 2)[0], want)
	}
	again, err := Load(bytes.NewReader(out.Bytes()), 5)
	if err != nil {
		t.Fatal(err)
	}
	var out2 bytes.Buffer
	if err := again.Save(&out2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), out2.Bytes()) {
		t.Error("save(load(save(x))) != save(x) at dim=1000")
	}
}

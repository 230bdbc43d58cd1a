package bandit

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// trainedService builds a service with learned, non-trivial weights.
func trainedService(t *testing.T) (*Service, Context, []Action) {
	t.Helper()
	svc := New(Config{Dim: 1 << 12, Epsilon: 0.2, LearningRate: 0.1, MaxIPSWeight: 20, Seed: 3})
	ctx := Context{Features: []string{"span:3", "span:17", "rows:5"}}
	actions := []Action{
		{ID: "noop", Features: []string{"act:noop"}},
		{ID: "+R010", Features: []string{"rule:10", "cat:off-by-default"}},
		{ID: "-R042", Features: []string{"rule:42", "cat:on-by-default"}},
	}
	for i := 0; i < 40; i++ {
		ranked, err := svc.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		if err := svc.Reward(ranked.EventID, 1.0+0.3*float64(ranked.Chosen)); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			svc.Train()
		}
	}
	svc.Train()
	return svc, ctx, actions
}

// TestSaveLoadPreservesScoresAndPropensities complements the basic
// round-trip test in bandit_test.go: beyond bit-identical scores, the
// restored config must reproduce the original's rank propensities, and a
// resave must be byte-identical.
func TestSaveLoadPreservesScoresAndPropensities(t *testing.T) {
	svc, ctx, actions := trainedService(t)

	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()), 99)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}

	// Scores must be bit-identical: the model is fully determined by the
	// saved weights and config.
	for _, a := range actions {
		want, got := svc.Score(ctx, a), loaded.Score(ctx, a)
		if want != got {
			t.Errorf("Score(%s): loaded %v, want %v", a.ID, got, want)
		}
	}

	// A second save of the loaded service reproduces the same bytes.
	// (Checked before any new ranks: v3 snapshots carry open events, so
	// ranking would legitimately grow the saved state.)
	var buf2 bytes.Buffer
	if err := loaded.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("save(load(save(x))) != save(x)")
	}

	// Propensities must round-trip too: with the same epsilon and action
	// count, greedy and exploratory ranks report the same probabilities.
	k := float64(len(actions))
	wantGreedy := (1 - 0.2) + 0.2/k
	seenGreedy := false
	for i := 0; i < 50; i++ {
		r, err := loaded.Rank(ctx, actions)
		if err != nil {
			t.Fatal(err)
		}
		if r.Prob != wantGreedy && r.Prob != 0.2/k {
			t.Fatalf("Rank prob = %v, want %v (greedy) or %v (explore)", r.Prob, wantGreedy, 0.2/k)
		}
		if r.Prob == wantGreedy {
			seenGreedy = true
		}
	}
	if !seenGreedy {
		t.Error("loaded service never ranked greedily in 50 tries")
	}
	u, err := loaded.RankUniform(ctx, actions)
	if err != nil {
		t.Fatal(err)
	}
	if u.Prob != 1/k {
		t.Errorf("RankUniform prob = %v, want %v", u.Prob, 1/k)
	}
}

// TestLoadMalformedEdgeCases extends TestLoadErrors with the header and
// index shapes the serve layer can encounter on a corrupted snapshot.
func TestLoadMalformedEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		data string
		want string // error substring, when the failure must be specific
	}{
		{"truncated header", "qoadvisor-bandit v1 dim=4096\n", ""},
		{"wrong field count", "qoadvisor-bandit v1 dim=4096 epsilon=0.1 lr=0.05 clip=50\n12 0.5 extra\n", ""},
		{"negative index", "qoadvisor-bandit v1 dim=4096 epsilon=0.1 lr=0.05 clip=50\n-3 0.5\n", ""},
		{"index equals dim", "qoadvisor-bandit v1 dim=4096 epsilon=0.1 lr=0.05 clip=50\n4096 0.5\n", ""},
		// The header dim sizes an up-front allocation: a huge one must
		// fail as an error, not as an unrecoverable out-of-memory crash,
		// and a non-positive one must not silently load a default model.
		{"dim zero", "qoadvisor-bandit v3 dim=0 epsilon=0.1 lr=0.05 clip=50 wal=0\n", "bad dim"},
		{"dim negative", "qoadvisor-bandit v3 dim=-3 epsilon=0.1 lr=0.05 clip=50 wal=0\n", "bad dim"},
		{"dim 2^40", "qoadvisor-bandit v3 dim=1099511627776 epsilon=0.1 lr=0.05 clip=50 wal=0\n", "bad dim"},
		{"dim above ceiling", fmt.Sprintf("qoadvisor-bandit v2 dim=%d epsilon=0.1 lr=0.05 clip=50\n", maxDim+1), "bad dim"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(strings.NewReader(tc.data), 1)
			if err == nil {
				t.Fatalf("Load(%q) succeeded, want error", tc.data)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Load(%q) = %v, want an error containing %q", tc.data, err, tc.want)
			}
		})
	}
}

func TestLoadSkipsBlankLinesAndRestoresConfig(t *testing.T) {
	data := "qoadvisor-bandit v2 dim=1024 epsilon=0.25 lr=0.07 clip=30\n" +
		"5 1.5\n\n   \n9 -0.25\n"
	svc, err := Load(strings.NewReader(data), 1)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	wantHeader := "qoadvisor-bandit v3 dim=1024 epsilon=0.25 lr=0.07 clip=30 wal=0"
	if got := strings.SplitN(buf.String(), "\n", 2)[0]; got != wantHeader {
		t.Errorf("resaved header = %q, want %q", got, wantHeader)
	}
	for _, want := range []string{"5 1.5\n", "9 -0.25\n"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("resaved model missing %q:\n%s", want, buf.String())
		}
	}
	if n := strings.Count(buf.String(), "\n"); n != 3 {
		t.Errorf("resaved model has %d lines, want 3:\n%s", n, buf.String())
	}
}

// TestLoadMigratesV1Snapshots covers the snapshot-format bump: v1 files
// (legacy string-cross hashed weights) still load — hyperparameters carry
// over, weights are dropped (under v2 pair mixing they would score
// unrelated feature pairs), the service is immediately servable — and a
// resave writes the v2 header.
func TestLoadMigratesV1Snapshots(t *testing.T) {
	data := "qoadvisor-bandit v1 dim=1024 epsilon=0.25 lr=0.07 clip=30\n5 1.5\n9 -0.25\n"
	svc, err := Load(strings.NewReader(data), 1)
	if err != nil {
		t.Fatalf("Load(v1): %v", err)
	}
	if svc.w[5] != 0 || svc.w[9] != 0 {
		t.Errorf("v1 weights must be dropped, not carried into the v2 index space: w[5]=%v w[9]=%v", svc.w[5], svc.w[9])
	}
	if svc.cfg.Dim != 1024 || svc.cfg.Epsilon != 0.25 || svc.cfg.LearningRate != 0.07 || svc.cfg.MaxIPSWeight != 30 {
		t.Errorf("v1 hyperparameters not carried over: %+v", svc.cfg)
	}
	// The migrated service must rank and train normally.
	ctx := Context{Features: []string{"span:1"}}
	actions := []Action{{ID: "a", Features: []string{"rule:1"}}, {ID: "b", Features: []string{"rule:2"}}}
	r, err := svc.Rank(ctx, actions)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Reward(r.EventID, 1.2); err != nil {
		t.Fatal(err)
	}
	if n := svc.Train(); n != 1 {
		t.Errorf("migrated service trained %d events, want 1", n)
	}
	var buf bytes.Buffer
	if err := svc.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "qoadvisor-bandit v3 ") {
		t.Errorf("resave after migration must write v3, got %q", strings.SplitN(buf.String(), "\n", 2)[0])
	}
}

func TestLoadRejectsUnknownVersion(t *testing.T) {
	data := "qoadvisor-bandit v4 dim=1024 epsilon=0.25 lr=0.07 clip=30 wal=0\n"
	if _, err := Load(strings.NewReader(data), 1); err == nil {
		t.Error("v4 snapshot should be rejected")
	}
}

func TestLoadRejectsV3WithoutWALField(t *testing.T) {
	data := "qoadvisor-bandit v3 dim=1024 epsilon=0.25 lr=0.07 clip=30\n"
	if _, err := Load(strings.NewReader(data), 1); err == nil {
		t.Error("v3 snapshot without wal= field should be rejected")
	}
}

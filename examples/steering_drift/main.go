// Steering drift: the online drift safeguard end to end — a scripted
// reward regression on one hinted template drives the full quarantine
// lifecycle while the rest of the workload keeps serving.
//
// A WAL-backed primary serves a two-template hint table with drift
// detection enabled. Production telemetry is simulated with the drift
// package's flood generator: both templates report healthy rewards
// until one of them collapses (the signature of a hint that went stale
// under data drift — the paper's §7 regression risk). The safeguard's
// per-template sketch statistics flag the collapse, hysteresis
// confirms it, and the template is auto-quarantined: its ranks fall
// back to the bandit path while the healthy template's hint keeps
// serving. Every transition is journaled (RecQuarantine), so the
// example then "crashes" the primary and rebuilds it from snapshot +
// journal to show the quarantine survives restart. Finally the
// regressed telemetry recovers, the template walks through probation
// back to healthy, and the hint serves again.
//
// Timeline printed by the example:
//
//	phase 1  healthy baseline     both templates serve from hints
//	phase 2  regression + flood   template A auto-quarantined, B unaffected
//	phase 3  crash + recovery     replayed server still refuses A's hint
//	phase 4  recovery + restore   A walks quarantined -> probation -> healthy
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"

	"qoadvisor/internal/api"
	"qoadvisor/internal/api/client"
	"qoadvisor/internal/drift"
	"qoadvisor/internal/rules"
	"qoadvisor/internal/serve"
	"qoadvisor/internal/sis"
	"qoadvisor/internal/wal"
)

const (
	tmplA = uint64(0xa11ce) // the template whose hint goes stale
	tmplB = uint64(0xb0b)   // the healthy control
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "steering-drift-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	snap := filepath.Join(dir, "model.snap")

	// --- Primary: WAL-backed, drift detection on ---
	// Small hysteresis windows so the lifecycle fits in an example run;
	// production defaults confirm over 16 consecutive degraded
	// observations (see README "Safeguards" for tuning).
	j, err := wal.Open(wal.Options{Dir: dir, Mode: wal.ModeSync})
	if err != nil {
		log.Fatal(err)
	}
	cat := rules.NewCatalog()
	srv := serve.New(serve.Config{
		Catalog: cat, Seed: 42, QueueSize: 1024, WAL: j,
		Drift: &drift.Config{MinSamples: 16, QuarantineAfter: 8, ProbationAfter: 8, RestoreAfter: 16},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := client.New(ts.URL)

	if _, err := srv.InstallHints([]sis.Hint{
		{TemplateHash: tmplA, TemplateID: "T-A", Flip: cat.FlipFor(40), Day: 7},
		{TemplateHash: tmplB, TemplateID: "T-B", Flip: cat.FlipFor(55), Day: 7},
	}); err != nil {
		log.Fatal(err)
	}

	// --- Phase 1: healthy baseline ---
	fmt.Println("== phase 1: healthy baseline ==")
	floodA := drift.NewFlood(1, 1.0, 0.05) // template A's reward stream
	floodB := drift.NewFlood(2, 0.8, 0.05) // template B's reward stream
	observe(ctx, cl, tmplA, floodA.Batch(64))
	observe(ctx, cl, tmplB, floodB.Batch(64))
	fmt.Printf("rank A -> %s, rank B -> %s\n", source(ctx, cl, tmplA), source(ctx, cl, tmplB))

	// --- Phase 2: regression flood on A ---
	fmt.Println("\n== phase 2: reward collapse on template A ==")
	floodA.Shift(0.0) // A's hint went stale: rewards collapse
	n := 0
	for !srv.QuarantineTable().Blocked(tmplA) {
		observe(ctx, cl, tmplA, floodA.Batch(8))
		observe(ctx, cl, tmplB, floodB.Batch(8)) // B keeps reporting healthy
		n += 8
	}
	fmt.Printf("auto-quarantined A after %d degraded observations\n", n)
	fmt.Printf("rank A -> %s (hint refused), rank B -> %s (unaffected)\n",
		source(ctx, cl, tmplA), source(ctx, cl, tmplB))
	printTable(ctx, cl)

	// --- Phase 3: crash and recover ---
	fmt.Println("\n== phase 3: crash, replay snapshot + journal ==")
	rec, err := serve.Recover(wal.DirSource{Dir: dir}, snap, 0, 0, 42)
	if err != nil {
		log.Fatal(err)
	}
	srv2 := serve.New(serve.Config{Catalog: cat, Seed: 42, Bandit: rec.Service})
	defer srv2.Close()
	if _, err := srv2.InstallHints([]sis.Hint{
		{TemplateHash: tmplA, TemplateID: "T-A", Flip: cat.FlipFor(40), Day: 7},
		{TemplateHash: tmplB, TemplateID: "T-B", Flip: cat.FlipFor(55), Day: 7},
	}); err != nil {
		log.Fatal(err)
	}
	srv2.RestoreQuarantines(rec.Quarantine)
	respA, err := srv2.Rank(api.RankRequest{TemplateHash: api.TemplateHash(tmplA), Span: []int{5, 60}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d quarantine records; recovered server ranks A -> %s\n",
		rec.QuarantineRecords, respA.Source)
	if respA.Source != api.SourceBandit {
		log.Fatal("BUG: recovery lost the quarantine")
	}

	// --- Phase 4: telemetry recovers, probation, restore ---
	fmt.Println("\n== phase 4: rewards recover, probation, restore ==")
	floodA.Shift(1.0)
	n = 0
	for srv.QuarantineTable().StateOf(tmplA) != drift.StateProbation {
		observe(ctx, cl, tmplA, floodA.Batch(8))
		n += 8
	}
	fmt.Printf("probation after %d recovered observations (hint serves tentatively: rank A -> %s)\n",
		n, source(ctx, cl, tmplA))
	for srv.QuarantineTable().StateOf(tmplA) != drift.StateHealthy {
		observe(ctx, cl, tmplA, floodA.Batch(8))
		n += 8
	}
	fmt.Printf("fully restored after %d recovered observations\n", n)
	printTable(ctx, cl)

	st, err := cl.Stats(ctx)
	if err != nil {
		log.Fatal(err)
	}
	d := st.Drift
	fmt.Printf("\nlifecycle totals: %d transitions (%d quarantines, %d probations, %d restores), %d blocked ranks\n",
		d.Transitions, d.Quarantines, d.Probations, d.Restores, d.BlockedRanks)
}

// observe reports one template's reward batch as attributed telemetry
// (templateHash, no eventId — pure drift observations).
func observe(ctx context.Context, cl *client.Client, hash uint64, rewards []float64) {
	events := make([]api.RewardEvent, len(rewards))
	for i, v := range rewards {
		v := v
		th := api.TemplateHash(hash)
		events[i] = api.RewardEvent{TemplateHash: &th, Reward: &v}
	}
	if _, err := cl.RewardBatch(ctx, events); err != nil {
		log.Fatal(err)
	}
}

// source ranks one job for the template and returns which path served.
func source(ctx context.Context, cl *client.Client, hash uint64) string {
	resp, err := cl.RankBatch(ctx, []api.RankRequest{{TemplateHash: api.TemplateHash(hash), Span: []int{5, 60}}})
	if err != nil {
		log.Fatal(err)
	}
	res := resp.Results[0]
	if res.Error != nil {
		log.Fatal(res.Error)
	}
	return res.Source
}

// printTable dumps the admin view (GET /v2/quarantine).
func printTable(ctx context.Context, cl *client.Client) {
	list, err := cl.QuarantineList(ctx)
	if err != nil {
		log.Fatal(err)
	}
	if len(list.Templates) == 0 {
		fmt.Println("quarantine table: empty")
		return
	}
	for _, t := range list.Templates {
		fmt.Printf("quarantine table: %016x %s\n", uint64(t.TemplateHash), t.State)
	}
}

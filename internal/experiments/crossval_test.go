package experiments

// The error-budget contract: every committed golden, run on both
// fidelity tiers, must keep the analytic tier's error within the
// budgets declared in crossval.go. Short mode (and therefore CI's -race
// pass) runs the cheap goldens; the full run covers all of them.

import (
	"strings"
	"testing"

	"kyoto/internal/cache"
	"kyoto/internal/sweep"
)

func TestCrossValidationBudgets(t *testing.T) {
	figures := CrossValFigures
	if testing.Short() {
		// The Figure 1/4 grids and the migration sweep replay dozens of
		// worlds on the exact tier; keep short mode to the goldens that
		// are cheap there too.
		figures = []string{"trace", "occupancy"}
	}
	res, err := CrossValidate(1, figures...)
	if err != nil {
		t.Fatal(err)
	}
	if want := 0; len(res.Checks) == want {
		t.Fatal("no checks ran")
	}
	t.Logf("\n%s", res.Table().String())
	if res.Pass() != (len(res.Failures()) == 0) {
		t.Error("Pass() disagrees with Failures()")
	}
	for _, c := range res.Failures() {
		t.Errorf("%s %s: analytic error %.3f exceeds budget %.3f (exact %.3f, analytic %.3f)",
			c.Figure, c.Metric, c.Err, c.Budget, c.Exact, c.Analytic)
	}
}

// The golden configs are shared between the shard-determinism tests and
// the cross-validation harness; pin them so a drive-by edit cannot
// silently re-point every consumer at a different experiment.
func TestGoldenSweepConfigsPinned(t *testing.T) {
	if got := GoldenTraceSweepConfig(); got.Hosts != 2 || got.Seed != 5 || got.DrainTicks != 6 {
		t.Errorf("GoldenTraceSweepConfig() = %+v", got)
	}
	m := GoldenMigrationSweepConfig()
	if m.Hosts != 2 || m.Seed != 5 || m.BigLLCFactor != 2 || m.Downtime != 2 {
		t.Errorf("GoldenMigrationSweepConfig() = %+v", m)
	}
	if tr := GoldenSweepTrace(); len(tr.Events) == 0 {
		t.Error("GoldenSweepTrace() is empty")
	}
}

func TestCrossValidateRejectsUnknownFigure(t *testing.T) {
	if _, err := CrossValidate(1, "fig99"); err == nil {
		t.Fatal("unknown figure must error")
	}
}

// Shard envelopes produced on different fidelity tiers describe
// different experiments; the config digest must refuse to merge them,
// and must keep accepting same-tier envelopes.
func TestMismatchedFidelityEnvelopesRefuseMerge(t *testing.T) {
	build := func(fid cache.Fidelity) sweep.Sweep {
		cfg := GoldenTraceSweepConfig()
		cfg.Fidelity = fid
		s, err := NewReplaySweeper(GoldenSweepTrace(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	shard := func(fid cache.Fidelity, k int) sweep.Envelope {
		env, err := sweep.Engine{}.RunShard(build(fid), k, 2)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}
	a0 := shard(cache.FidelityAnalytic, 0)
	a1 := shard(cache.FidelityAnalytic, 1)
	e1 := shard(cache.FidelityExact, 1)

	err := sweep.Merge(build(cache.FidelityAnalytic), []sweep.Envelope{a0, e1})
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("analytic+exact envelopes merged, want config-digest refusal; err = %v", err)
	}
	// Same mixture against an exact-tier merger: still refused.
	err = sweep.Merge(build(cache.FidelityExact), []sweep.Envelope{a0, e1})
	if err == nil || !strings.Contains(err.Error(), "different configuration") {
		t.Fatalf("mixed envelopes merged into exact sweeper, want refusal; err = %v", err)
	}
	// Sanity: same-tier envelopes keep merging.
	if err := sweep.Merge(build(cache.FidelityAnalytic), []sweep.Envelope{a0, a1}); err != nil {
		t.Fatalf("same-tier merge must succeed: %v", err)
	}
}

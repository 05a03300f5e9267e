package experiments

// Replay-sweep configuration tests: config-digest pins, Reseed
// preservation and knob validation. The merged-fingerprint goldens hash
// job payloads only, so nothing else notices a changed
// ConfigFingerprint — yet a changed digest silently stops shard
// envelopes written by an older binary from merging. The pinned hex
// strings were computed when each study was still its own sweeper and
// must never be regenerated.

import (
	"reflect"
	"strings"
	"testing"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/detect"
	"kyoto/internal/sweep"
)

// digestVariantDetector is the non-zero detector config of the
// migration-sweep digest variant.
var digestVariantDetector = detect.Config{Alpha: 0.3, Drift: 0.25, Threshold: 4, Warmup: 6}

func TestReplaySweepConfigDigestsPinned(t *testing.T) {
	example := exampleTrace(t)
	build := map[string]func(cache.Fidelity) (sweep.Seedable, error){
		"trace": func(fid cache.Fidelity) (sweep.Seedable, error) {
			cfg := GoldenTraceSweepConfig()
			cfg.Fidelity = fid
			return NewReplaySweeper(GoldenSweepTrace(), cfg)
		},
		"migration": func(fid cache.Fidelity) (sweep.Seedable, error) {
			cfg := GoldenMigrationSweepConfig()
			cfg.Fidelity = fid
			return NewReplaySweeper(GoldenSweepTrace(), cfg)
		},
		"migration-variant": func(fid cache.Fidelity) (sweep.Seedable, error) {
			cfg := GoldenMigrationSweepConfig()
			cfg.BigLLCFactor = 2
			cfg.Pending = arrivals.PendingFIFO
			cfg.Detector = digestVariantDetector
			cfg.Fidelity = fid
			return NewReplaySweeper(GoldenSweepTrace(), cfg)
		},
		"detection": func(fid cache.Fidelity) (sweep.Seedable, error) {
			cfg := goldenDetectionConfig(0)
			cfg.Fidelity = fid
			return NewReplaySweeper(example, cfg)
		},
	}
	want := map[string]string{
		"trace/exact":                "beea7a6ebd988e41",
		"trace/analytic":             "6141edea94ef31b4",
		"migration/exact":            "7c078a3c26ca353a",
		"migration/analytic":         "e549b01db6c210cf",
		"migration-variant/exact":    "d0cf0b04f307f648",
		"migration-variant/analytic": "490c0ad0fd3dc43d",
		"detection/exact":            "e887d285337f8747",
		"detection/analytic":         "e48b2343697378b2",
	}
	for study, mk := range build {
		for _, fid := range []cache.Fidelity{cache.FidelityExact, cache.FidelityAnalytic} {
			s, err := mk(fid)
			if err != nil {
				t.Fatal(err)
			}
			name := study + "/" + fid.String()
			got := s.(sweep.ConfigFingerprinter).ConfigFingerprint()
			if got != want[name] {
				t.Errorf("%s config digest %s, want pinned %s", name, got, want[name])
			}
		}
	}
}

// TestReplaySweepReseedKeepsConfig requires Reseed to change the seed
// and nothing else: every other knob, fidelity included, must survive
// into the replica.
func TestReplaySweepReseedKeepsConfig(t *testing.T) {
	example := exampleTrace(t)
	overrides := map[int]cluster.HostOverride{0: {LLCBudget: 900}}

	tcfg := ReplaySweepConfig{Hosts: 3, Seed: 2, Workers: 2, DrainTicks: 7, Overrides: overrides, Fidelity: cache.FidelityAnalytic}
	ts, err := NewReplaySweeper(GoldenSweepTrace(), tcfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := ReplaySweepConfig{
		Study: MigrationStudy,
		Hosts: 3, Seed: 2, Workers: 2, DrainTicks: 7, Overrides: overrides, BigLLCFactor: 2,
		Rebalancers: []string{"none", "signature"}, RebalanceEvery: 5, Downtime: 1,
		Pending: arrivals.PendingDeadline, MaxWait: 9, Detector: digestVariantDetector,
		Fidelity: cache.FidelityAnalytic,
	}
	ms, err := NewReplaySweeper(GoldenSweepTrace(), mcfg)
	if err != nil {
		t.Fatal(err)
	}
	dcfg := ReplaySweepConfig{
		Study: DetectionStudy,
		Hosts: 3, Seed: 2, Workers: 2, DrainTicks: 7, RebalanceEvery: 5, Downtime: 1,
		Threshold: 0.5, Detector: digestVariantDetector, AggressiveApps: []string{"lbm"},
		Fidelity: cache.FidelityAnalytic,
	}
	ds, err := NewReplaySweeper(example, dcfg)
	if err != nil {
		t.Fatal(err)
	}

	for name, s := range map[string]*ReplaySweeper{"trace": ts, "migration": ms, "detection": ds} {
		re, err := s.Reseed(11)
		if err != nil {
			t.Fatal(err)
		}
		want := s.cfg
		want.Seed = 11
		if got := re.(*ReplaySweeper).cfg; !reflect.DeepEqual(got, want) {
			t.Errorf("%s Reseed(11) config %+v, want %+v", name, got, want)
		}
		if re.(*ReplaySweeper).ConfigFingerprint() == s.ConfigFingerprint() {
			t.Errorf("%s Reseed(11) kept the seed-2 config digest", name)
		}
	}
}

// TestReplaySweepRejectsForeignKnobs: a knob the selected study never
// reads would change neither its results nor its config digest, so
// setting one is an error rather than a silent no-op.
func TestReplaySweepRejectsForeignKnobs(t *testing.T) {
	for _, cfg := range []ReplaySweepConfig{
		{Study: TraceStudy, Rebalancers: []string{"reactive"}},
		{Study: TraceStudy, Pending: arrivals.PendingFIFO},
		{Study: MigrationStudy, Threshold: 0.5},
		{Study: MigrationStudy, AggressiveApps: []string{"lbm"}},
		{Study: DetectionStudy, Overrides: map[int]cluster.HostOverride{0: {LLCBudget: 900}}},
		{Study: DetectionStudy, MaxWait: 9},
	} {
		if _, err := NewReplaySweeper(GoldenSweepTrace(), cfg); err == nil || !strings.Contains(err.Error(), "does not apply") {
			t.Errorf("%v study with a foreign knob: err = %v, want a does-not-apply refusal", cfg.Study, err)
		}
	}
	if _, err := NewReplaySweeper(GoldenSweepTrace(), ReplaySweepConfig{Study: 7}); err == nil {
		t.Error("unknown study must fail")
	}
}

package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/experiments"
	"kyoto/internal/sweep"
)

// tinyWorkloads are the benchmark's workloads shrunk to run in well under
// a second each, even under the race detector.
func tinyWorkloads() []*workload {
	sparse := churnSparse
	sparse.name, sparse.hosts, sparse.size = "churn-sparse-tiny", 3, 40
	exact := churnExact
	exact.name, exact.hosts, exact.checkpointEvery = "churn-exact-tiny", 1, 2
	// Three 2-vCPU VMs at once overflow the 4-core host, so the pending
	// queue is used; the rest of churn-exact's machinery runs as is.
	exact.trace = func(uint64, int) arrivals.Trace {
		return arrivals.Trace{Events: []arrivals.Event{
			{Submit: 0, Lifetime: 3, App: "lbm", VCPUs: 2, LLCCap: 250},
			{Submit: 0, Lifetime: 3, App: "gcc", VCPUs: 2, LLCCap: 250},
			{Submit: 0, Lifetime: 2, App: "mcf", VCPUs: 2, LLCCap: 250},
			{Submit: 2, Lifetime: 2, App: "bzip", LLCCap: 250},
		}}
	}
	fig4 := sweepWorkload("fig4-analytic-tiny", func(seed uint64) sweep.Sweep {
		return experiments.NewFig4SweeperFidelity(seed, cache.FidelityAnalytic)
	})
	ws := []*workload{sparse.workload(), exact.workload(), fig4}
	for _, w := range ws {
		w.setupReps = 1
	}
	return ws
}

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWorkloadsPassTheirChecks runs every workload, untraced then
// traced, and requires all operations to pass and every metric
// BENCHMARK.json declares to be reported with its unit.
func TestWorkloadsPassTheirChecks(t *testing.T) {
	bench := readBenchmarkFile(t)
	for _, w := range tinyWorkloads() {
		t.Run(w.name, func(t *testing.T) {
			rep, err := measure(w, 3, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			chk := newChecker(w.name, 3, "test")
			chk.iterations(rep.untraced, rep.traced)
			if err := chk.againstStore(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			if chk.attempted == 0 || chk.failed != 0 || len(chk.problems) != 0 {
				t.Fatalf("%d of %d operations failed: %v", chk.failed, chk.attempted, chk.problems)
			}
			if strings.HasPrefix(w.name, "churn-exact") {
				for _, arm := range []string{"first-fit", "spread", "kyoto"} {
					if chk.fingerprints["resume/"+arm] == "" {
						t.Errorf("arm %s was never resumed from a checkpoint", arm)
					}
				}
				if chk.counts["snapshot.bytes"] == 0 {
					t.Error("no checkpoint bytes counted")
				}
			}
			if strings.HasPrefix(w.name, "churn") && chk.counts["hv.ticks_executed"] == 0 {
				t.Error("the tick hook counted no ticks")
			}

			check := func(got map[string]metric, want []struct{ Name, Unit string }) {
				t.Helper()
				if len(got) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json declares %d", len(got), len(want))
				}
				for _, m := range want {
					g, ok := got[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not reported", m.Name)
					case g.Unit != m.Unit:
						t.Errorf("metric %s in %s, BENCHMARK.json says %s", m.Name, g.Unit, m.Unit)
					case math.IsNaN(g.Value) || math.IsInf(g.Value, 0):
						t.Errorf("metric %s is %v", m.Name, g.Value)
					}
				}
			}
			e2e := endToEndMetrics(rep)
			check(e2e, bench.EndToEnd)
			for _, m := range bench.EndToEnd {
				if e2e[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s is %v, want > 0", m.Name, e2e[m.Name].Value)
				}
			}
			layers := layerMetrics(rep, chk)
			check(layers, bench.PerLayer)
			sum := 0.0
			for _, mod := range modules {
				sum += layers[mod+".cpu_frac"].Value
			}
			if sum != 0 && math.Abs(sum-1) > 1e-9 {
				t.Errorf("module CPU shares sum to %v, want 1", sum)
			}

			if _, err := rep.trace.write(t.TempDir(), w.name, 3); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestCheckerCatchesMismatches(t *testing.T) {
	iter := func(fp string, steps uint64) iteration {
		return iteration{ops: []op{{key: "arm/a", fingerprint: fp}}, counts: map[string]uint64{"arrivals.steps": steps}}
	}

	c := newChecker("w", 5, "bin")
	c.iterations([]iteration{iter("x", 1), iter("y", 1), iter("x", 2)})
	if c.attempted != 3 || c.failed != 1 || len(c.problems) != 2 {
		t.Fatalf("attempted %d failed %d problems %v; want 3, 1 and two problems", c.attempted, c.failed, c.problems)
	}

	c = newChecker("w", defaultSeed, "bin")
	c.pins = map[string]string{"arm/a": "x"}
	c.iterations([]iteration{iter("z", 1), {ops: []op{{key: "arm/b", fingerprint: "x"}}}})
	if c.failed != 2 {
		t.Fatalf("failed %d, want 2 (pinned mismatch and unpinned key): %v", c.failed, c.problems)
	}

	dir := t.TempDir()
	first := newChecker("w", 5, "bin")
	first.iterations([]iteration{iter("x", 1)})
	if err := first.againstStore(dir); err != nil {
		t.Fatal(err)
	}
	second := newChecker("w", 5, "bin")
	second.iterations([]iteration{iter("y", 2), iter("y", 2)})
	if err := second.againstStore(dir); err != nil {
		t.Fatal(err)
	}
	if second.failed != 2 || len(second.problems) != 2 {
		t.Fatalf("failed %d problems %v; want both runs of the changed fingerprint failed and the count flagged", second.failed, second.problems)
	}
	other := newChecker("w", 5, "other-bin")
	other.iterations([]iteration{iter("y", 2)})
	if err := other.againstStore(dir); err != nil {
		t.Fatal(err)
	}
	if other.failed != 0 {
		t.Fatalf("a different binary was compared with this one's runs: %v", other.problems)
	}
}

func TestModuleOf(t *testing.T) {
	for _, tc := range []struct {
		frames []string
		want   string
	}{
		{[]string{"kyoto/internal/cache.(*Cache).Access"}, "cache"},
		{[]string{"runtime.mallocgc", "kyoto/internal/workload.New"}, "runtime"},
		{[]string{"internal/runtime/maps.(*Map).getWithKey", "kyoto/internal/hv.(*World).tick"}, "runtime"},
		{[]string{"kyoto/internal/xrand.(*Rand).Uint64", "kyoto/internal/workload.(*Gen).Next"}, "workload"},
		{[]string{"sort.insertionSort", "sort.Sort", "kyoto/internal/arrivals.(*replayRun).step"}, "arrivals"},
		{[]string{"kyoto/internal/experiments.Run"}, "other"},
		{[]string{"main.(*tracer).begin"}, "other"},
		{[]string{"math.Pow"}, "other"},
	} {
		if got := moduleOf(tc.frames); got != tc.want {
			t.Errorf("moduleOf(%v) = %s, want %s", tc.frames, got, tc.want)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "churn-sparse", "-seconds", "0"},
		{"-workload", "churn-sparse", "-trace", "2"},
		{"-workload", "churn-sparse", "-seed", "0"},
	} {
		var out strings.Builder
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed a result: %s", args, out.String())
		}
	}
}

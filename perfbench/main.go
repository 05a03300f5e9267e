// Command perfbench is the repository benchmark. It runs one workload
// for a fixed wall-clock budget, checks every output against pinned and
// previously seen fingerprints, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	bash perfbench/run.sh --workload churn-sparse --seed 1 --seconds 40 --trace 0
//
// Workloads (see workloads.go for why each was chosen):
//
//   - churn-sparse: analytic-tier fleet replay of a sparse synthetic
//     trace, one pass per placer arm;
//   - churn-exact: exact-tier replay of an Azure-calibrated trace on
//     saturated hosts with a pending queue, the reactive rebalancer and
//     periodic checkpoints, each arm resumed from its last checkpoint;
//   - fig4-exact: the paper's Figure 4 sweep, 100 single-host exact
//     worlds.
//
// With -trace 0 the run is untraced and reports the end-to-end metrics:
// iteration wall time and throughput, set-up time and peak RSS.
// With -trace 1 it first repeats that untraced measurement for half the
// budget, then runs traced for the other half — spans around every
// layer call, a tick-counting hook on every host and a CPU profile whose
// samples are charged to modules — and reports the per-layer metrics.
// Spans are written to -trace-dir at exit.
//
// Operations (replay arms, resume checks, sweep jobs) fail when they
// return an error or their fingerprint disagrees with the pinned value
// (default seed), the first iteration, or an earlier run of the same
// binary and seed recorded in -state-dir. Deterministic work counts are
// checked the same way. Any failure makes the run exit with status 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"kyoto/internal/stats"
)

// defaultSeed is the seed whose fingerprints pins.go pins.
const defaultSeed = 1

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+fmt.Sprint(sortedKeys(workloads)))
	seed := fs.Uint64("seed", defaultSeed, "input seed")
	seconds := fs.Float64("seconds", 30, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced per-layer measurement, 0 the untraced end-to-end one")
	stateDir := fs.String("state-dir", ".bench_build/perfbench-state", "where fingerprints and counts of earlier runs are kept")
	traceDir := fs.String("trace-dir", ".bench_build/perfbench-trace", "where traced runs write their spans")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", *name, sortedKeys(workloads))
	}
	if *seconds <= 0 || *traced < 0 || *traced > 1 {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if *seed == 0 {
		return fmt.Errorf("-seed must be positive")
	}
	budget := time.Duration(*seconds * float64(time.Second))

	rep, err := measure(w, *seed, budget, *traced == 1)
	if err != nil {
		return err
	}
	chk := newChecker(w.name, *seed, rep.provenance["binary"].(string))
	chk.iterations(rep.untraced, rep.traced)
	if err := chk.againstStore(*stateDir); err != nil {
		return err
	}
	if rep.trace != nil {
		path, err := rep.trace.write(*traceDir, w.name, *seed)
		if err != nil {
			return err
		}
		rep.provenance["spans_file"] = path
	}

	res := result{Correct: chk.failed == 0 && len(chk.problems) == 0, Attempted: chk.attempted, Failed: chk.failed}
	if *traced == 1 {
		res.Metrics = layerMetrics(rep, chk)
	} else {
		res.Metrics = endToEndMetrics(rep)
	}
	rep.provenance["counts"] = chk.counts
	rep.provenance["fingerprints"] = chk.fingerprints
	rep.provenance["problems"] = chk.problems
	prov, err := json.Marshal(map[string]any{"provenance": rep.provenance})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n%s\n", prov, line)
	if !res.Correct {
		return fmt.Errorf("%d of %d operations failed, %d problems (listed in the provenance line), the first: %s",
			chk.failed, chk.attempted, len(chk.problems), chk.problems[0])
	}
	return nil
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is everything one run measured.
type report struct {
	// untraced and traced hold one entry per iteration of each phase;
	// traced is empty in an untraced run.
	untraced, traced []iteration
	// setups are the set-up times of every untraced set-up, the extra
	// repetitions included.
	setups []float64
	// profile is the traced phase's CPU profile, charged to modules.
	profile map[string]float64
	trace   *tracer
	// usage is the untraced phase's per-iteration resource use.
	usage []usage

	provenance map[string]any
}

// measure runs the workload: an untraced phase for the whole budget
// (half of it in a traced run), then the traced phase.
func measure(w *workload, seed uint64, budget time.Duration, traced bool) (*report, error) {
	rep := &report{provenance: provenance(w, seed, budget, traced)}
	untracedBudget := budget
	if traced {
		untracedBudget = budget / 2
	}
	// Set-up is cheap next to a pass; repeat it so its median is steady.
	for i := 0; i < w.setupReps; i++ {
		d, err := w.setupOnly(seed)
		if err != nil {
			return nil, err
		}
		rep.setups = append(rep.setups, d.Seconds())
	}
	var err error
	rep.untraced, rep.usage, err = loop(w, seed, untracedBudget, nil)
	if err != nil {
		return nil, err
	}
	var walls []float64
	for _, it := range rep.untraced {
		rep.setups = append(rep.setups, it.setup.Seconds())
		walls = append(walls, it.wall.Seconds())
	}
	rep.provenance["wall_samples_s"] = walls
	rep.provenance["wall_median_s"] = median(walls)
	rep.provenance["wall_max_s"] = pct(walls, 100)
	if traced {
		rep.trace = newTracer()
		stop, err := startProfile()
		if err != nil {
			return nil, err
		}
		rep.traced, _, err = loop(w, seed, budget-untracedBudget, rep.trace)
		prof, perr := stop()
		if err != nil {
			return nil, err
		}
		if perr != nil {
			return nil, perr
		}
		rep.profile = prof
	}
	rep.provenance["iterations"] = map[string]int{"untraced": len(rep.untraced), "traced": len(rep.traced), "setup_samples": len(rep.setups)}
	return rep, nil
}

// loop runs iterations until the next one would overrun the budget,
// always at least one.
func loop(w *workload, seed uint64, budget time.Duration, t *tracer) ([]iteration, []usage, error) {
	var its []iteration
	var uses []usage
	start := time.Now()
	var longest time.Duration
	for {
		if t == nil {
			// Traced iterations report no memory; keep the forced GC out
			// of their profile.
			resetPeakRSS()
		}
		before := readUsage()
		it0 := time.Now()
		it, err := w.iterate(seed, t, len(its))
		if err != nil {
			return nil, nil, fmt.Errorf("%s iteration %d: %w", w.name, len(its), err)
		}
		took := time.Since(it0)
		uses = append(uses, readUsage().since(before))
		its = append(its, it)
		longest = max(longest, took)
		if time.Since(start)+longest > budget {
			return its, uses, nil
		}
	}
}

// endToEndMetrics reports the untraced phase. Times and throughput are
// lower-decile (throughput upper-decile) iteration values, not medians:
// on a shared host, co-tenants only ever slow an iteration down, by up to
// half for stretches of seconds, so the median tracks the neighbours'
// load while the lower decile tracks the program. The median and the
// slowest iteration go to the provenance record. Set-up time and peak
// RSS are medians.
func endToEndMetrics(rep *report) map[string]metric {
	var wall, thr, rss []float64
	for i, it := range rep.untraced {
		wall = append(wall, it.wall.Seconds())
		thr = append(thr, float64(it.work)/it.wall.Seconds())
		rss = append(rss, rep.usage[i].peakRSSMB)
	}
	return map[string]metric{
		"wall_s":           {pct(wall, 10), "s"},
		"throughput_per_s": {pct(thr, 90), "1/s"},
		"setup_s":          {median(rep.setups), "s"},
		"peak_rss_mb":      {median(rss), "MB"},
	}
}

// median and pct summarize samples; an empty sample set reads 0.
func median(xs []float64) float64 { return pct(xs, 50) }

func pct(xs []float64, p float64) float64 {
	v, _ := stats.Percentile(xs, p) // the only error is an empty sample set
	return v
}

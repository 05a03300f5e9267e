package experiments

// Seedable adapters: every sweeper in the harness can be replicated
// under consecutive RNG seeds by sweep.SeedSweeper, turning its single
// numbers into distributions with confidence intervals. Each adapter
// supplies the three hooks the seed sweep needs — an independent
// reseeded copy, the fixed metric list, and per-arm metric rows read
// off the merged result — plus SeedSweepTable, the one renderer behind
// `kyotosim -seeds` and `kyotobench -seeds`.

import (
	"fmt"

	"kyoto/internal/stats"
	"kyoto/internal/sweep"
)

// Reseed implements sweep.Seedable: an independent trace sweep over the
// same trace and fleet shape, seeded differently.
func (s *TraceSweeper) Reseed(seed uint64) (sweep.Seedable, error) {
	cfg := s.cfg
	cfg.Seed = seed
	return NewTraceSweeper(s.tr, cfg)
}

// traceSweepMetrics is the fixed metric order of a trace seed sweep.
var traceSweepMetrics = []string{"rej_rate", "cpu_util", "p50_norm", "p95_norm", "p99_norm"}

// MetricNames implements sweep.Seedable.
func (s *TraceSweeper) MetricNames() []string {
	return append([]string(nil), traceSweepMetrics...)
}

// MetricRows implements sweep.Seedable: one row per placement arm.
func (s *TraceSweeper) MetricRows() []sweep.MetricRow {
	if s.res == nil {
		return nil
	}
	rows := make([]sweep.MetricRow, len(s.res.Rows))
	for i, row := range s.res.Rows {
		rows[i] = sweep.MetricRow{
			Arm:    row.Placer,
			Values: []float64{row.RejectionRate, row.CPUUtilization, row.P50, row.P95, row.P99},
		}
	}
	return rows
}

// Reseed implements sweep.Seedable for the migration sweep.
func (s *MigrationSweeper) Reseed(seed uint64) (sweep.Seedable, error) {
	cfg := s.cfg
	cfg.Seed = seed
	return NewMigrationSweeper(s.tr, cfg)
}

// migrationSweepMetrics is the fixed metric order of a migration seed
// sweep. wait_p99_small / wait_p99_large split the tail wait by VM size
// class (arrivals.SmallVMMaxCPUs), making SJF starvation of large VMs
// visible; both are 0 for traces whose VMs all share one class.
var migrationSweepMetrics = []string{
	"rej_rate", "cpu_util",
	"wait_p50", "wait_p95", "wait_p99", "wait_p99_small", "wait_p99_large",
	"migrations", "p50_norm", "p99_norm",
}

// MetricNames implements sweep.Seedable.
func (s *MigrationSweeper) MetricNames() []string {
	return append([]string(nil), migrationSweepMetrics...)
}

// MetricRows implements sweep.Seedable: one row per {placer, rebalancer}
// combination, named "placer/rebalancer".
func (s *MigrationSweeper) MetricRows() []sweep.MetricRow {
	if s.res == nil {
		return nil
	}
	rows := make([]sweep.MetricRow, len(s.res.Rows))
	for i, row := range s.res.Rows {
		smallWaits, largeWaits := row.Replay.PlacedWaitsByClass()
		rows[i] = sweep.MetricRow{
			Arm: row.Placer + "/" + row.Rebalancer,
			Values: []float64{
				row.RejectionRate, row.CPUUtilization,
				row.WaitP50, row.WaitP95, row.WaitP99,
				percentileOrZero(smallWaits, 99), percentileOrZero(largeWaits, 99),
				float64(row.MigrationCount), row.P50, row.P99,
			},
		}
	}
	return rows
}

// Reseed implements sweep.Seedable for the detection sweep.
func (s *DetectionSweeper) Reseed(seed uint64) (sweep.Seedable, error) {
	cfg := s.cfg
	cfg.Seed = seed
	return NewDetectionSweeper(s.tr, cfg)
}

// detectionSweepMetrics is the fixed metric order of a detection seed
// sweep: trigger volume and quality (false-trigger rate, coverage,
// time-to-detect) alongside the usual performance floor.
var detectionSweepMetrics = []string{
	"placed", "triggers", "chgpts", "false_rate", "detected", "mean_ttd", "p99_norm",
}

// MetricNames implements sweep.Seedable.
func (s *DetectionSweeper) MetricNames() []string {
	return append([]string(nil), detectionSweepMetrics...)
}

// MetricRows implements sweep.Seedable: one row per detection arm.
func (s *DetectionSweeper) MetricRows() []sweep.MetricRow {
	if s.res == nil {
		return nil
	}
	rows := make([]sweep.MetricRow, len(s.res.Rows))
	for i, row := range s.res.Rows {
		rows[i] = sweep.MetricRow{
			Arm: row.Arm,
			Values: []float64{
				float64(row.Placed), float64(row.Triggers), float64(row.ChangePointCount),
				row.FalseTriggerRate, float64(row.Detected), row.MeanTimeToDetect, row.P99,
			},
		}
	}
	return rows
}

// percentileOrZero is stats.Percentile with empty samples reading as 0
// — "no VMs of this class waited" rather than an error.
func percentileOrZero(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v, err := stats.Percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// Reseed implements sweep.Seedable for the Figure 4 indicator study.
func (s *Fig4Sweeper) Reseed(seed uint64) (sweep.Seedable, error) {
	return NewFig4SweeperFidelity(seed, s.fid), nil
}

// MetricNames implements sweep.Seedable.
func (s *Fig4Sweeper) MetricNames() []string { return []string{"tau_llcm", "tau_eq1"} }

// MetricRows implements sweep.Seedable: the study is one arm whose
// metrics are the two indicator-agreement taus.
func (s *Fig4Sweeper) MetricRows() []sweep.MetricRow {
	if s.res == nil {
		return nil
	}
	return []sweep.MetricRow{{Arm: "fig4", Values: []float64{s.res.TauLLCM, s.res.TauEq1}}}
}

// ablationArmNames names the six ablation outcomes (A and B of each
// study, in ablationArms order) as seed-sweep arms.
var ablationArmNames = map[string][2]string{
	"indicator":    {"indicator/eq1", "indicator/llcm"},
	"partitioning": {"partitioning/ks4xen", "partitioning/ucp"},
	"banking":      {"banking/none", "banking/bank4"},
}

// Reseed implements sweep.Seedable for the ablation suite.
func (s *AblationSweeper) Reseed(seed uint64) (sweep.Seedable, error) {
	return NewAblationSweeper(seed), nil
}

// MetricNames implements sweep.Seedable.
func (s *AblationSweeper) MetricNames() []string { return []string{"vsen1_norm"} }

// MetricRows implements sweep.Seedable: each study's A and B outcomes
// become separate arms sharing the one normalized-performance metric.
func (s *AblationSweeper) MetricRows() []sweep.MetricRow {
	if s.vals == nil {
		return nil
	}
	rows := make([]sweep.MetricRow, 0, 2*len(ablationArms))
	for i, arm := range ablationArms {
		names := ablationArmNames[arm.key]
		rows = append(rows,
			sweep.MetricRow{Arm: names[0], Values: []float64{s.vals[i].A}},
			sweep.MetricRow{Arm: names[1], Values: []float64{s.vals[i].B}},
		)
	}
	return rows
}

// SeedSweepTable renders a merged seed sweep as the arm x metric table
// the CLIs print: sample mean with its normal-approximation CI, and the
// p50/p95/p99 of the across-seed distribution with seeded-bootstrap
// CIs. Every number is a pure function of the merged result, so the
// rendering is bit-identical for every shard count.
func SeedSweepTable(r *sweep.SeedSweepResult) (Table, error) {
	if r == nil {
		return Table{}, fmt.Errorf("experiments: seed sweep has no merged result")
	}
	pct := int(100 * r.Confidence)
	t := Table{
		Title: fmt.Sprintf("Seed sweep: %s, %d seeds (base %d)", r.Sweep, r.Seeds, r.BaseSeed),
		Note: fmt.Sprintf("each metric aggregated across %d seeds; mean ± half-width of the %d%% normal-approximation CI; "+
			"pXX [lo, hi] = across-seed percentile with %d%% bootstrap CI (%d resamples, seed %d)",
			r.Seeds, pct, pct, r.Resamples, r.BootstrapSeed),
		Columns: []string{"arm", "metric", fmt.Sprintf("mean ± %d%% CI", pct), "p50", "p95", "p99"},
	}
	for _, arm := range r.Arms {
		for mi, metric := range r.Metrics {
			sum := arm.Summaries[mi]
			mci, err := sum.MeanCI(r.Confidence)
			if err != nil {
				return Table{}, fmt.Errorf("experiments: %s/%s: %w", arm.Arm, metric, err)
			}
			cells := []interface{}{arm.Arm, metric, stats.FormatMeanCI(sum.Mean(), mci.Halfwidth())}
			for _, p := range []float64{50, 95, 99} {
				point, err := sum.Percentile(p)
				if err != nil {
					return Table{}, fmt.Errorf("experiments: %s/%s p%v: %w", arm.Arm, metric, p, err)
				}
				ci, err := sum.PercentileCI(p, r.Confidence, r.Resamples, r.BootstrapSeed)
				if err != nil {
					return Table{}, fmt.Errorf("experiments: %s/%s p%v CI: %w", arm.Arm, metric, p, err)
				}
				cells = append(cells, fmt.Sprintf("%.3f [%.3f, %.3f]", point, ci.Lo, ci.Hi))
			}
			t.AddRow(cells...)
		}
	}
	return t, nil
}

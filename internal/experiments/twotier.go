package experiments

// Two-tier sweeps: broad on the analytic fast tier, confirmed on the
// exact tier. The analytic tier trades per-access cache simulation for a
// once-per-tick occupancy recurrence (internal/cache.AnalyticLLC), which
// makes it cheap enough to sweep configurations wholesale — but its miss
// rates are modeled, not simulated. The two-tier mode uses each tier for
// what it is good at: the analytic pass ranks every arm, and only the
// top-k arms are re-run on the exact tier, so the expensive model is
// spent where the decision actually lands. Both passes are deterministic,
// so a two-tier run is reproducible end to end.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/stats"
	"kyoto/internal/sweep"
	"kyoto/internal/workload"
)

// DefaultConfirmTopK is how many leading arms a two-tier sweep re-runs
// on the exact tier when the caller does not say.
const DefaultConfirmTopK = 1

// ReplayTwoTierResult pairs the broad analytic replay sweep with the
// exact re-runs of its leading arms.
type ReplayTwoTierResult struct {
	// Analytic is the full broad-pass sweep result.
	Analytic *ReplaySweepResult
	// TopK is the number of arms confirmed exact.
	TopK int
	// Confirmed holds the exact-tier rows of the top-k arms, in the
	// analytic pass's p99 ranking order (best floor first).
	Confirmed []ReplaySweepRow
}

// ReplayTwoTier runs a replay sweep two-tier: the whole sweep on the
// analytic tier, then the topK arms with the best analytic p99
// normalized-performance floor again on the exact tier (with exact solo
// baselines, so the confirmation rows normalize against the same tier
// they ran on). cfg.Fidelity is ignored; topK <= 0 selects
// DefaultConfirmTopK.
func ReplayTwoTier(tr arrivals.Trace, cfg ReplaySweepConfig, topK int) (*ReplayTwoTierResult, error) {
	if topK <= 0 {
		topK = DefaultConfirmTopK
	}
	acfg := cfg
	acfg.Fidelity = cache.FidelityAnalytic
	ares, err := ReplaySweep(tr, acfg)
	if err != nil {
		return nil, err
	}
	ecfg := cfg
	ecfg.Fidelity = cache.FidelityExact
	es, err := NewReplaySweeper(tr, ecfg)
	if err != nil {
		return nil, err
	}
	// Rows follow the plan's arm order, so ranking row indices ranks the
	// arms' jobs.
	ranked := make([]int, len(ares.Rows))
	for i := range ranked {
		ranked[i] = i
	}
	sort.SliceStable(ranked, func(i, j int) bool { return ares.Rows[ranked[i]].P99 > ares.Rows[ranked[j]].P99 })
	if topK > len(ranked) {
		topK = len(ranked)
	}

	// Exact solo baselines plus the top-k arm replays, as the exact
	// sweeper's own jobs, fanned out like any sweep.
	plan := es.Plan()
	jobs := append([]sweep.Job(nil), plan[:len(es.apps)]...)
	for _, i := range ranked[:topK] {
		jobs = append(jobs, plan[len(es.apps)+i])
	}
	raws := make([]json.RawMessage, len(jobs))
	if err := ForEach(len(jobs), cfg.Workers, func(i int) error {
		raw, err := es.Run(jobs[i])
		raws[i] = raw
		return err
	}); err != nil {
		return nil, err
	}
	solo, err := es.soloBaselines(raws)
	if err != nil {
		return nil, err
	}
	res := &ReplayTwoTierResult{Analytic: ares, TopK: topK}
	for i := len(es.apps); i < len(jobs); i++ {
		var p replayArmPayload
		if err := json.Unmarshal(raws[i], &p); err != nil {
			return nil, fmt.Errorf("%s payload: %w", jobs[i].Key, err)
		}
		res.Confirmed = append(res.Confirmed, es.row(p, solo))
	}
	return res, nil
}

// Tables renders the broad analytic table and the exact-confirmation
// comparison.
func (r ReplayTwoTierResult) Tables() []Table {
	study := &replayStudies[r.Analytic.Study]
	broad := r.Analytic.Table()
	broad.Title += " [analytic broad pass]"
	confirm := Table{
		Title: fmt.Sprintf("Two-tier confirmation: top %d arm(s) re-run exact", r.TopK),
		Note: "the analytic pass ranks arms by p99 normalized perf; only the leaders pay for the exact tier\n" +
			"|err| = |analytic - exact| of the p99 floor",
		Columns: []string{study.armColumn, "p99 analytic", "p99 exact", "p99 |err|", "rej rate analytic", "rej rate exact"},
	}
	byArm := make(map[string]ReplaySweepRow, len(r.Analytic.Rows))
	for _, row := range r.Analytic.Rows {
		byArm[study.metricRow(row).Arm] = row
	}
	for _, row := range r.Confirmed {
		arm := study.metricRow(row).Arm
		a := byArm[arm]
		confirm.AddRow(arm, a.P99, row.P99, math.Abs(a.P99-row.P99),
			fmt.Sprintf("%.1f%%", 100*a.RejectionRate),
			fmt.Sprintf("%.1f%%", 100*row.RejectionRate))
	}
	return []Table{broad, confirm}
}

// TwoTierFig4Result pairs the broad analytic Figure 4 study with the
// exact re-measurement of its most aggressive applications.
type TwoTierFig4Result struct {
	// Analytic is the full broad-pass indicator study.
	Analytic Fig4Result
	// TopK is the number of attackers confirmed exact.
	TopK int
	// Attackers are the confirmed apps, most analytic-aggressive first.
	Attackers []string
	// ExactAggressiveness is each confirmed attacker's aggressiveness
	// re-measured on the exact tier (average degradation inflicted across
	// the nine co-runners, percent).
	ExactAggressiveness map[string]float64
}

// TwoTierFig4 runs the Figure 4 indicator study two-tier: the whole
// 10-solo + 90-pair sweep on the analytic tier, then only the topK most
// aggressive attackers' rows (their 9 pairings each, plus the exact solo
// baselines) on the exact tier — k*9+10 exact worlds instead of 100.
// topK <= 0 selects DefaultConfirmTopK.
func TwoTierFig4(seed uint64, topK int) (*TwoTierFig4Result, error) {
	if topK <= 0 {
		topK = DefaultConfirmTopK
	}
	s := NewFig4SweeperFidelity(seed, cache.FidelityAnalytic)
	if err := (sweep.Engine{}).Run(s); err != nil {
		return nil, err
	}
	ares := *s.Result()
	if topK > len(ares.Apps) {
		topK = len(ares.Apps)
	}
	attackers := append([]string(nil), ares.Apps[:topK]...)

	apps := workload.Figure4Apps()
	keys := make([]string, 0, len(apps)+topK*(len(apps)-1))
	for _, app := range apps {
		keys = append(keys, "solo/"+app)
	}
	for _, a := range attackers {
		for _, b := range apps {
			if a != b {
				keys = append(keys, "pair/"+a+"/"+b)
			}
		}
	}
	raws := make([]json.RawMessage, len(keys))
	if err := ForEach(len(keys), 0, func(i int) error {
		raw, err := fig4RunJob(sweep.Job{Sweep: "fig4", Key: keys[i]}, seed, cache.FidelityExact)
		raws[i] = raw
		return err
	}); err != nil {
		return nil, err
	}
	soloIPC := make(map[string]float64, len(apps))
	for i := range apps {
		var p fig4SoloPayload
		if err := json.Unmarshal(raws[i], &p); err != nil {
			return nil, fmt.Errorf("%s payload: %w", keys[i], err)
		}
		soloIPC[p.App] = p.IPC
	}
	inflicted := make(map[string][]float64, topK)
	for i := len(apps); i < len(keys); i++ {
		var p fig4PairPayload
		if err := json.Unmarshal(raws[i], &p); err != nil {
			return nil, fmt.Errorf("%s payload: %w", keys[i], err)
		}
		deg := stats.DegradationPercent(soloIPC[p.Victim], p.VictimIPC)
		if deg < 0 {
			deg = 0
		}
		inflicted[p.Attacker] = append(inflicted[p.Attacker], deg)
	}
	exact := make(map[string]float64, topK)
	for _, a := range attackers {
		exact[a] = stats.Mean(inflicted[a])
	}
	return &TwoTierFig4Result{Analytic: ares, TopK: topK, Attackers: attackers, ExactAggressiveness: exact}, nil
}

// Tables renders the broad analytic study and the exact-confirmation
// comparison.
func (r TwoTierFig4Result) Tables() []Table {
	broad := r.Analytic.Table()
	broad.Title += " [analytic broad pass]"
	confirm := Table{
		Title:   fmt.Sprintf("Two-tier confirmation: top %d attacker(s) re-run exact", r.TopK),
		Note:    "aggressiveness = avg % degradation inflicted across the 9 co-runners; |err| in percentage points",
		Columns: []string{"app", "aggressiveness analytic", "aggressiveness exact", "|err| pts"},
	}
	for _, a := range r.Attackers {
		confirm.AddRow(a, r.Analytic.Aggressiveness[a], r.ExactAggressiveness[a],
			math.Abs(r.Analytic.Aggressiveness[a]-r.ExactAggressiveness[a]))
	}
	return []Table{broad, confirm}
}

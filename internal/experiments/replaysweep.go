package experiments

// Replay sweeps: the paper's argument made three ways over one VM
// workload. Each study replays the same arrival/departure trace across
// a list of arms on identically seeded fleets and normalizes every
// placed VM against its app class running alone (per-VM lifetime IPC
// over solo IPC), so the rows differ only by the arm's policy:
//
//   - the trace study contrasts the three placement policies —
//     contention-blind first-fit and contention-aware spread run
//     unprotected, while the Kyoto placer books llc_cap permits at
//     admission and enforces them on-host;
//   - the migration study adds the axis operators reach for after the
//     fact: every {rebalancer} x {placer} combination, with a
//     Borg-style pending queue instead of outright rejection, asking
//     whether migrating noisy VMs buys back the tail that permits
//     protect by construction, and at what cost in rejections, queue
//     wait and migrations;
//   - the detection study scores admission, threshold-reactive and
//     signature-reactive (change-point detection) arms against the
//     trace's ground truth: the arrivals of aggressive app classes are
//     the true regime shifts, so a trigger on one of those VMs is a
//     detection and a trigger on anything else a false alarm.
//
// One ReplaySweeper runs all three. A study is an unexported descriptor
// holding what differs — the sweep name, the arm list, the config
// digest, the metric extractor and the table — and everything else
// (defaults, solo-baseline jobs, plan, run, merge, seed replication) is
// shared. The sweeper implements sweep.Sweep: solo-baseline jobs (one
// per distinct app class) plus one replay job per arm, shardable across
// processes and merged bit-identically to the in-process run.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/detect"
	"kyoto/internal/machine"
	"kyoto/internal/stats"
	"kyoto/internal/sweep"
)

// ReplayStudy selects the study a ReplaySweeper runs.
type ReplayStudy int

const (
	// TraceStudy replays the trace through the three placement policies
	// (the zero value).
	TraceStudy ReplayStudy = iota
	// MigrationStudy crosses the placement policies with rebalancers and
	// the pending queue.
	MigrationStudy
	// DetectionStudy scores proactive admission, threshold-reactive and
	// signature-reactive migration against the aggressive-app ground
	// truth.
	DetectionStudy
)

// String returns the study's short name.
func (s ReplayStudy) String() string {
	if s >= 0 && int(s) < len(replayStudies) {
		return replayStudies[s].short
	}
	return fmt.Sprintf("ReplayStudy(%d)", int(s))
}

// DefaultDetectionRebalanceEvery is the detection study's rebalance
// epoch in ticks. The studies that only migrate use the replay engine's
// default of 12; change detection also has to *observe* each VM enough
// times to learn a baseline and confirm a shift within the VM
// lifetimes the committed traces actually have (median a few tens of
// ticks), so the detection study samples three times as often.
const DefaultDetectionRebalanceEvery = 4

// DefaultAggressiveApps are the app classes treated as ground-truth
// regime shifts when they arrive: the paper's Figure-4 polluters, the
// same set arrivals.DefaultMix injects as the aggressive share.
func DefaultAggressiveApps() []string { return []string{"blockie", "lbm", "mcf"} }

// ReplaySweepConfig parameterizes a replay sweep. Hosts, Seed, Workers,
// DrainTicks and Fidelity apply to every study; each remaining knob
// belongs to the studies its comment names, and setting it for another
// study is an error (it would silently change nothing).
type ReplaySweepConfig struct {
	// Study selects the study (default TraceStudy).
	Study ReplayStudy
	// Hosts is the fleet size each arm gets (default 4).
	Hosts int
	// Seed seeds every fleet and the solo baselines (default 1).
	Seed uint64
	// Workers caps each fleet's RunTicks concurrency and the sweep's job
	// fan-out (0 = GOMAXPROCS). It changes scheduling only, never
	// results, so it stays out of the config digest.
	Workers int
	// DrainTicks extends the replay past the last event so VMs that
	// never depart accumulate a window (default DefaultMeasureTicks).
	DrainTicks int
	// Fidelity selects the cache-model tier for every fleet and the solo
	// baselines (default cache.FidelityExact). It enters the config
	// digest, so shards run at different fidelities refuse to merge.
	Fidelity cache.Fidelity
	// Overrides optionally makes the fleets heterogeneous; the same
	// overrides apply under every arm. Trace and migration studies.
	Overrides map[int]cluster.HostOverride
	// BigLLCFactor, when non-zero (a power of two), gives the highest-ID
	// host an LLC and permit budget scaled by this factor — the
	// heterogeneous fleet the topology-aware rebalancer steers polluters
	// to. An explicit Overrides entry for that host wins. Migration
	// study.
	BigLLCFactor int
	// Rebalancers names the rebalancing arms to sweep (default none,
	// reactive, topo — pinned explicitly, not cluster.RebalancerNames,
	// so the committed sweep fingerprints survive new policies being
	// registered; ask for "signature" by name). Migration study.
	Rebalancers []string
	// RebalanceEvery is the rebalance epoch in ticks (default
	// arrivals.DefaultRebalanceEvery for the migration study,
	// DefaultDetectionRebalanceEvery for the detection study).
	RebalanceEvery uint64
	// Downtime is the per-migration blackout in ticks (default 0).
	// Migration and detection studies.
	Downtime int
	// Pending is the queue policy applied to rejected arrivals in every
	// arm (default PendingNone: reject outright). Migration study.
	Pending arrivals.PendingPolicy
	// MaxWait bounds queue waits under PendingDeadline (default
	// arrivals.DefaultMaxWait). Migration study.
	MaxWait uint64
	// Detector configures the change-point detectors of any signature
	// arm (zero value = detect defaults). Migration and detection
	// studies.
	Detector detect.Config
	// Threshold is the Equation-1 rate floor both reactive arms act at
	// (default cluster.DefaultRebalanceThreshold). Detection study.
	Threshold float64
	// AggressiveApps overrides the ground-truth app classes (default
	// DefaultAggressiveApps). Detection study.
	AggressiveApps []string
}

// ReplaySweepRow is one arm's outcome. Every study fills the placement
// fields; the wait, migration and detection fields are meaningful for
// the studies that produce them and zero otherwise.
type ReplaySweepRow struct {
	// Arm names a detection-study arm (admission, reactive, signature).
	Arm string
	// Placer and Rebalancer name the arm's policies (Rebalancer is set
	// by the migration study only); Enforced reports whether per-host
	// Kyoto permit enforcement was active (the kyoto placer's contract).
	Placer     string
	Rebalancer string
	Enforced   bool
	// Submitted/Placed/Rejected count VMs; RejectionRate is
	// Rejected/Submitted.
	Submitted     int
	Placed        int
	Rejected      int
	RejectionRate float64
	// CPUUtilization is the time-weighted mean booked vCPU share.
	CPUUtilization float64
	// WaitP50/P95/P99 are percentiles of the placed VMs' pending-queue
	// wait in ticks (all zero when the queue is disabled or never used).
	// Waits are lower-is-better, so pXX is the plain XXth percentile.
	WaitP50, WaitP95, WaitP99 float64
	// MigrationCount is the number of live migrations applied.
	MigrationCount int
	// P50, P95 and P99 are tail-oriented percentiles of per-VM
	// normalized performance (lifetime IPC over the app's solo IPC, 1.0
	// = as if alone): PXX is the normalized performance that XX% of
	// placed VMs meet or exceed, so P99 is the floor at the slowest 1%
	// boundary — where churn-driven unpredictability lives.
	P50, P95, P99 float64
	// Triggers counts a detection arm's actionable detection events —
	// the applied migrations, each an explicit "this VM is the problem"
	// claim — zero for admission-only. ChangePointCount additionally
	// reports the signature arm's raw confirmed change points (its
	// victim-side evidence; a change point names the VM whose series
	// shifted, the eviction it triggers names the polluter).
	Triggers         int
	ChangePointCount int
	// FalseTriggers are triggers on VMs outside the aggressive ground
	// truth; FalseTriggerRate is FalseTriggers/Triggers (0 when the arm
	// never triggered).
	FalseTriggers    int
	FalseTriggerRate float64
	// AggressiveVMs counts placed ground-truth VMs; Detected counts how
	// many of them the arm triggered on at least once.
	AggressiveVMs int
	Detected      int
	// MeanTimeToDetect is the mean of (first trigger tick - placed
	// tick) over detected VMs, in ticks (0 when nothing was detected).
	MeanTimeToDetect float64
	// Replay and ChangePoints carry the full per-VM outcome and the
	// detection study's signature change-point log for deeper analysis.
	Replay       arrivals.Result
	ChangePoints []cluster.ChangePoint
}

// ReplaySweepResult is the whole sweep.
type ReplaySweepResult struct {
	Study   ReplayStudy
	Hosts   int
	Pending arrivals.PendingPolicy
	Rows    []ReplaySweepRow
}

// Table renders the study's comparison table, as the CLIs print it.
func (r ReplaySweepResult) Table() Table { return replayStudies[r.Study].table(r) }

// replayArm is one arm of a study's plan.
type replayArm struct {
	// name is the detection study's arm label.
	name     string
	placer   cluster.Placer
	enforced bool
	// rebalancer is the built-in rebalancer the arm replays under ("" or
	// "none" = no rebalancing).
	rebalancer string
}

// replayArmPayload is the canonical JSON result of one arm. Each study
// fills exactly the fields its payload has always carried — the trace
// study leaves rebalancer empty, only detection names the arm and logs
// change points — so omitempty keeps all three layouts byte-identical
// to the committed goldens.
type replayArmPayload struct {
	Arm          string                `json:"arm,omitempty"`
	Placer       string                `json:"placer"`
	Rebalancer   string                `json:"rebalancer,omitempty"`
	Enforced     bool                  `json:"enforced"`
	Replay       arrivals.Result       `json:"replay"`
	ChangePoints []cluster.ChangePoint `json:"change_points,omitempty"`
}

// soloPayload is the canonical JSON result of one solo-baseline job.
type soloPayload struct {
	App string  `json:"app"`
	IPC float64 `json:"ipc"`
}

// replayStudy is what distinguishes one study from another; everything
// else about a replay sweep is shared.
type replayStudy struct {
	// short is the study's String form; name is its sweep.Sweep name.
	short, name string
	// knobs lists the study-specific config fields the study reads.
	knobs []string
	// defaults fills the study's own config defaults (nil = none).
	defaults func(*ReplaySweepConfig)
	// arms is the plan's arm list, in row order.
	arms func(ReplaySweepConfig) ([]replayArm, error)
	// job returns an arm's job key and echoed params.
	job func(replayArm) (string, map[string]string)
	// payload fills the arm identity fields the study's payload carries;
	// changePoints adds the signature arm's change-point log.
	payload      func(replayArm) replayArmPayload
	changePoints bool
	// digest is the study's config-digest struct.
	digest func(ReplaySweepConfig) interface{}
	// metrics and metricRow are the study's seed-sweep extractor.
	metrics   []string
	metricRow func(ReplaySweepRow) sweep.MetricRow
	// armColumn heads the two-tier confirmation table's arm column.
	armColumn string
	// table renders the merged result.
	table func(ReplaySweepResult) Table
}

// replayPlacers are the placement arms: the two unprotected families
// the paper contrasts, then Kyoto admission with on-host enforcement.
var replayPlacers = []replayArm{
	{placer: cluster.FirstFit{}},
	{placer: cluster.Spread{}},
	{placer: cluster.Admission{}, enforced: true},
}

// detectionArms are the detection study's arms: the paper's proactive
// admission answer, then the two reactive policies on unprotected
// first-fit fleets (reaction is what operators do *instead* of
// admission control, so the reactive arms run without Kyoto
// enforcement).
var detectionArms = []replayArm{
	{name: "admission", placer: cluster.Admission{}, enforced: true},
	{name: "reactive", placer: cluster.FirstFit{}, rebalancer: "reactive"},
	{name: "signature", placer: cluster.FirstFit{}, rebalancer: "signature"},
}

// replayStudies holds the three study descriptors, indexed by
// ReplayStudy.
var replayStudies = [...]replayStudy{
	TraceStudy: {
		short: "trace", name: "trace-sweep",
		knobs: []string{"Overrides"},
		arms:  func(ReplaySweepConfig) ([]replayArm, error) { return replayPlacers, nil },
		job: func(a replayArm) (string, map[string]string) {
			return a.placer.Name(), map[string]string{"placer": a.placer.Name(), "enforced": fmt.Sprint(a.enforced)}
		},
		payload: func(a replayArm) replayArmPayload {
			return replayArmPayload{Placer: a.placer.Name(), Enforced: a.enforced}
		},
		digest: func(c ReplaySweepConfig) interface{} {
			return struct {
				Hosts      int
				Seed       uint64
				DrainTicks int
				Overrides  map[int]cluster.HostOverride
				Fidelity   string `json:",omitempty"`
			}{c.Hosts, c.Seed, c.DrainTicks, c.Overrides, fidelityTag(c.Fidelity)}
		},
		metrics: []string{"rej_rate", "cpu_util", "p50_norm", "p95_norm", "p99_norm"},
		metricRow: func(row ReplaySweepRow) sweep.MetricRow {
			return sweep.MetricRow{
				Arm:    row.Placer,
				Values: []float64{row.RejectionRate, row.CPUUtilization, row.P50, row.P95, row.P99},
			}
		},
		armColumn: "placer",
		table:     traceTable,
	},
	MigrationStudy: {
		short: "migration", name: "migration-sweep",
		knobs: []string{"Overrides", "BigLLCFactor", "Rebalancers", "RebalanceEvery", "Downtime", "Pending", "MaxWait", "Detector"},
		defaults: func(c *ReplaySweepConfig) {
			if len(c.Rebalancers) == 0 {
				c.Rebalancers = []string{"none", "reactive", "topo"}
			}
		},
		arms: func(c ReplaySweepConfig) ([]replayArm, error) {
			// Rebalancer-major in the order requested, placers within.
			var arms []replayArm
			for _, name := range c.Rebalancers {
				// Resolve now so a bogus name fails at plan time; each job
				// builds its own instance.
				if _, err := cluster.RebalancerByName(name); err != nil {
					return nil, err
				}
				for _, p := range replayPlacers {
					p.rebalancer = name
					arms = append(arms, p)
				}
			}
			return arms, nil
		},
		job: func(a replayArm) (string, map[string]string) {
			return a.rebalancer + "/" + a.placer.Name(), map[string]string{"rebalancer": a.rebalancer, "placer": a.placer.Name()}
		},
		payload: func(a replayArm) replayArmPayload {
			return replayArmPayload{Placer: a.placer.Name(), Rebalancer: a.rebalancer, Enforced: a.enforced}
		},
		digest: func(c ReplaySweepConfig) interface{} {
			return struct {
				Hosts          int
				Seed           uint64
				DrainTicks     int
				Overrides      map[int]cluster.HostOverride
				BigLLCFactor   int
				Rebalancers    []string
				RebalanceEvery uint64
				Downtime       int
				Pending        arrivals.PendingPolicy
				MaxWait        uint64
				Detector       *detect.Config `json:",omitempty"`
				Fidelity       string         `json:",omitempty"`
			}{c.Hosts, c.Seed, c.DrainTicks, c.Overrides, c.BigLLCFactor,
				c.Rebalancers, c.RebalanceEvery, c.Downtime, c.Pending, c.MaxWait,
				detectorTag(c.Detector), fidelityTag(c.Fidelity)}
		},
		// wait_p99_small / wait_p99_large split the tail wait by VM size
		// class (arrivals.SmallVMMaxCPUs), making SJF starvation of large
		// VMs visible; both are 0 for traces whose VMs all share one
		// class.
		metrics: []string{
			"rej_rate", "cpu_util",
			"wait_p50", "wait_p95", "wait_p99", "wait_p99_small", "wait_p99_large",
			"migrations", "p50_norm", "p99_norm",
		},
		metricRow: func(row ReplaySweepRow) sweep.MetricRow {
			smallWaits, largeWaits := row.Replay.PlacedWaitsByClass()
			return sweep.MetricRow{
				Arm: row.Placer + "/" + row.Rebalancer,
				Values: []float64{
					row.RejectionRate, row.CPUUtilization,
					row.WaitP50, row.WaitP95, row.WaitP99,
					percentileOrZero(smallWaits, 99), percentileOrZero(largeWaits, 99),
					float64(row.MigrationCount), row.P50, row.P99,
				},
			}
		},
		armColumn: "placer/migrate",
		table:     migrationTable,
	},
	DetectionStudy: {
		short: "detection", name: "detection-sweep",
		knobs: []string{"RebalanceEvery", "Downtime", "Detector", "Threshold", "AggressiveApps"},
		defaults: func(c *ReplaySweepConfig) {
			if c.RebalanceEvery == 0 {
				c.RebalanceEvery = DefaultDetectionRebalanceEvery
			}
			if len(c.AggressiveApps) == 0 {
				c.AggressiveApps = DefaultAggressiveApps()
			}
		},
		arms: func(ReplaySweepConfig) ([]replayArm, error) { return detectionArms, nil },
		job: func(a replayArm) (string, map[string]string) {
			return a.name, map[string]string{"arm": a.name, "placer": a.placer.Name()}
		},
		payload: func(a replayArm) replayArmPayload {
			return replayArmPayload{Arm: a.name, Placer: a.placer.Name(), Enforced: a.enforced}
		},
		changePoints: true,
		digest: func(c ReplaySweepConfig) interface{} {
			return struct {
				Hosts          int
				Seed           uint64
				DrainTicks     int
				RebalanceEvery uint64
				Downtime       int
				Threshold      float64
				Detector       detect.Config
				AggressiveApps []string
				Fidelity       string `json:",omitempty"`
			}{c.Hosts, c.Seed, c.DrainTicks, c.RebalanceEvery, c.Downtime,
				c.Threshold, c.Detector, c.AggressiveApps, fidelityTag(c.Fidelity)}
		},
		// Trigger volume and quality (false-trigger rate, coverage,
		// time-to-detect) alongside the usual performance floor.
		metrics: []string{"placed", "triggers", "chgpts", "false_rate", "detected", "mean_ttd", "p99_norm"},
		metricRow: func(row ReplaySweepRow) sweep.MetricRow {
			return sweep.MetricRow{
				Arm: row.Arm,
				Values: []float64{
					float64(row.Placed), float64(row.Triggers), float64(row.ChangePointCount),
					row.FalseTriggerRate, float64(row.Detected), row.MeanTimeToDetect, row.P99,
				},
			}
		},
		armColumn: "arm",
		table:     detectionTable,
	},
}

// ReplaySweeper is the shardable replay sweep: it implements
// sweep.Sweep, so its jobs can be planned, run shard-by-shard across
// processes, and merged into the same ReplaySweepResult the in-process
// run produces, and sweep.Seedable, so sweep.SeedSweeper can replicate
// it across seeds. Use NewReplaySweeper, then either sweep.Engine.Run
// for a single process or RunShard/Merge for a distributed one; Result
// returns the merged outcome.
type ReplaySweeper struct {
	tr        arrivals.Trace
	cfg       ReplaySweepConfig
	study     *replayStudy
	apps      []string
	arms      []replayArm
	overrides map[int]cluster.HostOverride
	res       *ReplaySweepResult
}

// NewReplaySweeper validates the trace and config, applies the
// defaults and returns the shardable sweep.
func NewReplaySweeper(tr arrivals.Trace, cfg ReplaySweepConfig) (*ReplaySweeper, error) {
	if cfg.Study < 0 || int(cfg.Study) >= len(replayStudies) {
		return nil, fmt.Errorf("experiments: unknown replay study %d", int(cfg.Study))
	}
	study := &replayStudies[cfg.Study]
	if err := checkStudyKnobs(cfg, study); err != nil {
		return nil, err
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.DrainTicks == 0 {
		cfg.DrainTicks = DefaultMeasureTicks
	}
	if study.defaults != nil {
		study.defaults(&cfg)
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if err := (&cluster.Signature{Detector: cfg.Detector}).Validate(); err != nil {
		return nil, err
	}
	arms, err := study.arms(cfg)
	if err != nil {
		return nil, err
	}
	overrides, err := bigLLCOverrides(cfg)
	if err != nil {
		return nil, err
	}
	return &ReplaySweeper{
		tr: tr, cfg: cfg, study: study, apps: traceApps(tr), arms: arms, overrides: overrides,
	}, nil
}

// checkStudyKnobs rejects study-specific knobs the selected study never
// reads: they would change neither the results nor the config digest.
func checkStudyKnobs(cfg ReplaySweepConfig, study *replayStudy) error {
	set := []struct {
		name string
		set  bool
	}{
		{"Overrides", len(cfg.Overrides) > 0},
		{"BigLLCFactor", cfg.BigLLCFactor != 0},
		{"Rebalancers", len(cfg.Rebalancers) > 0},
		{"RebalanceEvery", cfg.RebalanceEvery != 0},
		{"Downtime", cfg.Downtime != 0},
		{"Pending", cfg.Pending != arrivals.PendingNone},
		{"MaxWait", cfg.MaxWait != 0},
		{"Detector", cfg.Detector != (detect.Config{})},
		{"Threshold", cfg.Threshold != 0},
		{"AggressiveApps", len(cfg.AggressiveApps) > 0},
	}
	for _, k := range set {
		if !k.set {
			continue
		}
		found := false
		for _, name := range study.knobs {
			found = found || name == k.name
		}
		if !found {
			return fmt.Errorf("experiments: %s does not apply to the %s study", k.name, study.short)
		}
	}
	return nil
}

// Name implements sweep.Sweep.
func (s *ReplaySweeper) Name() string { return s.study.name }

// ConfigFingerprint implements sweep.ConfigFingerprinter: a digest of
// the trace and every result-shaping knob of the study (Workers is
// excluded — it only changes scheduling, never results).
func (s *ReplaySweeper) ConfigFingerprint() string {
	data, err := json.Marshal(struct {
		Trace arrivals.Trace `json:"trace"`
		Cfg   interface{}    `json:"cfg"`
	}{s.tr, s.study.digest(s.cfg)})
	if err != nil {
		// Still caught at merge: both sides would need the same failure.
		return "unmarshalable-config"
	}
	return sweep.FingerprintPayload(data)
}

// Plan implements sweep.Sweep: one solo-baseline job per distinct app
// class, then one replay job per arm in the study's row order.
func (s *ReplaySweeper) Plan() []sweep.Job {
	jobs := make([]sweep.Job, 0, len(s.apps)+len(s.arms))
	for _, app := range s.apps {
		jobs = append(jobs, sweep.Job{
			Sweep: s.Name(), Key: "solo/" + app, Index: len(jobs), Seed: s.cfg.Seed,
			Params: map[string]string{"app": app},
		})
	}
	for _, a := range s.arms {
		key, params := s.study.job(a)
		jobs = append(jobs, sweep.Job{
			Sweep: s.Name(), Key: "arm/" + key, Index: len(jobs), Seed: s.cfg.Seed, Params: params,
		})
	}
	return jobs
}

// Run implements sweep.Sweep.
func (s *ReplaySweeper) Run(job sweep.Job) (json.RawMessage, error) {
	if app, ok := strings.CutPrefix(job.Key, "solo/"); ok {
		ipc, err := soloIPC(app, s.cfg.Seed, s.cfg.Fidelity)
		if err != nil {
			return nil, err
		}
		return json.Marshal(soloPayload{App: app, IPC: ipc})
	}
	a, err := s.armByKey(job.Key)
	if err != nil {
		return nil, err
	}
	// A fresh rebalancer per job: the built-ins carry per-replay state
	// (cooldowns, detectors), which must not leak between arms (or
	// between the shards of a distributed run, which could never share
	// it anyway).
	rb, err := s.rebalancer(a.rebalancer)
	if err != nil {
		return nil, err
	}
	f, err := cluster.New(cluster.Config{
		Hosts:     s.cfg.Hosts,
		Template:  cluster.HostTemplate{Seed: s.cfg.Seed, EnableKyoto: a.enforced, Fidelity: s.cfg.Fidelity},
		Overrides: s.overrides,
		Placer:    a.placer,
		Workers:   s.cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	replay, err := arrivals.Replay(f, s.tr, arrivals.Options{
		DrainTicks:        s.cfg.DrainTicks,
		Pending:           s.cfg.Pending,
		MaxWait:           s.cfg.MaxWait,
		Rebalancer:        rb,
		RebalanceEvery:    s.cfg.RebalanceEvery,
		MigrationDowntime: s.cfg.Downtime,
	})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", job.Key, err)
	}
	p := s.study.payload(a)
	p.Replay = replay
	if sig, ok := rb.(*cluster.Signature); ok && s.study.changePoints {
		p.ChangePoints = sig.ChangePoints()
	}
	return json.Marshal(p)
}

// armByKey resolves an "arm/..." job key.
func (s *ReplaySweeper) armByKey(key string) (replayArm, error) {
	for _, a := range s.arms {
		if k, _ := s.study.job(a); key == "arm/"+k {
			return a, nil
		}
	}
	return replayArm{}, fmt.Errorf("unknown job key %q", key)
}

// rebalancer builds a fresh instance of the named built-in policy with
// the sweep's knobs: the reactive floor, the signature detectors, and
// the trace-derived lifetime context of armRebalancer.
func (s *ReplaySweeper) rebalancer(name string) (cluster.Rebalancer, error) {
	rb, err := cluster.RebalancerByName(name)
	if err != nil {
		return nil, err
	}
	switch r := rb.(type) {
	case *cluster.Reactive:
		r.Threshold = s.cfg.Threshold
	case *cluster.Signature:
		r.Threshold = s.cfg.Threshold
		r.Detector = s.cfg.Detector
		armRebalancer(r, s.tr, s.cfg.RebalanceEvery)
	}
	return rb, nil
}

// Merge implements sweep.Sweep: solo payloads become the normalization
// baselines, arm payloads become rows.
func (s *ReplaySweeper) Merge(payloads []json.RawMessage) error {
	solo, err := s.soloBaselines(payloads[:len(s.apps)])
	if err != nil {
		return err
	}
	res := &ReplaySweepResult{Study: s.cfg.Study, Hosts: s.cfg.Hosts, Pending: s.cfg.Pending}
	for i, raw := range payloads[len(s.apps):] {
		var p replayArmPayload
		if err := json.Unmarshal(raw, &p); err != nil {
			return fmt.Errorf("arm payload %d: %w", i, err)
		}
		res.Rows = append(res.Rows, s.row(p, solo))
	}
	s.res = res
	return nil
}

// soloBaselines folds the solo-baseline payloads into the per-app IPC
// map rows normalize against.
func (s *ReplaySweeper) soloBaselines(payloads []json.RawMessage) (map[string]float64, error) {
	solo := make(map[string]float64, len(s.apps))
	for i, app := range s.apps {
		var p soloPayload
		if err := json.Unmarshal(payloads[i], &p); err != nil {
			return nil, fmt.Errorf("solo/%s payload: %w", app, err)
		}
		solo[p.App] = p.IPC
	}
	return solo, nil
}

// Result returns the merged sweep outcome; it is nil until Merge ran.
func (s *ReplaySweeper) Result() *ReplaySweepResult { return s.res }

// Reseed implements sweep.Seedable: an independent sweep over the same
// trace and configuration, seeded differently.
func (s *ReplaySweeper) Reseed(seed uint64) (sweep.Seedable, error) {
	cfg := s.cfg
	cfg.Seed = seed
	return NewReplaySweeper(s.tr, cfg)
}

// MetricNames implements sweep.Seedable.
func (s *ReplaySweeper) MetricNames() []string {
	return append([]string(nil), s.study.metrics...)
}

// MetricRows implements sweep.Seedable: one row per arm.
func (s *ReplaySweeper) MetricRows() []sweep.MetricRow {
	if s.res == nil {
		return nil
	}
	rows := make([]sweep.MetricRow, len(s.res.Rows))
	for i, row := range s.res.Rows {
		rows[i] = s.study.metricRow(row)
	}
	return rows
}

// row folds one arm payload into its result row, normalizing against
// the solo baselines and, in the detection study, scoring the arm's
// triggers against the aggressive-app ground truth.
func (s *ReplaySweeper) row(p replayArmPayload, solo map[string]float64) ReplaySweepRow {
	row := ReplaySweepRow{
		Arm:              p.Arm,
		Placer:           p.Placer,
		Rebalancer:       p.Rebalancer,
		Enforced:         p.Enforced,
		Submitted:        len(p.Replay.Records),
		Placed:           p.Replay.Placed,
		Rejected:         p.Replay.Rejected,
		RejectionRate:    p.Replay.RejectionRate(),
		CPUUtilization:   p.Replay.CPUUtilization,
		MigrationCount:   len(p.Replay.Migrations),
		ChangePointCount: len(p.ChangePoints),
		Replay:           p.Replay,
		ChangePoints:     p.ChangePoints,
	}
	if waits := p.Replay.PlacedWaits(); len(waits) > 0 {
		row.WaitP50, _ = stats.Percentile(waits, 50)
		row.WaitP95, _ = stats.Percentile(waits, 95)
		row.WaitP99, _ = stats.Percentile(waits, 99)
	}
	if norm := normalizedPerf(p.Replay, solo); len(norm) > 0 {
		// PXX = the perf floor XX% of VMs meet, i.e. the (100-XX)th
		// percentile of the higher-is-better distribution. Errors are
		// impossible here (non-empty sample, valid p).
		row.P50, _ = stats.Percentile(norm, 50)
		row.P95, _ = stats.Percentile(norm, 5)
		row.P99, _ = stats.Percentile(norm, 1)
	}
	if len(s.cfg.AggressiveApps) > 0 {
		scoreTriggers(&row, s.cfg.AggressiveApps)
	}
	return row
}

// scoreTriggers scores a detection arm's triggers — its applied
// migrations, each an explicit claim that the migrated VM was the
// problem — against the ground truth that every placed aggressive VM
// is one regime shift, at its placement tick. Both reactive arms are
// scored on the same footing: threshold reaction and signature
// confirmation differ in *when and whom* they move, which is exactly
// what the match measures. Admission-only never triggers.
func scoreTriggers(row *ReplaySweepRow, aggressiveApps []string) {
	aggressive := make(map[string]bool, len(aggressiveApps))
	for _, app := range aggressiveApps {
		aggressive[app] = true
	}
	onset := make(map[string]uint64)
	for _, rec := range row.Replay.Records {
		if !rec.Rejected && aggressive[rec.App] {
			onset[rec.Name] = rec.PlacedTick
			row.AggressiveVMs++
		}
	}
	firstHit := make(map[string]uint64)
	for _, m := range row.Replay.Migrations {
		row.Triggers++
		if _, isTruth := onset[m.Name]; !isTruth {
			row.FalseTriggers++
			continue
		}
		if prev, seen := firstHit[m.Name]; !seen || m.Tick < prev {
			firstHit[m.Name] = m.Tick
		}
	}
	if row.Triggers > 0 {
		row.FalseTriggerRate = float64(row.FalseTriggers) / float64(row.Triggers)
	}
	// Fold in record order, not map order: float sums must accumulate
	// deterministically for sharded and serial merges to stay bitwise
	// identical.
	var lagSum float64
	for _, rec := range row.Replay.Records {
		tick, ok := firstHit[rec.Name]
		if !ok {
			continue
		}
		row.Detected++
		if tick > onset[rec.Name] {
			lagSum += float64(tick - onset[rec.Name])
		}
	}
	if row.Detected > 0 {
		row.MeanTimeToDetect = lagSum / float64(row.Detected)
	}
}

// ReplaySweep replays the trace through every arm of the configured
// study on identically seeded fleets and returns the merged rows. The
// whole sweep is deterministic for a given trace and config; it is the
// single-process path through ReplaySweeper — sharded runs of the same
// sweep merge to the identical result.
func ReplaySweep(tr arrivals.Trace, cfg ReplaySweepConfig) (*ReplaySweepResult, error) {
	s, err := NewReplaySweeper(tr, cfg)
	if err != nil {
		return nil, err
	}
	if err := (sweep.Engine{Workers: cfg.Workers}).Run(s); err != nil {
		return nil, err
	}
	return s.Result(), nil
}

// NewDetectionBenchSweeper is the kyotobench "detection" entry: the
// three-arm detection study over a seeded synthetic churn trace (the
// DefaultMix quiet-to-aggressive ratio, 48 VMs) with the default
// detector tuning.
func NewDetectionBenchSweeper(seed uint64, fid cache.Fidelity) (*ReplaySweeper, error) {
	tr := arrivals.Synthesize(arrivals.SynthConfig{Seed: seed, VMs: 48})
	return NewReplaySweeper(tr, ReplaySweepConfig{Study: DetectionStudy, Seed: seed, Fidelity: fid})
}

// bigLLCOverrides merges cfg.Overrides with the BigLLCFactor host.
func bigLLCOverrides(cfg ReplaySweepConfig) (map[int]cluster.HostOverride, error) {
	if cfg.BigLLCFactor == 0 {
		return cfg.Overrides, nil
	}
	if cfg.BigLLCFactor < 0 || cfg.BigLLCFactor&(cfg.BigLLCFactor-1) != 0 {
		return nil, fmt.Errorf("experiments: BigLLCFactor %d is not a power of two (cache sets must stay a power of two)", cfg.BigLLCFactor)
	}
	overrides := make(map[int]cluster.HostOverride, len(cfg.Overrides)+1)
	for id, o := range cfg.Overrides {
		overrides[id] = o
	}
	big := cfg.Hosts - 1
	if _, ok := overrides[big]; !ok {
		m := machine.TableOne(cfg.Seed)
		m.LLC.SizeBytes *= cfg.BigLLCFactor
		cores := m.Sockets * m.CoresPerSocket
		overrides[big] = cluster.HostOverride{
			Machine:   m,
			LLCBudget: float64(cores*cluster.DefaultLLCCapPerCore) * float64(cfg.BigLLCFactor),
		}
	}
	return overrides, nil
}

// detectorTag returns the config-digest form of a detector config: nil
// for the zero value, so sweeps that never touch the detector knobs
// keep their committed fingerprints (the fidelityTag pattern).
func detectorTag(cfg detect.Config) *detect.Config {
	if cfg == (detect.Config{}) {
		return nil
	}
	return &cfg
}

// armRebalancer gives a Signature rebalancer the trace's empirical
// lifetime statistics and the replay's rebalance cadence, so its
// amortization check reasons in the trace's own tick scale.
func armRebalancer(sig *cluster.Signature, tr arrivals.Trace, every uint64) {
	if every == 0 {
		every = arrivals.DefaultRebalanceEvery
	}
	sig.EpochTicks = every
	sig.Lifetimes = arrivals.NewLifetimeStats(tr)
}

// traceApps returns the distinct app classes of the trace, sorted — the
// solo-baseline jobs of a sweep plan.
func traceApps(tr arrivals.Trace) []string {
	seen := make(map[string]bool)
	apps := make([]string, 0, 8)
	for _, e := range tr.Events {
		if !seen[e.App] {
			seen[e.App] = true
			apps = append(apps, e.App)
		}
	}
	sort.Strings(apps)
	return apps
}

// soloIPC runs one app class alone on a template host and returns its
// IPC — the denominator of normalized performance. The baseline runs on
// the same fidelity tier as the fleets it normalizes, so a tier's
// systematic bias cancels out of the ratio.
func soloIPC(app string, seed uint64, fid cache.Fidelity) (float64, error) {
	sc := soloScenario(app, seed)
	sc.Fidelity = fid
	r, err := Run(sc)
	if err != nil {
		return 0, fmt.Errorf("solo baseline %s: %w", app, err)
	}
	return r.IPC("solo"), nil
}

// normalizedPerf computes per-VM lifetime IPC over the app's solo IPC for
// every placed VM with a measurable window, in record order.
func normalizedPerf(replay arrivals.Result, solo map[string]float64) []float64 {
	var norm []float64
	for _, rec := range replay.Records {
		base := solo[rec.App]
		if rec.Rejected || base == 0 || rec.Counters.UnhaltedCycles == 0 {
			continue
		}
		norm = append(norm, rec.Counters.IPC()/base)
	}
	return norm
}

// traceTable renders the trace study as the rejection-rate / p99
// comparison the kyotosim -trace CLI prints.
func traceTable(r ReplaySweepResult) Table {
	t := Table{
		Title: fmt.Sprintf("Trace sweep: 3 placers, %d hosts", r.Hosts),
		Note: "normalized perf = per-VM lifetime IPC / solo IPC (1.0 = as if alone); pXX = floor XX% of VMs meet; " +
			"first-fit and spread run unprotected, kyoto books and enforces llc_cap permits",
		Columns: []string{"placer", "enforced", "placed", "rejected", "rej rate", "cpu util", "p50 norm", "p95 norm", "p99 norm"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Placer, row.Enforced, row.Placed, row.Rejected,
			fmt.Sprintf("%.1f%%", 100*row.RejectionRate),
			fmt.Sprintf("%.1f%%", 100*row.CPUUtilization),
			row.P50, row.P95, row.P99)
	}
	return t
}

// migrationTable renders the migration study as the
// migration-vs-admission comparison the kyotosim -migrate CLI prints.
func migrationTable(r ReplaySweepResult) Table {
	t := Table{
		Title: fmt.Sprintf("Migration sweep: %d hosts, pending=%s", r.Hosts, r.Pending),
		Note: "normalized perf = per-VM lifetime IPC / solo IPC (1.0 = as if alone); p99 norm = floor 99% of VMs meet; " +
			"wait pXX = pending-queue wait (ticks) XX% of placed VMs stayed under; " +
			"first-fit and spread run unprotected, kyoto books and enforces llc_cap permits",
		Columns: []string{"placer", "migrate", "placed", "rejected", "rej rate", "wait p50", "wait p95", "wait p99", "migs", "p99 norm"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Placer, row.Rebalancer, row.Placed, row.Rejected,
			fmt.Sprintf("%.1f%%", 100*row.RejectionRate),
			row.WaitP50, row.WaitP95, row.WaitP99,
			row.MigrationCount, row.P99)
	}
	return t
}

// detectionTable renders the detection study as the detection-quality
// comparison the kyotobench detection experiment prints.
func detectionTable(r ReplaySweepResult) Table {
	t := Table{
		Title: fmt.Sprintf("Detection sweep: 3 arms, %d hosts", r.Hosts),
		Note: "triggers = applied migrations (each claims its VM was the problem); chgpts = confirmed change points (signature only); " +
			"false rate = triggers on non-aggressive VMs / triggers; ttd = mean ticks from aggressive-VM arrival to first trigger; " +
			"p99 norm = per-VM lifetime IPC over solo IPC floor 99% of VMs meet",
		Columns: []string{"arm", "placer", "placed", "chgpts", "triggers", "false rate", "detected", "mean ttd", "p99 norm"},
	}
	for _, row := range r.Rows {
		falseRate := "-"
		if row.Triggers > 0 {
			falseRate = fmt.Sprintf("%.1f%%", 100*row.FalseTriggerRate)
		}
		t.AddRow(row.Arm, row.Placer, row.Placed, row.ChangePointCount, row.Triggers,
			falseRate, fmt.Sprintf("%d/%d", row.Detected, row.AggressiveVMs),
			fmt.Sprintf("%.1f", row.MeanTimeToDetect), row.P99)
	}
	return t
}

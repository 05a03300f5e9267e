package main

import (
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"kyoto/internal/arrivals"
	"kyoto/internal/cache"
	"kyoto/internal/cluster"
	"kyoto/internal/experiments"
	"kyoto/internal/hv"
	"kyoto/internal/snapshot"
	"kyoto/internal/sweep"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// unit names what throughput_per_s counts.
	unit string
	// sizes describe the inputs, for the provenance record.
	sizes map[string]any
	// setupReps is how many extra set-ups run before the timed loop so
	// the set-up median rests on enough samples.
	setupReps int
	// setupOnly builds the inputs of one iteration and discards them.
	setupOnly func(seed uint64) (time.Duration, error)
	// iterate builds the inputs (timed as set-up) and runs one pass
	// (timed as wall); t is nil in untraced phases.
	iterate func(seed uint64, t *tracer, iter int) (iteration, error)
}

// iteration is one pass over a workload.
type iteration struct {
	setup, wall time.Duration
	// work is the number of units throughput_per_s counts.
	work int
	ops  []op
	// counts are the pass's deterministic work counts.
	counts map[string]uint64
}

// op is one checked operation: a replay arm, a resume check or a sweep
// job. err is set when it failed outright.
type op struct {
	key, fingerprint string
	err              error
}

var workloads = map[string]*workload{}

func init() {
	for _, w := range []*workload{churnSparse.workload(), churnExact.workload(), fig4Exact()} {
		workloads[w.name] = w
	}
}

// churnSparse is a scaled-down version of the README's million-arrival
// headline: a sparse trace (mean lifetime 5 ticks, 60 ticks per arrival)
// on 12 analytic hosts. Nearly every host-tick is idle, so it exercises
// the fleet-advancement layer (seeks, idle fast-forward, drainers), the
// analytic busy tick and VM install, and none of the exact cache,
// snapshot or rebalancer layers.
var churnSparse = churnSpec{
	name:     "churn-sparse",
	hosts:    12,
	fidelity: cache.FidelityAnalytic,
	size:     2000,
	trace: func(seed uint64, vms int) arrivals.Trace {
		return arrivals.Synthesize(arrivals.SynthConfig{Seed: seed, VMs: vms, Horizon: uint64(vms) * 60, MeanLifetime: 5})
	},
}

// churnExact replays an Azure-shaped trace (multi-vCPU sizes, bursty
// arrivals; see exactTrace) on a small exact-tier fleet kept busy while
// arrivals last, with a FIFO pending queue, the reactive rebalancer and a
// checkpoint every checkpointEvery ticks; each arm ends by resuming its
// last checkpoint onto a fresh fleet. It stresses the exact cache model,
// workload generation, the CPU executor, epoch barriers, Fleet.Migrate
// with cold-cache refill and both serialization directions; idle elision
// saves only the drain at the end.
var churnExact = churnSpec{
	name:            "churn-exact",
	hosts:           4,
	fidelity:        cache.FidelityExact,
	size:            exactWorkVCPUTicks,
	trace:           exactTrace,
	pending:         arrivals.PendingFIFO,
	rebalance:       true,
	checkpointEvery: 16,
}

// exactWorkVCPUTicks is churn-exact's input size: the booked vCPU-ticks
// its trace asks for.
const exactWorkVCPUTicks = 400

// exactTrace builds churn-exact's trace from one fixed Azure-calibrated
// draw: arrivals sixteen times as fast as AzureCalibrated's default, so
// demand outruns the four hosts and the pending queue fills; lifetimes
// capped at 24 ticks, so the fleet turns over several times within a
// short replay; applications dealt from a rotation of the default mix;
// and arrivals kept, in submit order, until their booked vCPU-ticks
// reach work. The benchmark seed seeds the simulation (caches, workload
// address streams), not the trace: Azure lifetimes are so heavy-tailed,
// and the exact tier's cost per tick depends so much on which
// application lands on which VM size, that traces drawn per seed differ
// by half in simulated work, and wall time would measure the draw rather
// than the code.
func exactTrace(_ uint64, work int) arrivals.Trace {
	// Every arrival books at least one vCPU-tick, so work arrivals are
	// always enough.
	cfg := arrivals.AzureCalibrated(exactShapeSeed, work)
	cfg.Horizon /= 16
	tr := arrivals.Synthesize(cfg)
	booked := 0
	for i := range tr.Events {
		e := &tr.Events[i]
		e.Lifetime = min(e.Lifetime, 24)
		e.App = appRotation[i%len(appRotation)]
		booked += int(e.Lifetime) * max(e.VCPUs, 1)
		if booked >= work {
			tr.Events = tr.Events[:i+1]
			break
		}
	}
	return tr
}

// exactShapeSeed draws churn-exact's trace shape.
const exactShapeSeed = 1

// appRotation interleaves arrivals.DefaultMix by its weights
// (gcc 3, omnetpp 2, astar 2, lbm 2, bzip 1, mcf 1, blockie 1).
var appRotation = []string{"gcc", "lbm", "omnetpp", "astar", "gcc", "mcf", "bzip", "lbm", "omnetpp", "gcc", "astar", "blockie"}

// churnSpec describes a fleet-replay workload.
type churnSpec struct {
	name     string
	hosts    int
	fidelity cache.Fidelity
	// size is passed to trace: the arrival count for churn-sparse, the
	// booked vCPU-ticks for churn-exact.
	size    int
	trace   func(seed uint64, size int) arrivals.Trace
	pending arrivals.PendingPolicy
	// rebalance enables the reactive rebalancer.
	rebalance bool
	// checkpointEvery > 0 checkpoints each arm every that many ticks and
	// resumes its last checkpoint after the arm finishes.
	checkpointEvery uint64
}

// churnArms are the placer arms every churn workload replays, as the
// trace sweep runs them: the two unprotected policies, then Kyoto
// admission with on-host enforcement.
var churnArms = []struct {
	placer cluster.Placer
	kyoto  bool
}{
	{cluster.FirstFit{}, false},
	{cluster.Spread{}, false},
	{cluster.Admission{}, true},
}

// drainTicks runs each replay past its last event, as the trace sweep
// does (experiments.DefaultMeasureTicks).
const drainTicks = experiments.DefaultMeasureTicks

// replayKind is the snapshot envelope kind of a replay checkpoint.
const replayKind = "perfbench-replay"

func (s churnSpec) workload() *workload {
	sizes := map[string]any{"trace_size": s.size, "hosts": s.hosts, "arms": len(churnArms), "fidelity": s.fidelity.String()}
	if s.checkpointEvery > 0 {
		sizes["checkpoint_every_ticks"] = s.checkpointEvery
	}
	return &workload{
		name:      s.name,
		unit:      "trace events replayed",
		sizes:     sizes,
		setupReps: 5,
		setupOnly: func(seed uint64) (time.Duration, error) {
			start := time.Now()
			_, _, err := s.setup(seed, nil, 0)
			return time.Since(start), err
		},
		iterate: s.iterate,
	}
}

// armRun is one placer arm, built and ready to replay.
type armRun struct {
	name   string
	kyoto  bool
	placer cluster.Placer
	p      *arrivals.Replayer
	// ticks counts the host-ticks the arm's fleet executed (traced only).
	ticks *tickCounter
	// step is the open arrivals.step span, the parent of the placer and
	// rebalancer spans it causes.
	step int
	iter int
}

func (s churnSpec) fleet(seed uint64, placer cluster.Placer, kyoto bool) (*cluster.Fleet, error) {
	return cluster.New(cluster.Config{
		Hosts:    s.hosts,
		Template: cluster.HostTemplate{Seed: seed, EnableKyoto: kyoto, Fidelity: s.fidelity},
		Placer:   placer,
	})
}

// options returns fresh replay options: a rebalancer carries per-replay
// state, so every replay needs its own.
func (s churnSpec) options(t *tracer, a *armRun) arrivals.Options {
	opt := arrivals.Options{DrainTicks: drainTicks, Pending: s.pending}
	if s.rebalance {
		opt.Rebalancer = &cluster.Reactive{}
		if t != nil && a != nil {
			opt.Rebalancer = &timedRebalancer{Rebalancer: opt.Rebalancer, t: t, arm: a}
		}
	}
	return opt
}

// setup synthesizes the trace and builds one fleet and replayer per arm.
func (s churnSpec) setup(seed uint64, t *tracer, iter int) (arrivals.Trace, []*armRun, error) {
	tr := s.trace(seed, s.size)
	arms := make([]*armRun, len(churnArms))
	for i, c := range churnArms {
		a := &armRun{name: c.placer.Name(), kyoto: c.kyoto, placer: c.placer, step: -1, iter: iter}
		placer := c.placer
		if t != nil {
			placer = timedPlacer{Placer: c.placer, t: t, arm: a}
		}
		f, err := s.fleet(seed, placer, c.kyoto)
		if err != nil {
			return tr, nil, err
		}
		if t != nil {
			a.ticks = &tickCounter{}
			for _, h := range f.Hosts() {
				h.World.AddHook(a.ticks)
			}
		}
		p, err := arrivals.NewReplayer(f, tr, s.options(t, a))
		if err != nil {
			return tr, nil, err
		}
		a.p = p
		arms[i] = a
	}
	return tr, arms, nil
}

func (s churnSpec) iterate(seed uint64, t *tracer, iter int) (iteration, error) {
	it := iteration{counts: map[string]uint64{}}
	start := time.Now()
	tr, arms, err := s.setup(seed, t, iter)
	if err != nil {
		return it, err
	}
	it.setup = time.Since(start)
	start = time.Now()
	for _, a := range arms {
		it.ops = append(it.ops, s.replayArm(seed, tr, a, t, &it)...)
	}
	it.wall = time.Since(start)
	it.work = len(tr.Events) * len(arms)
	return it, nil
}

// replayArm drives one arm to the end, checkpointing on the way, and
// returns its replay operation plus, when it checkpointed, the resume
// check.
func (s churnSpec) replayArm(seed uint64, tr arrivals.Trace, a *armRun, t *tracer, it *iteration) []op {
	iter := a.iter
	armSpan := t.begin("arm", a.name, -1, iter)
	defer t.end(armSpan)
	replay := op{key: "arm/" + a.name}
	digest, err := snapshot.ConfigDigest(struct {
		Workload string
		Seed     uint64
		Arm      string
	}{s.name, seed, a.name})
	if err != nil {
		replay.err = err
		return []op{replay}
	}
	var last []byte
	next := s.checkpointEvery
	for {
		a.step = t.begin("arrivals.step", a.name, armSpan, iter)
		more, err := a.p.Step()
		t.end(a.step)
		a.step = armSpan
		it.counts["arrivals.steps"]++
		if err != nil {
			replay.err = err
			return []op{replay}
		}
		if !more {
			break
		}
		if s.checkpointEvery > 0 && a.p.Now() >= next {
			id := t.begin("snapshot.capture", a.name, armSpan, iter)
			st, err := a.p.CaptureState()
			if err == nil {
				last, err = snapshot.Encode(replayKind, digest, st)
			}
			t.end(id)
			if err != nil {
				replay.err = err
				return []op{replay}
			}
			it.counts["snapshot.captures"]++
			it.counts["snapshot.bytes"] += uint64(len(last))
			for next <= a.p.Now() {
				next += s.checkpointEvery
			}
		}
	}
	id := t.begin("arrivals.finish", a.name, armSpan, iter)
	res, err := a.p.Finish()
	t.end(id)
	if err != nil {
		replay.err = err
		return []op{replay}
	}
	id = t.begin("arrivals.fingerprint", a.name, armSpan, iter)
	replay.fingerprint = res.Fingerprint()
	t.end(id)
	countResult(it.counts, res, s.hosts)
	if a.ticks != nil {
		it.counts["hv.ticks_executed"] += a.ticks.n.Load()
	}
	if last == nil {
		return []op{replay}
	}
	resumed := op{key: "resume/" + a.name}
	resumed.fingerprint, resumed.err = s.resume(seed, tr, a, last, digest, t, armSpan, iter)
	if resumed.err == nil && resumed.fingerprint != replay.fingerprint {
		resumed.err = fmt.Errorf("resumed tail fingerprint %s differs from the straight-through arm's %s", resumed.fingerprint, replay.fingerprint)
	}
	return []op{replay, resumed}
}

// resume decodes a checkpoint onto a fresh fleet, finishes the replay
// and returns its fingerprint.
func (s churnSpec) resume(seed uint64, tr arrivals.Trace, a *armRun, blob []byte, digest string, t *tracer, parent, iter int) (string, error) {
	id := t.begin("snapshot.resume", a.name, parent, iter)
	p, err := func() (*arrivals.Replayer, error) {
		raw, err := snapshot.Decode(blob, replayKind, digest)
		if err != nil {
			return nil, err
		}
		var st arrivals.ReplayState
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, fmt.Errorf("decoding replay state: %w", err)
		}
		f, err := s.fleet(seed, a.placer, a.kyoto)
		if err != nil {
			return nil, err
		}
		return arrivals.ResumeReplayer(f, tr, s.options(nil, nil), &st)
	}()
	t.end(id)
	if err != nil {
		return "", err
	}
	id = t.begin("arrivals.resumed_finish", a.name, parent, iter)
	res, err := p.Finish()
	t.end(id)
	if err != nil {
		return "", err
	}
	return res.Fingerprint(), nil
}

// countResult adds a straight-through replay's deterministic counts.
func countResult(c map[string]uint64, res arrivals.Result, hosts int) {
	c["cluster.placed"] += uint64(res.Placed)
	c["cluster.rejected"] += uint64(res.Rejected)
	c["cluster.migrations"] += uint64(len(res.Migrations))
	c["hv.host_ticks"] += uint64(hosts) * res.EndTick
	for _, rec := range res.Records {
		c["cpu.sim_instructions"] += rec.Counters.Instructions
		c["cache.accesses"] += rec.Counters.Accesses
		c["cache.llc_misses"] += rec.Counters.LLCMisses
	}
}

// tickCounter counts the ticks hosts actually execute. It carries the
// sched.IdleTickInvariant marker — counting changes no simulated state —
// so hosts keep eliding idle stretches, which therefore go uncounted.
type tickCounter struct{ n atomic.Uint64 }

// OnTick implements hv.TickHook.
func (c *tickCounter) OnTick(*hv.World) { c.n.Add(1) }

// IdleTickInvariant implements sched.IdleTickInvariant.
func (c *tickCounter) IdleTickInvariant() {}

// fig4Exact is the paper's Figure 4 on the exact tier: 100 independent
// single-host worlds (10 solo, 90 pairs) through the generic sweep
// interface, on at most GOMAXPROCS goroutines, then Merge. It runs the
// same cache model as churn-exact but as a steady two-VM access stream —
// no install churn, flush, migration or snapshot, and no arrivals or
// cluster code — so a cache change that trades steady-state access
// against flush or snapshot cost shows on one workload and not the
// other.
func fig4Exact() *workload {
	return sweepWorkload("fig4-exact", func(seed uint64) sweep.Sweep { return experiments.NewFig4Sweeper(seed) })
}

// sweepWorkload runs a sweep's whole plan per iteration: Plan (set-up),
// then every job's Run on the sweep engine's pool and Merge (wall). Each
// job is an operation, checked by its payload fingerprint.
func sweepWorkload(name string, newSweep func(seed uint64) sweep.Sweep) *workload {
	return &workload{
		name:      name,
		unit:      "sweep worlds",
		sizes:     map[string]any{"jobs": len(newSweep(defaultSeed).Plan())},
		setupReps: 25,
		setupOnly: func(seed uint64) (time.Duration, error) {
			start := time.Now()
			newSweep(seed).Plan()
			return time.Since(start), nil
		},
		iterate: func(seed uint64, t *tracer, iter int) (iteration, error) {
			it := iteration{counts: map[string]uint64{}}
			start := time.Now()
			s := newSweep(seed)
			jobs := s.Plan()
			it.setup = time.Since(start)
			start = time.Now()
			payloads := make([]json.RawMessage, len(jobs))
			errs := make([]error, len(jobs))
			// Job errors are recorded per operation, so the pool never
			// stops early.
			_ = sweep.ForEach(len(jobs), 0, func(i int) error {
				id := t.begin("sweep.run", jobs[i].Key, -1, iter)
				payloads[i], errs[i] = s.Run(jobs[i])
				t.end(id)
				return nil
			})
			failed := false
			for i, j := range jobs {
				o := op{key: "job/" + j.Key, err: errs[i]}
				if o.err == nil {
					o.fingerprint = sweep.FingerprintPayload(payloads[i])
				}
				failed = failed || o.err != nil
				it.ops = append(it.ops, o)
			}
			it.counts["sweep.jobs"] = uint64(len(jobs))
			it.work = len(jobs)
			if !failed {
				// Merge needs every payload; failed jobs are already reported.
				id := t.begin("sweep.merge", "merge", -1, iter)
				err := s.Merge(payloads)
				t.end(id)
				if err != nil {
					return it, fmt.Errorf("merging %s: %w", s.Name(), err)
				}
			}
			it.wall = time.Since(start)
			return it, nil
		},
	}
}

// Package sweep is the shardable sweep engine: one job model behind
// every multi-configuration experiment, executable as a single process
// or fanned out across many.
//
// The paper's evaluation is a grid of scenarios (the Figure 4 matrix
// alone is 90 worlds; the migration sweep crosses 9 arms over a trace),
// and once single-world ticks are cheap the bottleneck is sweep
// orchestration. This package turns every such sweep into the same three
// phases:
//
//	plan  — a Sweep enumerates its Jobs in one canonical order,
//	        deterministically derived from its configuration;
//	run   — an Engine executes the jobs of one shard (shard k of n owns
//	        jobs with Index % n == k) and emits a JSON Envelope of
//	        per-job payloads with fingerprints;
//	merge — the envelopes of all n shards are validated for coverage and
//	        folded, in plan order, into the sweep's final result.
//
// Because the in-process path (one shard, n = 1) uses exactly the same
// envelope serialization and merge code as the distributed path, merging
// n shard envelopes is bit-identical to the unsharded run by
// construction; golden tests in internal/experiments pin it. Processes
// never share state: each one rebuilds the Sweep from the same
// configuration (CLI flags, trace file, seed), plans the same job list,
// and runs only its own slice.
package sweep

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"kyoto/internal/pmc"
)

// Job is one deterministic unit of a sweep's plan. A job is fully
// described by its owning sweep's configuration plus this spec: any
// process that rebuilds the sweep from the same configuration can execute
// any job of the plan and obtain the identical payload.
type Job struct {
	// Sweep names the owning sweep (Sweep.Name).
	Sweep string `json:"sweep"`
	// Key is the job's stable, human-readable identity within the sweep,
	// e.g. "solo/gcc" or "arm/reactive/kyoto". Keys are unique per plan.
	Key string `json:"key"`
	// Index is the job's position in the canonical plan order; shard k of
	// n owns the jobs with Index % n == k.
	Index int `json:"index"`
	// Seed is the simulation seed the job runs under.
	Seed uint64 `json:"seed"`
	// Params echoes the arm parameters for reports and debugging; the
	// executing sweep keys off Key/Index, not Params.
	Params map[string]string `json:"params,omitempty"`
}

// Sweep is a shardable experiment: a deterministic plan of independent
// jobs plus a merge that folds their payloads into the final result.
// Implementations live in internal/experiments (the replay sweeps,
// Figure 4, the ablations); external drivers consume them through the
// public kyoto.SweepJobs / kyoto.RunSweepShard / kyoto.MergeShards.
type Sweep interface {
	// Name identifies the sweep; envelopes carry it and Merge validates
	// it, so shards of different sweeps cannot be folded together.
	Name() string
	// Plan enumerates the jobs in canonical order. Plan must be
	// deterministic for a given sweep configuration: every process of a
	// distributed run re-plans and must see the identical list.
	Plan() []Job
	// Run executes one job and returns its result as canonical JSON.
	// Jobs are independent: Run must not depend on any other job having
	// run, and must be safe for concurrent use from multiple goroutines.
	Run(job Job) (json.RawMessage, error)
	// Merge folds the payloads of all jobs, in plan order, into the
	// sweep's final result (retrievable from the concrete type).
	Merge(payloads []json.RawMessage) error
}

// JobResult is one executed job inside an Envelope.
type JobResult struct {
	// Key and Index echo the job spec.
	Key   string `json:"key"`
	Index int    `json:"index"`
	// Fingerprint is FingerprintPayload(Payload): a stable hash of the
	// canonical JSON, so two executions of the same job can be compared
	// without decoding.
	Fingerprint string `json:"fingerprint"`
	// Payload is the job's canonical JSON result.
	Payload json.RawMessage `json:"payload"`
}

// ConfigFingerprinter is optionally implemented by sweeps that can
// digest their full configuration (trace, seeds, fleet shape — anything
// that changes results). RunShard stamps the digest into the envelope
// and Merge rejects envelopes whose digest differs from the merging
// sweep's, catching the "merged with different flags" mistake even when
// the job plan happens to look identical.
type ConfigFingerprinter interface {
	ConfigFingerprint() string
}

// configFingerprint resolves the optional interface.
func configFingerprint(s Sweep) string {
	if cf, ok := s.(ConfigFingerprinter); ok {
		return cf.ConfigFingerprint()
	}
	return ""
}

// EnvelopeSchema identifies the shard-envelope JSON format.
const EnvelopeSchema = "kyoto-sweep-shard-v1"

// Envelope is the canonical result of running one shard of a sweep: the
// unit that crosses process (and machine) boundaries on disk.
type Envelope struct {
	// Schema is EnvelopeSchema.
	Schema string `json:"schema"`
	// Sweep is the owning sweep's name.
	Sweep string `json:"sweep"`
	// Shard and Shards identify the slice: this envelope holds the jobs
	// with Index % Shards == Shard.
	Shard  int `json:"shard"`
	Shards int `json:"shards"`
	// PlanJobs is the size of the full plan, so Merge can detect a
	// sweep/flag mismatch before diffing job indices.
	PlanJobs int `json:"plan_jobs"`
	// Config is the sweep's configuration digest
	// (ConfigFingerprinter.ConfigFingerprint) when the sweep provides
	// one, empty otherwise.
	Config string `json:"config,omitempty"`
	// Jobs holds the shard's executed jobs in ascending Index order.
	Jobs []JobResult `json:"jobs"`
	// Fingerprint folds the job fingerprints in Index order — a quick
	// equality check for whole shards.
	Fingerprint string `json:"fingerprint"`
}

// FingerprintPayload hashes a JSON payload (FNV-1a over its compacted
// bytes, rendered like the replay fingerprints). Compacting makes the
// fingerprint whitespace-insensitive, so an envelope re-indented on its
// way through a file still verifies. The compaction is fused into the
// fold: one pass skips RFC 8259 whitespace outside strings and folds
// every other byte as it goes, with no intermediate buffer — on a
// million-VM churn replay, fingerprinting the multi-megabyte arm
// payloads through json.Compact was half the sweep's CPU (the copy, its
// validation pass, and the buffer regrowth), and this path is what every
// job result funnels through. Bytes inside strings are folded verbatim
// (tracking escape state so a quote ending the string is distinguished
// from an escaped one), exactly as json.Compact preserves them.
func FingerprintPayload(payload []byte) string {
	h := pmc.FoldSeed
	inString, escaped := false, false
	for _, b := range payload {
		if inString {
			h = pmc.FoldUint64(h, uint64(b))
			switch {
			case escaped:
				escaped = false
			case b == '\\':
				escaped = true
			case b == '"':
				inString = false
			}
			continue
		}
		switch b {
		case ' ', '\t', '\n', '\r':
			continue
		case '"':
			inString = true
		}
		h = pmc.FoldUint64(h, uint64(b))
	}
	return fmt.Sprintf("%016x", h)
}

// foldFingerprints combines per-job fingerprint strings in the order
// given into one envelope- or sweep-level fingerprint.
func foldFingerprints(fps []string) string {
	h := pmc.FoldSeed
	h = pmc.FoldUint64(h, uint64(len(fps)))
	for _, fp := range fps {
		for _, b := range []byte(fp) {
			h = pmc.FoldUint64(h, uint64(b))
		}
	}
	return fmt.Sprintf("%016x", h)
}

// Engine executes sweep jobs across a bounded worker pool.
type Engine struct {
	// Workers caps in-process parallelism: 0 means GOMAXPROCS, 1 runs
	// jobs serially in plan order (the reference execution the
	// determinism goldens compare against).
	Workers int
}

// RunShard plans the sweep and executes shard `shard` of `shards`,
// returning its envelope. Shards partition the plan round-robin by job
// index, so a sweep whose expensive jobs cluster at one end still
// spreads them across shards.
func (e Engine) RunShard(s Sweep, shard, shards int) (Envelope, error) {
	if shards < 1 {
		return Envelope{}, fmt.Errorf("sweep: shards must be >= 1, got %d", shards)
	}
	if shard < 0 || shard >= shards {
		return Envelope{}, fmt.Errorf("sweep: shard %d out of range 0..%d", shard, shards-1)
	}
	plan, err := validatePlan(s)
	if err != nil {
		return Envelope{}, err
	}
	var mine []Job
	for _, j := range plan {
		if j.Index%shards == shard {
			mine = append(mine, j)
		}
	}
	env := Envelope{
		Schema:   EnvelopeSchema,
		Sweep:    s.Name(),
		Shard:    shard,
		Shards:   shards,
		PlanJobs: len(plan),
		Config:   configFingerprint(s),
		Jobs:     make([]JobResult, len(mine)),
	}
	err = ForEach(len(mine), e.Workers, func(i int) error {
		payload, err := s.Run(mine[i])
		if err != nil {
			return fmt.Errorf("sweep %s: job %s: %w", s.Name(), mine[i].Key, err)
		}
		// Re-encode through json.RawMessage-safe compaction is not needed:
		// the payload is already canonical JSON from json.Marshal. Guard
		// against invalid JSON here so a buggy Sweep fails its own shard,
		// not a later merge on another machine.
		if !json.Valid(payload) {
			return fmt.Errorf("sweep %s: job %s returned invalid JSON", s.Name(), mine[i].Key)
		}
		env.Jobs[i] = JobResult{
			Key:         mine[i].Key,
			Index:       mine[i].Index,
			Fingerprint: FingerprintPayload(payload),
			Payload:     payload,
		}
		return nil
	})
	if err != nil {
		return Envelope{}, err
	}
	fps := make([]string, len(env.Jobs))
	for i, j := range env.Jobs {
		fps[i] = j.Fingerprint
	}
	env.Fingerprint = foldFingerprints(fps)
	return env, nil
}

// Run executes the whole sweep in-process and merges the result — the
// single-machine convenience path. It is exactly RunShard(s, 0, 1)
// followed by Merge, so its result is bit-identical to any sharded
// execution of the same sweep.
func (e Engine) Run(s Sweep) error {
	env, err := e.RunShard(s, 0, 1)
	if err != nil {
		return err
	}
	return Merge(s, []Envelope{env})
}

// Merge validates that envs cover every job of the sweep's plan exactly
// once and folds the payloads, in plan order, into the sweep's result via
// s.Merge. The sweep must be configured identically to the one that
// produced the envelopes; mismatches (different sweep name, plan size,
// missing or duplicate jobs, disagreeing shard counts) are errors.
func Merge(s Sweep, envs []Envelope) error {
	plan, err := validatePlan(s)
	if err != nil {
		return err
	}
	if len(envs) == 0 {
		return fmt.Errorf("sweep %s: no shard envelopes to merge", s.Name())
	}
	shards := envs[0].Shards
	seen := make(map[int]bool, len(envs))
	payloads := make([]json.RawMessage, len(plan))
	for _, env := range envs {
		if env.Schema != EnvelopeSchema {
			return fmt.Errorf("sweep %s: envelope schema %q, want %q", s.Name(), env.Schema, EnvelopeSchema)
		}
		if env.Sweep != s.Name() {
			return fmt.Errorf("sweep %s: envelope belongs to sweep %q", s.Name(), env.Sweep)
		}
		if env.Shards != shards {
			return fmt.Errorf("sweep %s: envelopes disagree on shard count: %d vs %d", s.Name(), env.Shards, shards)
		}
		if env.PlanJobs != len(plan) {
			return fmt.Errorf("sweep %s: envelope plans %d jobs, this configuration plans %d — merge must use the same flags as the shards", s.Name(), env.PlanJobs, len(plan))
		}
		if want := configFingerprint(s); env.Config != want {
			return fmt.Errorf("sweep %s: envelope was produced under a different configuration (digest %s, merging with %s) — merge must use the same flags as the shards", s.Name(), env.Config, want)
		}
		if env.Shard < 0 || env.Shard >= shards {
			return fmt.Errorf("sweep %s: envelope shard %d out of range 0..%d", s.Name(), env.Shard, shards-1)
		}
		if seen[env.Shard] {
			return fmt.Errorf("sweep %s: shard %d supplied twice", s.Name(), env.Shard)
		}
		seen[env.Shard] = true
		for _, j := range env.Jobs {
			if j.Index < 0 || j.Index >= len(plan) {
				return fmt.Errorf("sweep %s: job index %d out of plan range", s.Name(), j.Index)
			}
			if j.Index%shards != env.Shard {
				return fmt.Errorf("sweep %s: job %d does not belong to shard %d of %d", s.Name(), j.Index, env.Shard, shards)
			}
			if j.Key != plan[j.Index].Key {
				return fmt.Errorf("sweep %s: job %d is %q in the envelope but %q in the plan — merge must use the same flags as the shards", s.Name(), j.Index, j.Key, plan[j.Index].Key)
			}
			if payloads[j.Index] != nil {
				return fmt.Errorf("sweep %s: job %d supplied twice", s.Name(), j.Index)
			}
			if got := FingerprintPayload(j.Payload); got != j.Fingerprint {
				return fmt.Errorf("sweep %s: job %s payload does not match its fingerprint (%s vs %s) — envelope corrupted in transit", s.Name(), j.Key, got, j.Fingerprint)
			}
			payloads[j.Index] = j.Payload
		}
	}
	if len(seen) != shards {
		missing := make([]int, 0, shards)
		for k := 0; k < shards; k++ {
			if !seen[k] {
				missing = append(missing, k)
			}
		}
		return fmt.Errorf("sweep %s: missing shard envelopes %v of %d", s.Name(), missing, shards)
	}
	for i, p := range payloads {
		if p == nil {
			return fmt.Errorf("sweep %s: job %d (%s) missing from all envelopes", s.Name(), i, plan[i].Key)
		}
	}
	return s.Merge(payloads)
}

// MergedFingerprint folds the per-job fingerprints of a complete envelope
// set in plan order — the whole-sweep identity the determinism goldens
// pin. It performs the same coverage validation as Merge but does not
// execute the sweep's own fold.
func MergedFingerprint(envs []Envelope) (string, error) {
	if len(envs) == 0 {
		return "", fmt.Errorf("sweep: no envelopes")
	}
	n := envs[0].PlanJobs
	fps := make([]string, n)
	for _, env := range envs {
		if env.PlanJobs != n {
			return "", fmt.Errorf("sweep: envelopes disagree on plan size: %d vs %d", env.PlanJobs, n)
		}
		for _, j := range env.Jobs {
			if j.Index < 0 || j.Index >= n {
				return "", fmt.Errorf("sweep: job index %d out of plan range", j.Index)
			}
			if fps[j.Index] != "" {
				return "", fmt.Errorf("sweep: job %d supplied twice", j.Index)
			}
			fps[j.Index] = j.Fingerprint
		}
	}
	for i, fp := range fps {
		if fp == "" {
			return "", fmt.Errorf("sweep: job %d missing", i)
		}
	}
	return foldFingerprints(fps), nil
}

// validatePlan fetches the plan and checks its invariants: contiguous
// indices in order, unique keys, matching sweep name.
func validatePlan(s Sweep) ([]Job, error) {
	plan := s.Plan()
	if len(plan) == 0 {
		return nil, fmt.Errorf("sweep %s: empty plan", s.Name())
	}
	keys := make(map[string]bool, len(plan))
	for i, j := range plan {
		if j.Index != i {
			return nil, fmt.Errorf("sweep %s: plan job %d carries index %d", s.Name(), i, j.Index)
		}
		if j.Sweep != s.Name() {
			return nil, fmt.Errorf("sweep %s: plan job %d belongs to sweep %q", s.Name(), i, j.Sweep)
		}
		if j.Key == "" || keys[j.Key] {
			return nil, fmt.Errorf("sweep %s: plan job %d has empty or duplicate key %q", s.Name(), i, j.Key)
		}
		keys[j.Key] = true
	}
	return plan, nil
}

// ForEach runs f(0) .. f(n-1) across a bounded worker pool (0 workers
// means GOMAXPROCS; 1 means serial in index order) and returns the error
// of the lowest-indexed failure. It is the one worker pool behind every
// sweep and experiment fan-out.
func ForEach(n, workers int, f func(i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// checker checks operation fingerprints and deterministic work counts:
// against the pinned values (default seed only), across the iterations
// of this run, and across runs of the same binary and seed.
type checker struct {
	workload string
	seed     uint64
	binary   string
	pins     map[string]string

	attempted, failed int
	// fingerprints and counts hold the first value seen per key; runs
	// counts how many times each operation ran.
	fingerprints map[string]string
	counts       map[string]uint64
	runs         map[string]int
	problems     []string
}

func newChecker(workload string, seed uint64, binary string) *checker {
	c := &checker{
		workload: workload, seed: seed, binary: binary,
		fingerprints: map[string]string{}, counts: map[string]uint64{}, runs: map[string]int{},
		problems: []string{},
	}
	if seed == defaultSeed {
		c.pins = pinned[workload]
	}
	return c
}

func (c *checker) problem(format string, args ...any) {
	c.problems = append(c.problems, fmt.Sprintf(format, args...))
}

// iterations checks every operation and count of the given iterations.
func (c *checker) iterations(phases ...[]iteration) {
	for _, its := range phases {
		for i, it := range its {
			for _, o := range it.ops {
				c.attempted++
				c.runs[o.key]++
				if msg := c.checkOp(o); msg != "" {
					c.failed++
					c.problem("iteration %d: %s: %s", i, o.key, msg)
				}
			}
			c.checkCounts(it.counts, fmt.Sprintf("iteration %d", i))
		}
	}
}

func (c *checker) checkOp(o op) string {
	if o.err != nil {
		return o.err.Error()
	}
	first, seen := c.fingerprints[o.key]
	if !seen {
		c.fingerprints[o.key] = o.fingerprint
	} else if first != o.fingerprint {
		return fmt.Sprintf("fingerprint %s, first iteration had %s", o.fingerprint, first)
	}
	if c.pins != nil {
		want, ok := c.pins[o.key]
		switch {
		case !ok:
			return fmt.Sprintf("no pinned fingerprint for the default seed (got %s)", o.fingerprint)
		case want != o.fingerprint:
			return fmt.Sprintf("fingerprint %s, pinned %s", o.fingerprint, want)
		}
	}
	return ""
}

// checkCounts requires every count to repeat exactly.
func (c *checker) checkCounts(counts map[string]uint64, where string) {
	for _, k := range sortedKeys(counts) {
		if first, ok := c.counts[k]; ok && first != counts[k] {
			c.problem("%s: count %s is %d, first seen as %d", where, k, counts[k], first)
		} else if !ok {
			c.counts[k] = counts[k]
		}
	}
}

// stored is what one run leaves for later runs of the same binary and
// seed.
type stored struct {
	Fingerprints map[string]string `json:"fingerprints"`
	Counts       map[string]uint64 `json:"counts"`
}

// againstStore compares this run with earlier runs of the same binary
// and seed recorded in dir, then records the union for later runs.
func (c *checker) againstStore(dir string) error {
	if c.binary == "unknown" {
		return nil
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", c.binary, c.workload, c.seed))
	var prev stored
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
	case err != nil:
		return err
	default:
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
	}
	if prev.Fingerprints == nil {
		prev.Fingerprints = map[string]string{}
	}
	if prev.Counts == nil {
		prev.Counts = map[string]uint64{}
	}
	for _, k := range sortedKeys(c.fingerprints) {
		if want, ok := prev.Fingerprints[k]; ok && want != c.fingerprints[k] {
			c.failed += c.runs[k]
			c.problem("%s: fingerprint %s, an earlier run of this seed had %s", k, c.fingerprints[k], want)
		}
		prev.Fingerprints[k] = c.fingerprints[k]
	}
	for _, k := range sortedKeys(c.counts) {
		if want, ok := prev.Counts[k]; ok && want != c.counts[k] {
			c.problem("count %s is %d, an earlier run of this seed had %d", k, c.counts[k], want)
		}
		prev.Counts[k] = c.counts[k]
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	out, err := json.MarshalIndent(prev, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// usage is the process's resource use over one iteration.
type usage struct {
	cpuS      float64
	gcCPUS    float64
	allocMB   float64
	peakRSSMB float64
}

var usageSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readUsage snapshots cumulative counters; since turns two snapshots
// into one iteration's use.
func readUsage() usage {
	var ru syscall.Rusage
	var u usage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpuS = time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
	}
	metrics.Read(usageSamples)
	if s := usageSamples[0].Value; s.Kind() == metrics.KindFloat64 {
		u.gcCPUS = s.Float64()
	}
	if s := usageSamples[1].Value; s.Kind() == metrics.KindUint64 {
		u.allocMB = float64(s.Uint64()) / (1 << 20)
	}
	return u
}

func (u usage) since(before usage) usage {
	return usage{
		cpuS:      u.cpuS - before.cpuS,
		gcCPUS:    u.gcCPUS - before.gcCPUS,
		allocMB:   u.allocMB - before.allocMB,
		peakRSSMB: peakRSSMB(),
	}
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS mark, so the next peakRSSMB reading covers one iteration, not
// the whole process. Where the kernel offers no reset the reading stays
// the process-lifetime peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB reads the resident-set high-water mark.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// provenance is the host block every result set carries, plus the run's
// inputs.
func provenance(w *workload, seed uint64, budget time.Duration, traced bool) map[string]any {
	p := map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"seconds":    budget.Seconds(),
		"traced":     traced,
		"sizes":      w.sizes,
		"work_unit":  w.unit,
		"cpu_model":  cpuModel(),
		"cores":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit(),
		"binary":     binaryDigest(),
	}
	return p
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit is the VCS revision the binary was built from, when the build
// saw one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}

// binaryDigest identifies the code that ran: runs of one binary must
// agree exactly, runs of different binaries need not.
func binaryDigest() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

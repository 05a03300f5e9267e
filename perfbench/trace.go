package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kyoto/internal/cluster"
)

// span is one timed call into a layer.
type span struct {
	name string
	// op is the operation the span belongs to (an arm name or a sweep
	// job key); spans of one operation share it.
	op string
	// parent is the index of the span that caused this one, -1 for none.
	parent int
	iter   int
	start  time.Duration
	end    time.Duration
}

// tracer holds spans in memory until the run ends. A nil *tracer records
// nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name, op string, parent, iter int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.base)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, iter: iter, start: now})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.base)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// byName returns the durations of every span called name, and their
// per-iteration totals.
func (t *tracer) byName(name string) (each []float64, perIter map[int]float64) {
	perIter = map[int]float64{}
	for _, s := range t.spans {
		if s.name == name {
			d := (s.end - s.start).Seconds()
			each = append(each, d)
			perIter[s.iter] += d
		}
	}
	return each, perIter
}

// write saves the spans, gzipped, in the Chrome trace-event format
// (Perfetto and chrome://tracing open it) and returns the file's path.
// Each event's args carry its operation and the index of its parent.
func (t *tracer) write(dir, workload string, seed uint64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json.gz", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(zw)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",\n")
		}
		op, err := json.Marshal(s.op)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"op":%s,"parent":%d}}`,
			s.name, s.iter, float64(s.start.Nanoseconds())/1e3, float64((s.end-s.start).Nanoseconds())/1e3, op, s.parent)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// timedPlacer records a cluster.place span around every decision.
type timedPlacer struct {
	cluster.Placer
	t   *tracer
	arm *armRun
}

// Place implements cluster.Placer.
func (p timedPlacer) Place(hosts []*cluster.Host, req cluster.Request) (int, error) {
	id := p.t.begin("cluster.place", p.arm.name, p.arm.step, p.arm.iter)
	defer p.t.end(id)
	return p.Placer.Place(hosts, req)
}

// timedRebalancer records a cluster.plan span around every epoch plan
// and forwards checkpoint state to the policy it wraps.
type timedRebalancer struct {
	cluster.Rebalancer
	t   *tracer
	arm *armRun
}

// Plan implements cluster.Rebalancer.
func (r *timedRebalancer) Plan(hosts []*cluster.Host, view cluster.RebalanceView) []cluster.Migration {
	id := r.t.begin("cluster.plan", r.arm.name, r.arm.step, r.arm.iter)
	defer r.t.end(id)
	return r.Rebalancer.Plan(hosts, view)
}

// CaptureRebalanceState implements cluster.StatefulRebalancer.
func (r *timedRebalancer) CaptureRebalanceState() (json.RawMessage, error) {
	if s, ok := r.Rebalancer.(cluster.StatefulRebalancer); ok {
		return s.CaptureRebalanceState()
	}
	return nil, nil
}

// RestoreRebalanceState implements cluster.StatefulRebalancer.
func (r *timedRebalancer) RestoreRebalanceState(data json.RawMessage) error {
	if s, ok := r.Rebalancer.(cluster.StatefulRebalancer); ok {
		return s.RestoreRebalanceState(data)
	}
	return nil
}

package cluster

import (
	"fmt"
	"testing"

	"kyoto/internal/vm"
)

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{Hosts: 0}); err == nil {
		t.Fatal("zero hosts must fail")
	}
	f, err := New(Config{Hosts: 3, Template: HostTemplate{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != 3 || len(f.Hosts()) != 3 {
		t.Fatalf("fleet size %d", f.Size())
	}
	if f.Placer().Name() != "first-fit" {
		t.Fatalf("default placer %q", f.Placer().Name())
	}
	for i, h := range f.Hosts() {
		if h.ID != i {
			t.Fatalf("host %d has ID %d", i, h.ID)
		}
	}
}

// runTicksSerial advances every host n ticks on the calling goroutine,
// in host-ID order — the reference execution the concurrent path must
// match.
func runTicksSerial(f *Fleet, n int) {
	f.sched.clock.Add(uint64(n))
	for _, h := range f.hosts {
		h.mu.Lock()
		f.sched.seekLocked(h)
		h.mu.Unlock()
	}
}

func TestHostsAreIndependentlySeeded(t *testing.T) {
	f, err := New(Config{Hosts: 2, Template: HostTemplate{Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range f.Hosts() {
		if _, err := h.World.AddVM(vm.Spec{Name: "v", App: "gcc"}); err != nil {
			t.Fatal(err)
		}
	}
	runTicksSerial(f, 20)
	c0 := f.Host(0).World.FindVM("v").Counters()
	c1 := f.Host(1).World.FindVM("v").Counters()
	if c0 == c1 {
		t.Fatal("distinct hosts must not replay the identical workload stream")
	}
}

func TestKyotoTemplateEnforcesPermits(t *testing.T) {
	f, err := New(Config{
		Hosts:    1,
		Template: HostTemplate{Seed: 1, EnableKyoto: true},
		Placer:   Admission{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Host(0).Kyoto() == nil {
		t.Fatal("kyoto ledger missing")
	}
	p, err := f.Place(Request{Spec: vm.Spec{Name: "dis", App: "lbm", Pins: []int{0}, LLCCap: 100}})
	if err != nil {
		t.Fatal(err)
	}
	f.RunTicks(30)
	if p.VM.Punishments == 0 {
		t.Fatal("over-permit polluter must be punished on its host")
	}
}

// fleetScenario builds a fleet of the given size, places one sensitive and
// one disruptive VM per host, and returns it.
func fleetScenario(t testing.TB, hosts, workers int) *Fleet {
	t.Helper()
	f, err := New(Config{
		Hosts:    hosts,
		Template: HostTemplate{Seed: 42, EnableKyoto: true},
		Placer:   FirstFit{},
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	apps := []string{"gcc", "lbm", "omnetpp", "blockie", "soplex", "mcf"}
	for i := 0; i < hosts; i++ {
		for j := 0; j < 2; j++ {
			app := apps[(2*i+j)%len(apps)]
			_, err := f.Place(Request{Spec: vm.Spec{
				Name:   fmt.Sprintf("h%d-%s%d", i, app, j),
				App:    app,
				Pins:   []int{j},
				LLCCap: 250,
			}})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

// TestFleetParallelMatchesSerial is the determinism lock for the worker
// pool: a >=16-host fleet driven concurrently (run it under -race) must
// produce per-host results bit-identical to serial execution.
func TestFleetParallelMatchesSerial(t *testing.T) {
	const hosts = 16
	serial := fleetScenario(t, hosts, 1)
	parallel := fleetScenario(t, hosts, 8)

	runTicksSerial(serial, 30)
	parallel.RunTicks(30)

	sSnap := serial.SnapshotVMs()
	pSnap := parallel.SnapshotVMs()
	for i := 0; i < hosts; i++ {
		if len(sSnap[i]) != len(pSnap[i]) {
			t.Fatalf("host %d: VM count diverged", i)
		}
		for name, sc := range sSnap[i] {
			if pc, ok := pSnap[i][name]; !ok || pc != sc {
				t.Errorf("host %d VM %s: parallel counters diverged from serial\nserial:   %+v\nparallel: %+v",
					i, name, sc, pc)
			}
		}
		sw, pw := serial.Host(i).World, parallel.Host(i).World
		if sw.Now() != pw.Now() {
			t.Errorf("host %d clocks diverged: %d vs %d", i, sw.Now(), pw.Now())
		}
		for _, p := range serial.Host(i).Placements() {
			pv := parallel.Host(i).World.FindVM(p.VM.Name)
			if pv == nil || pv.Punishments != p.VM.Punishments {
				t.Errorf("host %d VM %s: punishments diverged", i, p.VM.Name)
			}
		}
	}
}

func TestRunTicksWorkerCapFallsBackToSerial(t *testing.T) {
	f := fleetScenario(t, 2, 1)
	f.RunTicks(5) // workers <= 1 takes the serial path
	for _, h := range f.Hosts() {
		if h.World.Now() != 5 {
			t.Fatalf("host %d ran %d ticks", h.ID, h.World.Now())
		}
	}
}

// bookings snapshots a host's booked-resource ledger for comparison.
func bookings(h *Host) [3]float64 {
	return [3]float64{float64(h.BookedCPUs), float64(h.BookedMemMB), h.BookedLLC}
}

// TestRejectedRequestLeavesAccountingUntouched locks the no-double-booking
// contract: a request the policy rejects, and a request the policy admits
// but whose spec the host then refuses (bad pin on the second vCPU), must
// both leave every host's booked totals exactly as they were.
func TestRejectedRequestLeavesAccountingUntouched(t *testing.T) {
	f, err := New(Config{
		Hosts:    2,
		Template: HostTemplate{Seed: 1, MemoryMB: 128},
		Placer:   Admission{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Place(Request{Spec: vm.Spec{Name: "ok", App: "gcc", LLCCap: 250}}); err != nil {
		t.Fatal(err)
	}
	before := [...][3]float64{bookings(f.Host(0)), bookings(f.Host(1))}
	vmsBefore := len(f.Host(0).World.VMs()) + len(f.Host(1).World.VMs())

	// Policy rejection: no permit booked under Kyoto admission.
	if _, err := f.Place(Request{Spec: vm.Spec{Name: "noperm", App: "lbm"}}); err == nil {
		t.Fatal("permit-less request must be rejected by admission")
	}
	// Host rejection after the policy said yes: vCPU 1 pinned off-machine.
	_, err = f.Place(Request{Spec: vm.Spec{
		Name: "badpin", App: "lbm", VCPUs: 2, Pins: []int{0, 99}, LLCCap: 10,
	}})
	if err == nil {
		t.Fatal("invalid pin must fail placement")
	}
	for i, h := range f.Hosts() {
		if got := bookings(h); got != before[i] {
			t.Fatalf("host %d bookings changed by rejected requests: %v -> %v", i, before[i], got)
		}
	}
	if got := len(f.Host(0).World.VMs()) + len(f.Host(1).World.VMs()); got != vmsBefore {
		t.Fatalf("rejected requests leaked VMs into a world: %d -> %d", vmsBefore, got)
	}
	// The fleet must still be fully usable after the failed placements.
	if _, err := f.Place(Request{Spec: vm.Spec{Name: "ok2", App: "lbm", LLCCap: 250}}); err != nil {
		t.Fatalf("fleet unusable after rejections: %v", err)
	}
}

// TestRemoveFreesBookings: departures free booked CPU, memory and llc_cap,
// and the freed capacity is placeable again.
func TestRemoveFreesBookings(t *testing.T) {
	f, err := New(Config{
		Hosts:    1,
		Template: HostTemplate{Seed: 3, EnableKyoto: true},
		Placer:   Admission{},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := f.Host(0)
	empty := bookings(h)
	// Fill every permit slot (4 cores x 250).
	for i := 0; i < 4; i++ {
		if _, err := f.Place(Request{Spec: vm.Spec{
			Name: fmt.Sprintf("vm%d", i), App: "gcc", LLCCap: 250,
		}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := f.Place(Request{Spec: vm.Spec{Name: "extra", App: "lbm", LLCCap: 250}}); err == nil {
		t.Fatal("full fleet must reject a fifth fully-booked VM")
	}
	f.RunTicks(6)
	p, err := f.Remove("vm2")
	if err != nil {
		t.Fatal(err)
	}
	if p.VM.Name != "vm2" || p.VM.Counters().Instructions == 0 {
		t.Fatalf("removed placement must carry the departed VM's lifetime counters, got %+v", p.VM)
	}
	if h.World.FindVM("vm2") != nil {
		t.Fatal("removed VM still present in the world")
	}
	if got, want := h.BookedCPUs, 3; got != want {
		t.Fatalf("booked CPUs after removal: %d, want %d", got, want)
	}
	if got, want := h.BookedLLC, 750.0; got != want {
		t.Fatalf("booked llc_cap after removal: %v, want %v", got, want)
	}
	if got, want := len(f.Placements()), 3; got != want {
		t.Fatalf("live placements after removal: %d, want %d", got, want)
	}
	// The freed slot admits a new VM, and the world keeps running.
	if _, err := f.Place(Request{Spec: vm.Spec{Name: "late", App: "lbm", LLCCap: 250}}); err != nil {
		t.Fatalf("freed capacity not placeable: %v", err)
	}
	f.RunTicks(6)
	if v := h.World.FindVM("late"); v == nil || v.Counters().Instructions == 0 {
		t.Fatal("late VM did not execute after churn")
	}
	// Remove the rest; the ledger must return to empty exactly.
	for _, name := range []string{"vm0", "vm1", "vm3", "late"} {
		if _, err := f.Remove(name); err != nil {
			t.Fatal(err)
		}
	}
	if got := bookings(h); got != empty {
		t.Fatalf("ledger not empty after removing every VM: %v", got)
	}
}

// TestRemoveUnknownVMIsCleanError: removing a VM the fleet does not hold
// (never placed, or already removed) errors without corrupting bookings.
func TestRemoveUnknownVMIsCleanError(t *testing.T) {
	f, err := New(Config{Hosts: 1, Template: HostTemplate{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Place(Request{Spec: vm.Spec{Name: "only", App: "gcc"}}); err != nil {
		t.Fatal(err)
	}
	before := bookings(f.Host(0))
	if _, err := f.Remove("ghost"); err == nil {
		t.Fatal("removing an unknown VM must error")
	}
	if _, err := f.Remove("only"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Remove("only"); err == nil {
		t.Fatal("double removal must error")
	}
	if got := bookings(f.Host(0)); got[0] != before[0]-1 {
		t.Fatalf("double removal corrupted the CPU ledger: %v", got)
	}
}

// TestHostOverridesMixFleet: per-host overrides produce a heterogeneous
// fleet — here one big-memory, big-permit host in a Table-1 fleet — and
// capacity-aware placement exploits it.
func TestHostOverridesMixFleet(t *testing.T) {
	f, err := New(Config{
		Hosts:    3,
		Template: HostTemplate{Seed: 9, MemoryMB: 128},
		Overrides: map[int]HostOverride{
			1: {MemoryMB: 1024, LLCBudget: 4000},
		},
		Placer: Admission{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Host(0).CapacityMemMB != 128 || f.Host(2).CapacityMemMB != 128 {
		t.Fatalf("template hosts changed: %d/%d MB", f.Host(0).CapacityMemMB, f.Host(2).CapacityMemMB)
	}
	if f.Host(1).CapacityMemMB != 1024 || f.Host(1).LLCBudget != 4000 {
		t.Fatalf("override host not applied: %d MB, %v permit", f.Host(1).CapacityMemMB, f.Host(1).LLCBudget)
	}
	// A permit bigger than a Table-1 budget (4x250) fits only on host 1.
	p, err := f.Place(Request{Spec: vm.Spec{Name: "big", App: "lbm", LLCCap: 1500}})
	if err != nil {
		t.Fatal(err)
	}
	if p.HostID != 1 {
		t.Fatalf("oversized permit placed on host %d, want the override host 1", p.HostID)
	}
}

func TestOverrideKeysAreValidated(t *testing.T) {
	_, err := New(Config{
		Hosts:     2,
		Template:  HostTemplate{Seed: 1},
		Overrides: map[int]HostOverride{2: {MemoryMB: 1024}},
	})
	if err == nil {
		t.Fatal("override for a host outside the fleet must fail construction")
	}
}

// TestPlacementsSurviveRemove: slices returned by Placements stay valid
// (value copies) across later fleet churn.
func TestPlacementsSurviveRemove(t *testing.T) {
	f, err := New(Config{Hosts: 1, Template: HostTemplate{Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"a", "b", "c"}
	for _, n := range names {
		if _, err := f.Place(Request{Spec: vm.Spec{Name: n, App: "gcc"}}); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := f.Placements()
	hostSnap := f.Host(0).Placements()
	if _, err := f.Remove("a"); err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		if snapshot[i].VM.Name != n || hostSnap[i].VM.Name != n {
			t.Fatalf("pre-removal snapshot mutated at %d: %s/%s", i, snapshot[i].VM.Name, hostSnap[i].VM.Name)
		}
	}
	if got := len(f.Placements()); got != 2 {
		t.Fatalf("live placements after removal: %d", got)
	}
}

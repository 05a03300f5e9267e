// Package sched implements the vCPU schedulers the paper builds on and
// extends: the Xen credit scheduler (XCS, §3.2), a CFS-style fair
// scheduler (the KVM/Linux substrate of KS4Linux), and a Pisces-style
// space-partitioned co-kernel scheduler (§4.4). The Kyoto pollution layer
// in internal/core decorates any of them.
//
// All schedulers run under the deterministic tick loop of internal/hv:
// once per tick each core asks PickNext for an assignment, execution is
// charged back through ChargeTick, and EndTick closes the tick (credit
// refill happens on slice boundaries).
package sched

import (
	"kyoto/internal/machine"
	"kyoto/internal/vm"
)

// Scheduler is the hypervisor scheduling policy driven by internal/hv.
//
// Implementations are single-threaded (the simulation loop owns them) and
// must respect vm.VCPU.Schedulable and vm.VCPU.AllowedOn in PickNext so
// that the Kyoto layer's pollution blocking and the experiments' pinning
// work with every policy.
type Scheduler interface {
	// Name identifies the policy in reports ("credit", "cfs", ...).
	Name() string
	// Register adds a vCPU to the runqueue.
	Register(v *vm.VCPU)
	// PickNext chooses the vCPU core runs during the next tick, or nil to
	// idle. hv calls it once per core per tick, in core order; a vCPU
	// already handed out in the same tick must not be handed out twice.
	PickNext(core *machine.Core, now uint64) *vm.VCPU
	// ChargeTick accounts wallCycles of pCPU occupancy to v for the tick
	// that just executed.
	ChargeTick(v *vm.VCPU, wallCycles uint64, now uint64)
	// EndTick finishes the tick; slice-boundary bookkeeping (credit
	// refill, cap-window reset) happens here.
	EndTick(now uint64)
}

// Remover is implemented by schedulers that support removing a vCPU from
// their runqueues — the scheduler half of VM departure in fleet churn
// scenarios (internal/hv.World.RemoveVM requires it). All built-in
// policies implement Remover; Unregister of a vCPU that was never
// registered is a no-op.
type Remover interface {
	Unregister(v *vm.VCPU)
}

// Admitter is optionally implemented by schedulers that refuse some
// vCPUs outright (Pisces needs every enclave pinned to a core of its
// own). internal/hv.World.AddVM passes all of a new VM's vCPUs to Admit
// before registering any of them, so a refused VM surfaces as a clean
// error and leaves the world and the scheduler untouched. Admit must not
// mutate the scheduler. A decorator need not implement it: hv consults
// the base chain through the Base accessor.
type Admitter interface {
	Admit(vcpus []*vm.VCPU) error
}

// IdleTickInvariant marks a scheduler (or hv tick hook) whose per-tick
// work is provably the identity on a world that holds no VMs: with an
// empty runqueue, PickNext returns nil without mutating anything and
// EndTick's slice-boundary bookkeeping touches no state. The testbed's
// idle fast-forward (hv.World.FastForward) elides the tick loop for
// empty worlds only when every installed policy and hook carries this
// marker — which is what lets the fleet's lazy per-host clocks skip an
// untouched host's idle stretch in O(1) instead of simulating it.
// Implementations promise the invariant for their own state only; a
// decorator must additionally hold it for its base (hv checks the base
// recursively through the Base accessor).
type IdleTickInvariant interface {
	IdleTickInvariant()
}

// BudgetLimiter is optionally implemented by schedulers that bound how
// many wall cycles a vCPU may consume within one tick (sub-tick cap
// enforcement). The testbed stops the vCPU once the budget is spent and
// leaves the core idle for the remainder of the tick.
type BudgetLimiter interface {
	// TickBudget returns the maximum wall cycles v may run during the
	// coming tick; ^uint64(0) means unlimited.
	TickBudget(v *vm.VCPU, now uint64) uint64
}

// assignment tracking shared by the policies: a vCPU picked at tick t must
// not be picked again at tick t by another core.
type assignTracker struct {
	tick map[*vm.VCPU]uint64
}

func newAssignTracker() assignTracker {
	return assignTracker{tick: make(map[*vm.VCPU]uint64)}
}

// taken reports whether v was already assigned at tick now.
func (a *assignTracker) taken(v *vm.VCPU, now uint64) bool {
	t, ok := a.tick[v]
	return ok && t == now+1 // stored as now+1 so tick 0 works
}

// take marks v assigned at tick now.
func (a *assignTracker) take(v *vm.VCPU, now uint64) {
	a.tick[v] = now + 1
}

// forget drops v's assignment record (vCPU removal).
func (a *assignTracker) forget(v *vm.VCPU) {
	delete(a.tick, v)
}

// removeVCPU deletes v from vcpus preserving order, returning the shrunk
// slice. Shared by the policies' Unregister implementations; removal is a
// cold-path operation, so the O(n) copy is fine.
func removeVCPU(vcpus []*vm.VCPU, v *vm.VCPU) []*vm.VCPU {
	for i, cand := range vcpus {
		if cand == v {
			return append(vcpus[:i], vcpus[i+1:]...)
		}
	}
	return vcpus
}

package sched

import (
	"fmt"

	"kyoto/internal/machine"
	"kyoto/internal/vm"
)

// CFS is a completely-fair-scheduler-style policy: each vCPU accumulates
// weighted virtual runtime and the runnable vCPU with the minimum vruntime
// runs next. It is the substrate the paper's KS4Linux builds on (§4.4);
// the Kyoto decorator adds pollution throttling on top without modifying
// this code, mirroring how the real patch leaves CFS's pick logic alone.
type CFS struct {
	vcpus  []*vm.VCPU
	assign assignTracker
}

var _ Scheduler = (*CFS)(nil)
var _ Remover = (*CFS)(nil)

// NewCFS returns a CFS-style scheduler.
func NewCFS() *CFS {
	return &CFS{assign: newAssignTracker()}
}

// Name implements Scheduler.
func (c *CFS) Name() string { return "cfs" }

// IdleTickInvariant implements IdleTickInvariant: with no registered
// vCPUs, PickNext finds no candidate (and mutates nothing) and EndTick
// is empty.
func (c *CFS) IdleTickInvariant() {}

// Register implements Scheduler. A new vCPU starts at the current minimum
// vruntime so it neither starves others nor is starved.
func (c *CFS) Register(v *vm.VCPU) {
	if v.VM.Weight == 0 {
		v.VM.Weight = vm.DefaultWeight
	}
	v.VRuntime = c.minVRuntime()
	c.vcpus = append(c.vcpus, v)
}

// Unregister implements Remover.
func (c *CFS) Unregister(v *vm.VCPU) {
	c.vcpus = removeVCPU(c.vcpus, v)
	c.assign.forget(v)
}

// minVRuntime returns the smallest vruntime among registered vCPUs.
func (c *CFS) minVRuntime() uint64 {
	var minV uint64
	for i, v := range c.vcpus {
		if i == 0 || v.VRuntime < minV {
			minV = v.VRuntime
		}
	}
	return minV
}

// PickNext implements Scheduler: minimum vruntime first; ties go to the
// lowest vCPU id for determinism.
func (c *CFS) PickNext(core *machine.Core, now uint64) *vm.VCPU {
	var best *vm.VCPU
	for _, v := range c.vcpus {
		if !v.Schedulable() || !v.AllowedOn(core.ID) || c.assign.taken(v, now) {
			continue
		}
		if best == nil || v.VRuntime < best.VRuntime ||
			(v.VRuntime == best.VRuntime && v.Seq < best.Seq) {
			best = v
		}
	}
	if best != nil {
		c.assign.take(best, now)
		best.LastRunTick = now
	}
	return best
}

// ChargeTick implements Scheduler: vruntime advances inversely to weight.
func (c *CFS) ChargeTick(v *vm.VCPU, wallCycles uint64, now uint64) {
	w := v.VM.Weight
	if w <= 0 {
		w = vm.DefaultWeight
	}
	v.VRuntime += wallCycles * uint64(vm.DefaultWeight) / uint64(w)
}

// EndTick implements Scheduler. CFS has no slice accounting.
func (c *CFS) EndTick(now uint64) {}

// Pisces is the space-partitioned co-kernel scheduler of §4.4: every vCPU
// is an enclave with exclusive ownership of its pinned core — no
// time-sharing, no ticks stolen by a hypervisor. Performance interference
// through shared virtualization components is eliminated by construction,
// but the LLC stays shared, which is exactly the residual interference
// Figure 8 demonstrates (and KS4Pisces closes).
type Pisces struct {
	byCore map[int]*vm.VCPU
}

var _ Scheduler = (*Pisces)(nil)
var _ Remover = (*Pisces)(nil)
var _ Admitter = (*Pisces)(nil)

// NewPisces returns a Pisces-style scheduler.
func NewPisces() *Pisces {
	return &Pisces{byCore: make(map[int]*vm.VCPU)}
}

// Name implements Scheduler.
func (p *Pisces) Name() string { return "pisces" }

// Admit implements Admitter: every enclave vCPU must be pinned, and to a
// core that neither a registered enclave nor another vCPU of the batch
// (two vCPUs of one VM pinned alike) already owns.
func (p *Pisces) Admit(vcpus []*vm.VCPU) error {
	for i, v := range vcpus {
		if v.Pin == vm.NoPin {
			return fmt.Errorf("sched: pisces enclave %s vCPU %d must be pinned to a core", v.VM.Name, v.Index)
		}
		owner, busy := p.byCore[v.Pin]
		for _, prev := range vcpus[:i] {
			if prev.Pin == v.Pin {
				owner, busy = prev, true
			}
		}
		if busy {
			return fmt.Errorf("sched: pisces core %d of %s vCPU %d already owned by %s vCPU %d",
				v.Pin, v.VM.Name, v.Index, owner.VM.Name, owner.Index)
		}
	}
	return nil
}

// Register implements Scheduler. hv admits every vCPU through Admit
// first, so a vCPU Admit would refuse reaching Register is a caller bug,
// and it panics.
func (p *Pisces) Register(v *vm.VCPU) {
	if err := p.Admit([]*vm.VCPU{v}); err != nil {
		panic(err)
	}
	p.byCore[v.Pin] = v
}

// Unregister implements Remover: the enclave releases its core, which a
// later Register may claim again.
func (p *Pisces) Unregister(v *vm.VCPU) {
	if p.byCore[v.Pin] == v {
		delete(p.byCore, v.Pin)
	}
}

// PickNext implements Scheduler: the owning enclave always runs, unless
// blocked (the Kyoto layer's duty-cycling uses exactly this).
func (p *Pisces) PickNext(core *machine.Core, now uint64) *vm.VCPU {
	v, ok := p.byCore[core.ID]
	if !ok || !v.Schedulable() {
		return nil
	}
	v.LastRunTick = now
	return v
}

// ChargeTick implements Scheduler. Pisces does no accounting.
func (p *Pisces) ChargeTick(v *vm.VCPU, wallCycles uint64, now uint64) {}

// EndTick implements Scheduler.
func (p *Pisces) EndTick(now uint64) {}

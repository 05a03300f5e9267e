package hv_test

import (
	"testing"

	"kyoto/internal/cache"
	"kyoto/internal/hv"
	"kyoto/internal/machine"
	"kyoto/internal/sched"
	"kyoto/internal/vm"
	"kyoto/internal/workload"
)

// installProfile has 3 MiB of Chase working set across two phases, so
// an install that shuffled its chains up front would allocate ~384 KiB
// per vCPU.
var installProfile = workload.Profile{
	Name: "install-bench", Class: workload.C3, BaseCPI: 1,
	Phases: []workload.Phase{
		{Kind: workload.Chase, WSSBytes: 1 << 20, MemRatio: 0.3, Instructions: 400_000},
		{Kind: workload.Stream, WSSBytes: 8 << 20, MemRatio: 0.4, MLP: 4, Instructions: 400_000},
		{Kind: workload.Chase, WSSBytes: 2 << 20, MemRatio: 0.3, Instructions: 400_000},
	},
}

// BenchmarkAddVM measures VM install, the per-arrival cost of fleet churn
// replay, on each cache-model tier. Removal runs with the timer stopped,
// so B/op is the install alone; CI gates the analytic tier's B/op, which
// stays small only while Chase chains are built on first use instead of
// at install.
func BenchmarkAddVM(b *testing.B) {
	for _, fid := range []cache.Fidelity{cache.FidelityExact, cache.FidelityAnalytic} {
		b.Run(fid.String(), func(b *testing.B) {
			w, err := hv.New(hv.Config{Machine: machine.TableOne(1), Seed: 1, Fidelity: fid}, sched.NewCredit(4))
			if err != nil {
				b.Fatal(err)
			}
			spec := vm.Spec{Name: "tenant", Profile: installProfile, LLCCap: 250}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.AddVM(spec); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := w.RemoveVM(spec.Name); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

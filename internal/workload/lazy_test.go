package workload

import (
	"reflect"
	"testing"
	"testing/quick"

	"kyoto/internal/xrand"
)

// newEagerRef builds the reference generator Chase chains are measured
// against: the same construction as New, except that every Chase phase
// shuffles its chain at construction, drawing from the generator RNG.
func newEagerRef(p Profile, seed uint64) *gen {
	g := &gen{
		profile:  p,
		rng:      xrand.New(seed ^ 0x9e3779b9),
		patterns: make([]patternState, len(p.Phases)),
	}
	for i, ph := range p.Phases {
		if ph.Kind == Chase {
			lines := ph.WSSBytes / lineBytes
			if lines < 2 {
				lines = 2
			}
			g.patterns[i].lines = uint32(lines)
			g.patterns[i].chain = sattolo(lines, g.rng)
		}
	}
	return g
}

// randomChaseProfile derives a profile from seed with at least two Chase
// phases of different sizes, interleaved with the other patterns. Phases
// are short, so a few thousand steps cycle through all of them.
func randomChaseProfile(seed uint64) Profile {
	r := xrand.New(seed)
	phase := func(kind PatternKind) Phase {
		ph := Phase{Kind: kind, Instructions: uint64(50 + r.Intn(1500)), HaltFrac: 0.1 * r.Float64()}
		if kind != Compute {
			ph.WSSBytes = 64 * (1 + r.Intn(3000))
			ph.MemRatio = 0.05 + 0.95*r.Float64()
			ph.Writes = r.Float64()
		}
		return ph
	}
	a, b := phase(Chase), phase(Chase)
	b.WSSBytes = a.WSSBytes + 64*(1+r.Intn(500))
	phases := []Phase{a, b}
	for n := r.Intn(4); n > 0; n-- {
		kinds := []PatternKind{Chase, Stream, Strided, UniformRandom, Compute}
		ph := phase(kinds[r.Intn(len(kinds))])
		if ph.Kind == Strided {
			ph.StrideBytes = 4096
		}
		phases = append(phases, ph)
	}
	// Shuffle so the two fixed Chase phases are not always first.
	for i := len(phases) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		phases[i], phases[j] = phases[j], phases[i]
	}
	return testProfile(phases...)
}

// Property: building Chase chains on first use changes no output byte —
// the Next and NextBatch streams and the cursor captured right after New
// all equal the eager reference's.
func TestQuickLazyChainMatchesEager(t *testing.T) {
	f := func(profSeed, seed uint64) bool {
		p := randomChaseProfile(profSeed)
		ref := newEagerRef(p, seed)
		serial := MustNew(p, seed)
		batched := MustNew(p, seed).(BatchGenerator)

		refSt, err := CaptureGenState(ref)
		if err != nil {
			t.Fatal(err)
		}
		lazySt, err := CaptureGenState(serial)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(refSt, lazySt) {
			t.Logf("state after New: lazy %+v, eager %+v", lazySt, refSt)
			return false
		}

		buf := make([]Step, 13)
		for n := 0; n < 6000; n += len(buf) {
			batched.NextBatch(buf)
			for i := range buf {
				want := ref.Next()
				if got := serial.Next(); got != want {
					t.Logf("Next step %d: lazy %+v, eager %+v", n+i, got, want)
					return false
				}
				if buf[i] != want {
					t.Logf("NextBatch step %d: lazy %+v, eager %+v", n+i, buf[i], want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestChainBuiltOnFirstChaseStep pins the laziness itself: New builds no
// chain, and a phase's chain appears, with one entry per line, on that
// phase's first step — not before, and not for phases that have not run.
func TestChainBuiltOnFirstChaseStep(t *testing.T) {
	p := testProfile(
		Phase{Kind: Compute, Instructions: 1000},
		chasePhase(64*300, 0.5),
		Phase{Kind: Stream, WSSBytes: 4096, MemRatio: 0.5, Instructions: 1000},
		chasePhase(64*1000, 0.5),
	)
	g := MustNew(p, 3).(*gen)
	chainLens := func() [4]int {
		var n [4]int
		for i, s := range g.patterns {
			n[i] = len(s.chain)
		}
		return n
	}
	runUntilPhase := func(phase int) {
		for g.phaseIdx != phase {
			g.Next()
		}
	}
	for _, c := range []struct {
		phase int
		want  [4]int
	}{{1, [4]int{0, 0, 0, 0}}, {3, [4]int{0, 300, 0, 0}}} {
		runUntilPhase(c.phase)
		if got := chainLens(); got != c.want {
			t.Fatalf("entering phase %d: chain lengths %v, want %v", c.phase, got, c.want)
		}
		g.Next()
		c.want[c.phase] = int(g.patterns[c.phase].lines)
		if got := chainLens(); got != c.want {
			t.Fatalf("after phase %d's first step: chain lengths %v, want %v", c.phase, got, c.want)
		}
	}
	if chainLens() != [4]int{0, 300, 0, 1000} {
		t.Fatalf("chain lengths %v, want one entry per line", chainLens())
	}
}

// TestRestoreBeforeFirstChaseStep checks capture -> restore -> continue
// taken while no Chase phase has run yet: the restored generator builds
// its chains on first use and continues exactly like the straight-through
// generator and the eager reference.
func TestRestoreBeforeFirstChaseStep(t *testing.T) {
	p := testProfile(
		Phase{Kind: Compute, Instructions: 5000},
		Phase{Kind: UniformRandom, WSSBytes: 64 * 512, MemRatio: 0.3, Instructions: 2000, Writes: 0.5},
		Phase{Kind: Chase, WSSBytes: 64 * 700, MemRatio: 0.4, Instructions: 3000},
		Phase{Kind: Chase, WSSBytes: 64 * 90, MemRatio: 0.9, Instructions: 3000},
	)
	straight := MustNew(p, 11)
	ref := newEagerRef(p, 11)
	for i := 0; i < 40; i++ {
		straight.Next()
		ref.Next()
	}
	if g := straight.(*gen); g.phaseIdx >= 2 || g.patterns[2].chain != nil || g.patterns[3].chain != nil {
		t.Fatalf("setup: a Chase phase already ran (phase %d)", g.phaseIdx)
	}
	st, err := CaptureGenState(straight)
	if err != nil {
		t.Fatal(err)
	}
	resumed := MustNew(p, 11)
	if err := RestoreGenState(resumed, st); err != nil {
		t.Fatal(err)
	}
	sawChase := false
	for i := 0; i < 20_000; i++ {
		want := straight.Next()
		if got := resumed.Next(); got != want {
			t.Fatalf("step %d after restore: resumed %+v, straight %+v", i, got, want)
		}
		if got := ref.Next(); got != want {
			t.Fatalf("step %d after restore: eager %+v, straight %+v", i, got, want)
		}
		sawChase = sawChase || resumed.(*gen).patterns[3].chain != nil
	}
	if !sawChase {
		t.Fatal("continuation never reached the last Chase phase")
	}
}

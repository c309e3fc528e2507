package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"octocache/internal/geom"
	"octocache/internal/octree"
)

// fragmentingStream drives a mapper through a scan sequence chosen to
// load the octree arena free lists: a sweep phase growing structure from
// several origins, then repeated saturating re-observation so free-space
// octants clamp to identical values and prune.
func fragmentingStream(t *testing.T, m Mapper) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 6; i++ {
		origin := geom.V(0.5+float64(i)*0.7, 0.5+float64(i%3)*0.9, 1)
		scan := synthScan(rng, origin, 300)
		for j := 0; j < 12; j++ {
			if err := m.Insert(origin, scan); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestInsertStreamFragmentsArena pins the premise of the auto-compaction
// tests: the shared scan stream really does push slots through the free
// lists, so a policy has something to trigger on.
func TestInsertStreamFragmentsArena(t *testing.T) {
	m := mustEngine(t, KindOctoMap, testConfig())
	fragmentingStream(t, m)
	if free := m.ArenaStats().FreeSlots; free == 0 {
		t.Fatal("fragmenting stream left no free slots; compaction tests are vacuous")
	}
}

// TestAutoCompaction runs each pipeline with an aggressive policy against
// an uncompacted reference on the same stream: compaction must fire, the
// arena must end denser, and the serialized map must be bit-identical.
func TestAutoCompaction(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := testConfig()
			ref := mustEngine(t, kind, cfg)
			cfg.Compaction = octree.CompactionPolicy{MinFreeFraction: 0.05, MinFreeSlots: 1}
			m := mustEngine(t, kind, cfg)
			fragmentingStream(t, ref)
			fragmentingStream(t, m)

			if runs := m.CompactionStats().Runs; runs == 0 {
				t.Error("aggressive policy never triggered a compaction")
			}
			if m.CompactionStats().SlotsReclaimed == 0 {
				t.Error("compactions reclaimed no slots")
			}
			if refRuns := ref.CompactionStats().Runs; refRuns != 0 {
				t.Errorf("zero policy ran %d compactions", refRuns)
			}

			if err := ref.Close(); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			var a, b bytes.Buffer
			if _, err := ref.Snapshot().WriteTo(&a); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Snapshot().WriteTo(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Error("auto-compaction changed the serialized map")
			}
		})
	}
}

// TestExplicitCompact checks the Compact entry point on a live pipeline:
// the arena ends dense, capacity strictly shrinks when slots were free,
// and queries are untouched.
func TestExplicitCompact(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m, err := NewEngine(kind, testConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			fragmentingStream(t, m)

			before := m.ArenaStats()
			freeBefore, capBefore := before.FreeSlots, before.Capacity
			if freeBefore == 0 {
				t.Fatal("stream left no free slots")
			}
			probe := geom.V(1.2, 0.9, 1.1)
			wantL, wantKnown := m.Occupancy(probe)

			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			st := m.CompactionStats()
			if st.Runs != 1 || st.SlotsReclaimed == 0 || st.LastDuration <= 0 {
				t.Errorf("CompactionStats after one explicit run: %+v", st)
			}
			after := m.ArenaStats()
			live, free, capacity := after.LiveNodes, after.FreeSlots, after.Capacity
			if free != 0 || live != capacity {
				t.Errorf("arena not dense: live %d free %d capacity %d", live, free, capacity)
			}
			if capacity >= capBefore {
				t.Errorf("capacity did not shrink: %d -> %d", capBefore, capacity)
			}
			if l, known := m.Occupancy(probe); l != wantL || known != wantKnown {
				t.Errorf("query changed across Compact: (%v,%v) -> (%v,%v)", wantL, wantKnown, l, known)
			}

			// The compacted pipeline must remain fully usable.
			rng := rand.New(rand.NewSource(5))
			if err := m.Insert(geom.V(1, 1, 1), synthScan(rng, geom.V(1, 1, 1), 100)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCompactAfterClose covers the lifecycle contract on every engine
// composition: ErrClosed, not a panic or a deadlock.
func TestCompactAfterClose(t *testing.T) {
	for _, kind := range allKinds() {
		t.Run(kind.String(), func(t *testing.T) {
			m := mustEngine(t, kind, testConfig())
			if err := m.Compact(); err != nil {
				t.Fatalf("Compact on a live empty map: %v", err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			if err := m.Compact(); !errors.Is(err, ErrClosed) {
				t.Errorf("Compact after Close = %v, want ErrClosed", err)
			}
		})
	}
}

package octocache

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestBackendMatrixConsistency is the gate on the pluggable-backend
// redesign: every pipeline mode × shard count × backend combination fed
// the same scan stream must answer Occupancy, OccupiedKey, and CastRay
// bit-identically to the unsharded serial octree reference after every
// batch, and serialize to the exact same bytes once closed. The byte
// check is what licenses backends to share .bt files: a grid-backed
// map's snapshot rebuild and an octree's direct write converge on the
// canonical pruned form.
func TestBackendMatrixConsistency(t *testing.T) {
	ref := MustNew(Options{Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 10})

	type entry struct {
		name   string
		shards int
		m      *Map
	}
	var maps []entry
	for _, backend := range []Backend{BackendOctree, BackendGrid} {
		for _, mode := range []Mode{ModeSerial, ModeParallel, ModeOctoMap} {
			for _, shards := range []int{0, 1, 2, 8} {
				opts := Options{
					Resolution: 0.1, Mode: mode, Shards: shards,
					Backend: backend, CacheBuckets: 1 << 10,
				}
				maps = append(maps, entry{
					name:   fmt.Sprintf("%v/mode=%d/shards=%d", backend, mode, shards),
					shards: shards,
					m:      MustNew(opts),
				})
			}
		}
	}

	origin := V(0, 0, 0.5)
	rng := rand.New(rand.NewSource(17))
	var probes []Vec3
	for batch := 0; batch < 4; batch++ {
		var pts []Vec3
		for j := 0; j < 120; j++ {
			ang := rng.Float64() * 2 * math.Pi
			r := 1 + rng.Float64()*2.5
			pts = append(pts, origin.Add(V(r*math.Cos(ang), r*math.Sin(ang), rng.Float64()-0.5)))
		}
		if err := ref.Insert(origin, pts); err != nil {
			t.Fatal(err)
		}
		for _, e := range maps {
			if err := e.m.Insert(origin, pts); err != nil {
				t.Fatalf("%s: Insert: %v", e.name, err)
			}
		}
		probes = append(probes, pts[:20]...)
		probes = append(probes, origin)
		for _, p := range probes {
			lw, kw := ref.Occupancy(p)
			kref, inMap := ref.CoordToKey(p)
			for _, e := range maps {
				if lg, kg := e.m.Occupancy(p); lg != lw || kg != kw {
					t.Fatalf("batch %d %s: Occupancy(%v) = (%v,%v), ref (%v,%v)",
						batch, e.name, p, lg, kg, lw, kw)
				}
				if inMap && e.m.OccupiedKey(kref) != ref.OccupiedKey(kref) {
					t.Fatalf("batch %d %s: OccupiedKey(%v) disagrees", batch, e.name, kref)
				}
			}
		}
		for _, dir := range []Vec3{V(1, 0.2, 0), V(-0.7, 1, 0.1), V(0, -1, -0.2)} {
			hw, okw := ref.CastRay(origin, dir, 8, true)
			for _, e := range maps {
				if hg, okg := e.m.CastRay(origin, dir, 8, true); okg != okw || hg != hw {
					t.Fatalf("batch %d %s: CastRay(%v) = (%v,%v), ref (%v,%v)",
						batch, e.name, dir, hg, okg, hw, okw)
				}
			}
		}
	}

	// Stats parity: one router serves every shard count, counting scans
	// at the engine for the single-driver map and at the router for the
	// rest. Each cell must report the ingest its Shards 0 sibling (the
	// entry that opens its backend × mode group) reports.
	var single PipelineStats
	for _, e := range maps {
		got := e.m.Stats().Pipeline
		if e.shards == 0 {
			single = got
			if got.Batches != 4 || got.VoxelsTraced == 0 {
				t.Errorf("%s: Stats().Pipeline = %+v after 4 scans", e.name, got)
			}
		}
		if got.Batches != single.Batches || got.VoxelsTraced != single.VoxelsTraced {
			t.Errorf("%s: Stats().Pipeline = %+v, Shards 0 sibling reports %+v", e.name, got, single)
		}
	}

	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := ref.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	for _, e := range maps {
		if e.m.Backend() == BackendGrid {
			if st := e.m.Stats(); st.Backend != BackendGrid {
				t.Errorf("%s: Stats().Backend = %v", e.name, st.Backend)
			}
		}
		if err := e.m.Close(); err != nil {
			t.Fatalf("%s: Close: %v", e.name, err)
		}
		var got bytes.Buffer
		if _, err := e.m.WriteTo(&got); err != nil {
			t.Fatalf("%s: WriteTo: %v", e.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: serialization differs from serial octree reference", e.name)
		}
	}
}

// TestOpenAcrossBackends: a stream written by one backend loads into a
// map of the other, answers identically, and — untouched — reserializes
// to the source bytes. Sharded targets split the loaded leaves by
// Morton prefix, so they are exercised too.
func TestOpenAcrossBackends(t *testing.T) {
	src := MustNew(Options{Resolution: 0.1, Mode: ModeSerial, Backend: BackendGrid, CacheBuckets: 1 << 10})
	origin := V(0, 0, 0.5)
	var probes []Vec3
	rng := rand.New(rand.NewSource(23))
	for batch := 0; batch < 3; batch++ {
		var pts []Vec3
		for j := 0; j < 150; j++ {
			ang := rng.Float64() * 2 * math.Pi
			r := 1 + rng.Float64()*3
			pts = append(pts, origin.Add(V(r*math.Cos(ang), r*math.Sin(ang), rng.Float64()-0.5)))
		}
		if err := src.Insert(origin, pts); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, pts[:30]...)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if _, err := src.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}

	for _, opts := range []Options{
		{Backend: BackendOctree},
		{Backend: BackendGrid},
		{Backend: BackendOctree, Shards: 4},
		{Backend: BackendGrid, Shards: 4},
		{Backend: BackendGrid, Mode: ModeOctoMap},
	} {
		m, err := Open(bytes.NewReader(blob.Bytes()), opts)
		if err != nil {
			t.Fatalf("Open(%+v): %v", opts, err)
		}
		for _, p := range probes {
			lw, kw := src.Occupancy(p)
			if lg, kg := m.Occupancy(p); lg != lw || kg != kw {
				t.Fatalf("Open(%+v): disagrees with source at %v", opts, p)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if _, err := m.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), blob.Bytes()) {
			t.Errorf("Open(%+v): reserialization differs from the grid-written source", opts)
		}
	}
}

// TestSnapshotAndWalkLeaves covers the backend-neutral replacements for
// the removed Tree() escape hatch: on a LIVE map — default cache
// sizing, so most updates are still cache-resident, not yet applied to
// the store — Snapshot and WriteTo must answer and serialize exactly
// like the map queries, and WalkLeaves streams the same content in
// ascending Morton order.
func TestSnapshotAndWalkLeaves(t *testing.T) {
	for _, backend := range []Backend{BackendOctree, BackendGrid} {
		for _, shards := range []int{0, 2} {
			m := MustNew(Options{Resolution: 0.1, Backend: backend, Shards: shards})
			origin := V(0, 0, 1)
			pts := scanRing(origin, 2, 200)
			if err := m.Insert(origin, pts); err != nil {
				t.Fatal(err)
			}
			snap := m.Snapshot()
			for _, p := range append(pts[:50:50], origin, V(1, 0, 1)) {
				lw, kw := m.Occupancy(p)
				if lg, kg := snap.Occupancy(p); lg != lw || kg != kw {
					t.Fatalf("%v/shards=%d: snapshot disagrees with live map at %v: (%v,%v) vs (%v,%v)",
						backend, shards, p, lg, kg, lw, kw)
				}
			}
			if snap.NumLeaves() == 0 {
				t.Fatalf("%v/shards=%d: live snapshot is empty", backend, shards)
			}
			// A live map serializes its complete state — snapshot bytes.
			var live, want bytes.Buffer
			if _, err := m.WriteTo(&live); err != nil {
				t.Fatal(err)
			}
			if _, err := snap.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(live.Bytes(), want.Bytes()) {
				t.Errorf("%v/shards=%d: live WriteTo differs from snapshot bytes", backend, shards)
			}
			walked := 0
			last := uint64(0)
			m.WalkLeaves(func(l Leaf) bool {
				if mo := l.Key.Morton(); walked > 0 && mo <= last {
					t.Fatalf("%v/shards=%d: WalkLeaves not ascending", backend, shards)
				} else {
					last = mo
				}
				walked++
				return true
			})
			if walked != snap.NumLeaves() {
				t.Errorf("%v/shards=%d: WalkLeaves saw %d leaves, snapshot has %d",
					backend, shards, walked, snap.NumLeaves())
			}
			m.Close()
		}
	}
}

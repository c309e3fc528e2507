package octocache

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// scanRing generates points on a cylindrical wall around the origin.
func scanRing(origin Vec3, radius float64, n int) []Vec3 {
	pts := make([]Vec3, 0, n)
	for i := 0; i < n; i++ {
		ang := float64(i) / float64(n) * 2 * math.Pi
		pts = append(pts, origin.Add(V(radius*math.Cos(ang), radius*math.Sin(ang), 0)))
	}
	return pts
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("zero options accepted")
	}
	if _, err := New(Options{Resolution: -1}); err == nil {
		t.Error("negative resolution accepted")
	}
	m, err := New(Options{Resolution: 0.1})
	if err != nil {
		t.Fatalf("valid options rejected: %v", err)
	}
	m.Close()
	// An out-of-range backend is rejected like any other invalid option.
	if _, err := New(Options{Resolution: 0.1, Backend: Backend(99)}); err == nil {
		t.Error("unknown backend accepted")
	}
	m, err = New(Options{Resolution: 0.1, Backend: BackendGrid})
	if err != nil {
		t.Fatalf("grid backend rejected: %v", err)
	}
	m.Close()
}

func TestMustNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid options did not panic")
		}
	}()
	MustNew(Options{})
}

func TestAllModesAgree(t *testing.T) {
	maps := []*Map{
		MustNew(Options{Resolution: 0.1, Mode: ModeOctoMap}),
		MustNew(Options{Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 12}),
		MustNew(Options{Resolution: 0.1, Mode: ModeParallel, CacheBuckets: 1 << 12}),
	}
	origin := V(0, 0, 1)
	rng := rand.New(rand.NewSource(1))
	for batch := 0; batch < 5; batch++ {
		pts := scanRing(origin, 2+rng.Float64(), 100)
		for _, m := range maps {
			m.Insert(origin, pts)
		}
	}
	probes := scanRing(origin, 2.5, 40)
	probes = append(probes, origin, V(0.5, 0.5, 1), V(10, 10, 10))
	for _, p := range probes {
		l0, k0 := maps[0].Occupancy(p)
		for i, m := range maps[1:] {
			l, k := m.Occupancy(p)
			if l != l0 || k != k0 {
				t.Fatalf("mode %d disagrees at %v: (%v,%v) vs (%v,%v)", i+1, p, l, k, l0, k0)
			}
		}
	}
	for _, m := range maps {
		m.Close()
	}
}

func TestOccupiedAndProbability(t *testing.T) {
	m := MustNew(Options{Resolution: 0.1})
	target := V(3, 0, 1)
	m.Insert(V(0, 0, 1), []Vec3{target})
	if !m.Occupied(target) {
		t.Error("scanned obstacle not occupied")
	}
	l, known := m.Occupancy(target)
	if !known {
		t.Fatal("scanned obstacle unknown")
	}
	if p := Probability(l); p <= 0.5 || p >= 1 {
		t.Errorf("occupied probability %v out of (0.5, 1)", p)
	}
	// Free voxel along the ray.
	l, known = m.Occupancy(V(1.5, 0, 1))
	if !known || Probability(l) >= 0.5 {
		t.Errorf("mid-ray voxel should be known free, got %v,%v", l, known)
	}
	m.Close()
}

func TestStatsAndResolution(t *testing.T) {
	m := MustNew(Options{Resolution: 0.25, Mode: ModeSerial, CacheBuckets: 1 << 10})
	if m.Resolution() != 0.25 {
		t.Errorf("Resolution = %v", m.Resolution())
	}
	origin := V(0, 0, 1)
	for i := 0; i < 4; i++ {
		m.Insert(origin, scanRing(origin, 3, 200))
	}
	m.Close()
	st := m.Stats()
	if st.Pipeline.Batches != 4 || st.Pipeline.VoxelsTraced == 0 || st.Arena.LiveNodes == 0 || st.Arena.Bytes == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
	if st.Cache.HitRate <= 0.3 {
		t.Errorf("repeated identical scans should hit the cache hard, got %.2f", st.Cache.HitRate)
	}
	if st.Cache.Hits == 0 || st.Cache.Inserts == 0 || st.Cache.Evicted == 0 {
		t.Errorf("cache counters incomplete: %+v", st.Cache)
	}
	if st.Pipeline.VoxelsToOctree >= st.Pipeline.VoxelsTraced {
		t.Error("cache absorbed nothing")
	}
	if st.Arena.Occupancy() <= 0 || st.Arena.Occupancy() > 1 {
		t.Errorf("arena occupancy %v out of (0, 1]", st.Arena.Occupancy())
	}
	if got := st.Arena.Fragmentation() + st.Arena.Occupancy(); math.Abs(got-1) > 1e-12 {
		t.Errorf("occupancy %v + fragmentation %v != 1", st.Arena.Occupancy(), st.Arena.Fragmentation())
	}
}

func TestWriteTo(t *testing.T) {
	m := MustNew(Options{Resolution: 0.1, MaxRange: 5})
	m.Insert(V(0, 0, 1), scanRing(V(0, 0, 1), 2, 100))
	m.Close()
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if n == 0 || buf.Len() == 0 {
		t.Error("empty serialization")
	}
}

func TestDedupRaysMode(t *testing.T) {
	a := MustNew(Options{Resolution: 0.1, Mode: ModeSerial, DedupRays: true, CacheBuckets: 1 << 10})
	origin := V(0, 0, 1)
	a.Insert(origin, scanRing(origin, 2, 300))
	a.Close()
	st := a.Stats()
	// With per-batch dedup the trace stream has no duplicates, so a
	// single batch cannot produce cache hits.
	if st.Cache.HitRate != 0 {
		t.Errorf("single deduped batch hit rate = %v, want 0", st.Cache.HitRate)
	}
}

func TestBackendsAgreeOnQueries(t *testing.T) {
	a := MustNew(Options{Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 10})
	b := MustNew(Options{Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 10, Backend: BackendGrid})
	origin := V(0, 0, 1)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5; i++ {
		var pts []Vec3
		for j := 0; j < 150; j++ {
			ang := rng.Float64() * 2 * math.Pi
			r := 1 + rng.Float64()*3
			pts = append(pts, origin.Add(V(r*math.Cos(ang), r*math.Sin(ang), rng.Float64()-0.5)))
		}
		a.Insert(origin, pts)
		b.Insert(origin, pts)
		for _, p := range pts[:30] {
			la, ka := a.Occupancy(p)
			lb, kb := b.Occupancy(p)
			if la != lb || ka != kb {
				t.Fatalf("octree and grid backends disagree at %v", p)
			}
		}
	}
	a.Close()
	b.Close()
}

func TestNewRejectsNegativeOptions(t *testing.T) {
	cases := []Options{
		{Resolution: 0.1, CacheBuckets: -1},
		{Resolution: 0.1, CacheTau: -3},
		{Resolution: 0.1, Shards: -2},
		{Resolution: 0.1, Shards: MaxShards * 2},
		{Resolution: 0.1, Compaction: CompactionPolicy{MinFreeFraction: -0.5}},
		{Resolution: 0.1, Compaction: CompactionPolicy{MinFreeFraction: 1.5}},
		{Resolution: 0.1, Compaction: CompactionPolicy{MinFreeFraction: 0.5, MinFreeSlots: -1}},
	}
	for i, opts := range cases {
		if _, err := New(opts); err == nil {
			t.Errorf("case %d: invalid options %+v accepted", i, opts)
		}
	}
}

func TestShardedAgreesWithSerial(t *testing.T) {
	ref := MustNew(Options{Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 12})
	sh := MustNew(Options{Resolution: 0.1, Shards: 4, CacheBuckets: 1 << 12})
	if sh.Shards() != 4 || ref.Shards() != 1 {
		t.Fatalf("Shards() = %d / %d", sh.Shards(), ref.Shards())
	}
	rng := rand.New(rand.NewSource(7))
	origins := []Vec3{V(0, 0, 1), V(-2, 1, 0.5)}
	var probes []Vec3
	for batch := 0; batch < 6; batch++ {
		origin := origins[batch%2]
		pts := scanRing(origin, 1.5+rng.Float64()*2, 120)
		ref.Insert(origin, pts)
		if err := sh.Insert(origin, pts); err != nil {
			t.Fatalf("Insert: %v", err)
		}
		probes = append(probes, pts[:15]...)
		for _, p := range probes {
			l0, k0 := ref.Occupancy(p)
			l1, k1 := sh.Occupancy(p)
			if l0 != l1 || k0 != k1 {
				t.Fatalf("batch %d: disagree at %v: (%v,%v) vs (%v,%v)", batch, p, l1, k1, l0, k0)
			}
		}
	}

	// Key-space and ray queries agree through the public API.
	k, ok := sh.CoordToKey(probes[0])
	if !ok {
		t.Fatal("probe outside map")
	}
	if sh.OccupiedKey(k) != ref.OccupiedKey(k) {
		t.Error("OccupiedKey disagrees")
	}
	if c := sh.KeyToCoord(k); c.Sub(probes[0]).Norm() > 0.1*math.Sqrt(3) {
		t.Errorf("KeyToCoord(%v) = %v, too far from %v", k, c, probes[0])
	}
	h0, ok0 := ref.CastRay(V(0, 0, 1), V(1, 0.2, 0), 8, true)
	h1, ok1 := sh.CastRay(V(0, 0, 1), V(1, 0.2, 0), 8, true)
	if ok0 != ok1 || h0 != h1 {
		t.Errorf("CastRay disagrees: (%v,%v) vs (%v,%v)", h1, ok1, h0, ok0)
	}

	// Closed maps still agree, and serialize to identical bytes.
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sh.Close(); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if _, err := ref.WriteTo(&a); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("sharded serialization differs from serial")
	}
}

func TestInsertAfterCloseReturnsErrClosed(t *testing.T) {
	for _, opts := range []Options{
		{Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 10},
		{Resolution: 0.1, Shards: 2, CacheBuckets: 1 << 10},
	} {
		m := MustNew(opts)
		origin := V(0, 0, 1)
		pts := scanRing(origin, 2, 50)
		if err := m.Insert(origin, pts); err != nil {
			t.Fatalf("%+v: Insert: %v", opts, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%+v: Close: %v", opts, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%+v: second Close: %v", opts, err)
		}
		if err := m.Insert(origin, pts); err != ErrClosed {
			t.Errorf("%+v: Insert after Close = %v, want ErrClosed", opts, err)
		}
		if !m.Occupied(pts[0]) {
			t.Errorf("%+v: closed map lost its content", opts)
		}
	}
}

func TestShardedStats(t *testing.T) {
	m := MustNew(Options{Resolution: 0.1, Shards: 3, CacheBuckets: 1 << 10})
	if m.Shards() != 4 {
		t.Errorf("Shards() = %d, want 4 (rounded up)", m.Shards())
	}
	origin := V(0, 0, 1)
	for i := 0; i < 3; i++ {
		if err := m.Insert(origin, scanRing(origin, 2.5, 150)); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.Shards != 4 || st.Pipeline.Batches != 3 || st.Pipeline.VoxelsTraced == 0 || st.Arena.LiveNodes == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
	per := m.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats len = %d", len(per))
	}
	sum := 0
	for _, s := range per {
		if s.QueueDepth != 0 {
			t.Errorf("shard %d queue depth %d after Close", s.Shard, s.QueueDepth)
		}
		sum += s.Arena.LiveNodes
	}
	if sum != st.Arena.LiveNodes {
		t.Errorf("per-shard nodes %d != aggregate %d", sum, st.Arena.LiveNodes)
	}
	// Single-driver maps report no per-shard breakdown.
	u := MustNew(Options{Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 10})
	if u.ShardStats() != nil {
		t.Error("unsharded ShardStats not nil")
	}
	u.Close()
}

// TestOpenRoundTrip: a map serialized with WriteTo reopens through Open
// — single-driver and sharded — answering identically, accepting further
// scans, and reserializing to the same bytes when untouched.
func TestOpenRoundTrip(t *testing.T) {
	src := MustNew(Options{Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 10, MaxRange: 6})
	origins := []Vec3{V(0, 0, 0.5), V(-2, 1.5, -0.5), V(1.5, -2, 1)}
	var probes []Vec3
	for i, origin := range origins {
		pts := scanRing(origin, 1.5+0.4*float64(i), 150)
		if err := src.Insert(origin, pts); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, pts[:40]...)
		probes = append(probes, origin)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	var blob bytes.Buffer
	if _, err := src.WriteTo(&blob); err != nil {
		t.Fatal(err)
	}

	for _, opts := range []Options{
		{}, // defaults: ModeParallel, unsharded
		{Mode: ModeSerial},
		{Mode: ModeOctoMap},
		{Shards: 1}, // sharded, async per shard (default mode)
		{Shards: 4},
		{Shards: 4, Mode: ModeSerial},
		{Resolution: 99}, // stream params win over Options.Resolution
	} {
		m, err := Open(bytes.NewReader(blob.Bytes()), opts)
		if err != nil {
			t.Fatalf("Open(%+v): %v", opts, err)
		}
		if m.Resolution() != 0.1 {
			t.Fatalf("Open(%+v): resolution %v, want stream's 0.1", opts, m.Resolution())
		}
		for _, p := range probes {
			lw, kw := src.Occupancy(p)
			if lg, kg := m.Occupancy(p); lg != lw || kg != kw {
				t.Fatalf("Open(%+v): disagrees with source at %v: (%v,%v) vs (%v,%v)",
					opts, p, lg, kg, lw, kw)
			}
		}
		// Untouched, the reopened map reserializes to the same bytes.
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if _, err := m.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), blob.Bytes()) {
			t.Errorf("Open(%+v): reserialization differs from source", opts)
		}
	}

	// A reopened map keeps mapping: new scans land on top of the loaded
	// state exactly as they would have on the original.
	reopened, err := Open(bytes.NewReader(blob.Bytes()), Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	extra := scanRing(V(0, 0, 0.5), 2.5, 120)
	if err := reopened.Insert(V(0, 0, 0.5), extra); err != nil {
		t.Fatalf("Insert after Open: %v", err)
	}
	if _, known := reopened.Occupancy(extra[0]); !known {
		t.Error("scan inserted after Open not visible")
	}
	reopened.Close()

	if _, err := Open(bytes.NewReader([]byte("not a map")), Options{}); err == nil {
		t.Error("Open accepted garbage input")
	}
}

// TestModeComposesWithShards: every Mode × Shards combination answers
// bit-identically to the unsharded serial pipeline on the same stream —
// Mode is no longer ignored when Shards >= 1.
func TestModeComposesWithShards(t *testing.T) {
	ref := MustNew(Options{Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 10})
	var maps []*Map
	for _, mode := range []Mode{ModeParallel, ModeSerial, ModeOctoMap} {
		for _, shards := range []int{0, 1, 4} {
			maps = append(maps, MustNew(Options{
				Resolution: 0.1, Mode: mode, Shards: shards, CacheBuckets: 1 << 10,
			}))
		}
	}
	origin := V(0, 0, 0.5)
	rng := rand.New(rand.NewSource(11))
	var probes []Vec3
	for batch := 0; batch < 5; batch++ {
		var pts []Vec3
		for j := 0; j < 120; j++ {
			ang := rng.Float64() * 2 * math.Pi
			r := 1 + rng.Float64()*2.5
			pts = append(pts, origin.Add(V(r*math.Cos(ang), r*math.Sin(ang), rng.Float64()-0.5)))
		}
		if err := ref.Insert(origin, pts); err != nil {
			t.Fatal(err)
		}
		for _, m := range maps {
			if err := m.Insert(origin, pts); err != nil {
				t.Fatal(err)
			}
		}
		probes = append(probes, pts[:25]...)
		for _, p := range probes {
			lw, kw := ref.Occupancy(p)
			for i, m := range maps {
				if lg, kg := m.Occupancy(p); lg != lw || kg != kw {
					t.Fatalf("batch %d map %d (%d shards): disagrees at %v", batch, i, m.Shards(), p)
				}
			}
		}
	}
	ref.Close()
	for _, m := range maps {
		m.Close()
	}
}

// TestInsertSteadyStateAllocs lifts internal/core's allocation gate to
// the public entry point, on both sides of the single-driver choice:
// Shards 0 reaches the engine's own Insert through the router, Shards 1
// goes through the router's pooled tracer and partition scratch. Neither
// may add per-scan allocation once warm (the slack absorbs runtime
// noise and a sync.Pool refill after a GC cycle).
func TestInsertSteadyStateAllocs(t *testing.T) {
	for _, mode := range []Mode{ModeSerial, ModeOctoMap} {
		for _, shards := range []int{0, 1} {
			t.Run(fmt.Sprintf("mode=%v/shards=%d", mode, shards), func(t *testing.T) {
				m := MustNew(Options{Resolution: 0.1, Mode: mode, Shards: shards, CacheBuckets: 1 << 8, CacheTau: 2})
				defer m.Close()
				origin := V(0.5, 0.5, 1)
				scan := scanRing(origin, 2.5, 200)
				for i := 0; i < 50; i++ { // warm every buffer and saturate values
					if err := m.Insert(origin, scan); err != nil {
						t.Fatal(err)
					}
				}
				avg := testing.AllocsPerRun(20, func() {
					if err := m.Insert(origin, scan); err != nil {
						t.Fatal(err)
					}
				})
				if avg > 2 {
					t.Errorf("steady-state Insert allocates %.1f times per scan; want ~0", avg)
				}
			})
		}
	}
}

package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"octocache/internal/cache"
	"octocache/internal/geom"
	"octocache/internal/octree"
	"octocache/internal/sensor"
	"octocache/internal/world"
)

// testConfig keeps the key space small enough that scans overlap heavily,
// exercising cache hits, evictions, and octree interaction.
func testConfig() Config {
	cfg := DefaultConfig(0.1)
	cfg.Octree.Depth = 8 // 25.6 m cube
	cfg.CacheBuckets = 256
	cfg.CacheTau = 2
	return cfg
}

// synthScan generates a deterministic conical scan from a moving origin,
// mimicking the forward-facing sensor of §3.1.
func synthScan(rng *rand.Rand, origin geom.Vec3, n int) []geom.Vec3 {
	pts := make([]geom.Vec3, 0, n)
	for i := 0; i < n; i++ {
		yaw := (rng.Float64() - 0.5) * math.Pi / 3
		pitch := (rng.Float64() - 0.5) * math.Pi / 6
		r := 1.5 + rng.Float64()*2.5
		dir := geom.Pose{Yaw: yaw, Pitch: pitch}.Forward()
		pts = append(pts, origin.Add(dir.Scale(r)))
	}
	return pts
}

func allKinds() []Kind { return []Kind{KindOctoMap, KindSerial, KindParallel} }

// mustEngine is MustNew for tests that reach past the Mapper surface to
// the concrete engine (compaction, arena, window and durable stats).
func mustEngine(t testing.TB, kind Kind, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine(kind, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidatesConfig(t *testing.T) {
	var bad Config
	for _, k := range allKinds() {
		if _, err := New(k, bad); err == nil {
			t.Errorf("kind %v accepted invalid config", k)
		}
	}
	if _, err := New(Kind(99), testConfig()); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestKindStrings(t *testing.T) {
	if KindOctoMap.String() != "octomap" ||
		KindSerial.String() != "octocache-serial" ||
		KindParallel.String() != "octocache-parallel" {
		t.Error("kind strings wrong")
	}
	if Kind(99).String() != "unknown" {
		t.Error("unknown kind string wrong")
	}
}

func TestNames(t *testing.T) {
	cfg := testConfig()
	for _, k := range allKinds() {
		m := MustNew(k, cfg)
		if m.Name() == "" {
			t.Errorf("kind %v has empty name", k)
		}
		m.Close()
	}
	cfg.RT = true
	for _, k := range allKinds() {
		m := MustNew(k, cfg)
		if n := m.Name(); n[len(n)-3:] != "-rt" {
			t.Errorf("RT variant name %q lacks -rt suffix", n)
		}
		m.Close()
	}
}

func TestBasicInsertAndQuery(t *testing.T) {
	for _, kind := range allKinds() {
		m := MustNew(kind, testConfig())
		origin := geom.V(0, 0, 1)
		target := geom.V(3, 0, 1)
		m.Insert(origin, []geom.Vec3{target})
		if !m.Occupied(target) {
			t.Errorf("%v: endpoint not occupied", kind)
		}
		// A voxel along the ray must be known-free.
		mid := geom.V(1.5, 0, 1)
		l, known := m.Occupancy(mid)
		if !known {
			t.Errorf("%v: mid-ray voxel unknown", kind)
		}
		if l >= 0 {
			t.Errorf("%v: mid-ray voxel log-odds %v, want negative", kind, l)
		}
		if m.Occupied(geom.V(-2, -2, -2)) {
			t.Errorf("%v: unobserved voxel occupied", kind)
		}
		m.Close()
	}
}

// TestConsistencyAcrossPipelines is the paper's query-consistency
// guarantee: after every batch, all pipelines must agree voxel-for-voxel,
// and after Close their octrees must be structurally identical.
func TestConsistencyAcrossPipelines(t *testing.T) {
	cfg := testConfig()
	mappers := make([]Mapper, 0, 3)
	for _, k := range allKinds() {
		mappers = append(mappers, MustNew(k, cfg))
	}

	scanRNG := rand.New(rand.NewSource(77))
	probeRNG := rand.New(rand.NewSource(78))
	for batchIdx := 0; batchIdx < 30; batchIdx++ {
		// A drifting origin creates the inter-batch overlap of Figure 7.
		origin := geom.V(float64(batchIdx)*0.15, 0.05, 1)
		pts := synthScan(scanRNG, origin, 120)
		for _, m := range mappers {
			m.Insert(origin, pts)
		}
		// Probe random voxels: all pipelines must agree exactly.
		for probe := 0; probe < 50; probe++ {
			p := geom.V(probeRNG.Float64()*8-1, probeRNG.Float64()*6-3, probeRNG.Float64()*3)
			l0, k0 := mappers[0].Occupancy(p)
			for _, m := range mappers[1:] {
				l, known := m.Occupancy(p)
				if known != k0 || l != l0 {
					t.Fatalf("batch %d: %s disagrees with %s at %v: (%v,%v) vs (%v,%v)",
						batchIdx, m.Name(), mappers[0].Name(), p, l, known, l0, k0)
				}
			}
		}
	}
	for _, m := range mappers {
		m.Close()
	}
	// After finalize, the full octrees must be identical.
	base := mappers[0].Snapshot()
	for _, m := range mappers[1:] {
		if !base.Equal(m.Snapshot()) {
			t.Fatalf("finalized tree of %s differs from %s", m.Name(), mappers[0].Name())
		}
	}
}

// TestConsistencyRTVariants repeats the consistency check for the -RT
// pipelines (deduplicated tracing changes the observation stream, so RT
// variants are only required to agree among themselves).
func TestConsistencyRTVariants(t *testing.T) {
	cfg := testConfig()
	cfg.RT = true
	mappers := make([]Mapper, 0, 3)
	for _, k := range allKinds() {
		mappers = append(mappers, MustNew(k, cfg))
	}
	scanRNG := rand.New(rand.NewSource(99))
	for batchIdx := 0; batchIdx < 20; batchIdx++ {
		origin := geom.V(float64(batchIdx)*0.2, 0, 1)
		pts := synthScan(scanRNG, origin, 100)
		for _, m := range mappers {
			m.Insert(origin, pts)
		}
	}
	for _, m := range mappers {
		m.Close()
	}
	base := mappers[0].Snapshot()
	for _, m := range mappers[1:] {
		if !base.Equal(m.Snapshot()) {
			t.Fatalf("finalized RT tree of %s differs from %s", m.Name(), mappers[0].Name())
		}
	}
}

func TestCacheAbsorbsDuplicates(t *testing.T) {
	cfg := testConfig()
	serial := MustNew(KindSerial, cfg)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		// Re-scan the same region: massive duplication.
		serial.Insert(geom.V(0, 0, 1), synthScan(rng, geom.V(0, 0, 1), 150))
	}
	st := serial.CacheStats()
	if st.HitRate() < 0.5 {
		t.Errorf("hit rate %.2f too low for repeated scans", st.HitRate())
	}
	tm := serial.Timings()
	if tm.VoxelsToOctree >= tm.VoxelsTraced {
		t.Errorf("octree received %d voxels of %d traced: cache absorbed nothing",
			tm.VoxelsToOctree, tm.VoxelsTraced)
	}
	serial.Close()
}

func TestTimingsAccounting(t *testing.T) {
	for _, kind := range allKinds() {
		m := MustNew(kind, testConfig())
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 5; i++ {
			m.Insert(geom.V(0, 0, 1), synthScan(rng, geom.V(0, 0, 1), 80))
		}
		m.Close()
		tm := m.Timings()
		if tm.Batches != 5 {
			t.Errorf("%v: Batches = %d, want 5", kind, tm.Batches)
		}
		if tm.RayTracing <= 0 {
			t.Errorf("%v: RayTracing time not recorded", kind)
		}
		if tm.VoxelsTraced <= 0 {
			t.Errorf("%v: VoxelsTraced not recorded", kind)
		}
		if kind == KindOctoMap {
			if tm.OctreeUpdate <= 0 {
				t.Errorf("octomap: OctreeUpdate time not recorded")
			}
			if tm.CacheInsert != 0 {
				t.Errorf("octomap: unexpected cache time")
			}
		} else {
			if tm.CacheInsert <= 0 {
				t.Errorf("%v: CacheInsert time not recorded", kind)
			}
		}
		if tm.Critical <= 0 {
			t.Errorf("%v: Critical time not recorded", kind)
		}
		if tm.Total() <= 0 {
			t.Errorf("%v: Total() not positive", kind)
		}
	}
}

func TestTimingsAdd(t *testing.T) {
	a := Timings{RayTracing: 1, CacheInsert: 2, Batches: 3, VoxelsTraced: 10}
	b := Timings{RayTracing: 10, OctreeUpdate: 5, Batches: 1, VoxelsTraced: 5}
	s := a.Add(b)
	if s.RayTracing != 11 || s.CacheInsert != 2 || s.OctreeUpdate != 5 || s.Batches != 4 || s.VoxelsTraced != 15 {
		t.Errorf("Add = %+v", s)
	}
}

func TestCloseIdempotentAndTerminal(t *testing.T) {
	// Every pipeline reports ErrClosed from Insert (and the batch entry
	// points) after Close, while staying queryable; Close itself is an
	// idempotent no-op on repeat calls.
	for _, kind := range allKinds() {
		m := MustNew(kind, testConfig())
		if err := m.Insert(geom.V(0, 0, 1), []geom.Vec3{geom.V(2, 0, 1)}); err != nil {
			t.Fatalf("%v: Insert before Close: %v", kind, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%v: Close: %v", kind, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%v: second Close: %v", kind, err)
		}
		if err := m.Insert(geom.V(0, 0, 1), []geom.Vec3{geom.V(2, 0, 1)}); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: Insert after Close = %v, want ErrClosed", kind, err)
		}
		if _, known := m.Occupancy(geom.V(2, 0, 1)); !known {
			t.Errorf("%v: closed pipeline lost its content", kind)
		}
	}
	for _, kind := range []Kind{KindSerial, KindParallel, KindOctoMap} {
		bm, err := NewEngine(kind, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		bm.Close()
		if err := bm.ApplyTraced(nil); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: ApplyTraced after Close = %v, want ErrClosed", kind, err)
		}
		if err := bm.LoadLeaf(octree.Leaf{}); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: LoadLeaf after Close = %v, want ErrClosed", kind, err)
		}
	}
}

func TestClosedTreeHoldsEverything(t *testing.T) {
	// After Close the tree alone must answer like the combined
	// cache+tree did before.
	cfg := testConfig()
	m := MustNew(KindSerial, cfg)
	rng := rand.New(rand.NewSource(12))
	pts := synthScan(rng, geom.V(0, 0, 1), 200)
	m.Insert(geom.V(0, 0, 1), pts)

	type sample struct {
		p     geom.Vec3
		l     float32
		known bool
	}
	var samples []sample
	for _, p := range pts {
		l, known := m.Occupancy(p)
		samples = append(samples, sample{p, l, known})
	}
	m.Close()
	tree := m.Snapshot()
	for _, s := range samples {
		l, known := tree.Occupancy(s.p)
		if known != s.known || l != s.l {
			t.Fatalf("tree after finalize differs at %v: (%v,%v) vs (%v,%v)", s.p, l, known, s.l, s.known)
		}
	}
}

func TestParallelQueueOverheadMeasured(t *testing.T) {
	m := MustNew(KindParallel, testConfig())
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 10; i++ {
		m.Insert(geom.V(float64(i)*0.3, 0, 1), synthScan(rng, geom.V(float64(i)*0.3, 0, 1), 150))
	}
	m.Close()
	tm := m.Timings()
	if tm.VoxelsToOctree == 0 {
		t.Fatal("no voxels reached the octree")
	}
	if tm.Enqueue <= 0 || tm.Dequeue <= 0 {
		t.Errorf("queue overheads not measured: enq=%v deq=%v", tm.Enqueue, tm.Dequeue)
	}
	// Table 3's observation: queue overhead is small relative to the rest.
	if tm.Enqueue+tm.Dequeue > tm.Total() {
		t.Errorf("queue overhead %v exceeds total busy time %v", tm.Enqueue+tm.Dequeue, tm.Total())
	}
}

func TestOccupiedKeyAgreement(t *testing.T) {
	cfg := testConfig()
	a := mustEngine(t, KindOctoMap, cfg)
	b := mustEngine(t, KindParallel, cfg)
	rng := rand.New(rand.NewSource(21))
	pts := synthScan(rng, geom.V(0, 0, 1), 150)
	a.Insert(geom.V(0, 0, 1), pts)
	b.Insert(geom.V(0, 0, 1), pts)
	for _, p := range pts {
		k, ok := octree.CoordToKey(p, cfg.Octree.Resolution, cfg.Octree.Depth)
		if !ok {
			continue
		}
		if a.OccupiedKey(k) != b.OccupiedKey(k) {
			t.Fatalf("OccupiedKey disagreement at %v", k)
		}
	}
	a.Close()
	b.Close()
}

func TestEvictOrderMortonVariant(t *testing.T) {
	cfg := testConfig()
	cfg.EvictOrder = cache.OrderMorton
	cfg.CacheIndex = cache.HashIndex
	m := MustNew(KindSerial, cfg)
	n := MustNew(KindOctoMap, testConfig())
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 10; i++ {
		origin := geom.V(float64(i)*0.2, 0, 1)
		pts := synthScan(rng, origin, 100)
		m.Insert(origin, pts)
		n.Insert(origin, pts)
	}
	m.Close()
	n.Close()
	if !m.Snapshot().Equal(n.Snapshot()) {
		t.Error("Morton-sorted eviction changed final map content")
	}
}

func TestOutOfBoundsQueries(t *testing.T) {
	for _, kind := range allKinds() {
		m := MustNew(kind, testConfig())
		if m.Occupied(geom.V(1e9, 0, 0)) {
			t.Errorf("%v: out-of-bounds point occupied", kind)
		}
		if _, known := m.Occupancy(geom.V(1e9, 0, 0)); known {
			t.Errorf("%v: out-of-bounds point known", kind)
		}
		m.Close()
	}
}

// TestCastRayConsistencyAcrossPipelines: visibility answers must match
// across all pipeline variants at any batch boundary.
func TestCastRayConsistencyAcrossPipelines(t *testing.T) {
	cfg := testConfig()
	kinds := []Kind{KindOctoMap, KindSerial, KindParallel, KindVoxelCache, KindNaive}
	mappers := make([]Mapper, 0, len(kinds))
	for _, k := range kinds {
		mappers = append(mappers, MustNew(k, cfg))
	}
	rng := rand.New(rand.NewSource(55))
	for batch := 0; batch < 10; batch++ {
		origin := geom.V(float64(batch)*0.2, 0, 1)
		pts := synthScan(rng, origin, 120)
		for _, m := range mappers {
			m.Insert(origin, pts)
		}
	}
	rayRNG := rand.New(rand.NewSource(56))
	for trial := 0; trial < 60; trial++ {
		origin := geom.V(rayRNG.Float64()*2, rayRNG.Float64()*2-1, 1)
		dir := geom.Pose{
			Yaw:   rayRNG.Float64()*2 - 1,
			Pitch: rayRNG.Float64()*0.6 - 0.3,
		}.Forward()
		h0, ok0 := mappers[0].CastRay(origin, dir, 6, true)
		for _, m := range mappers[1:3] { // exact-consistency pipelines
			h, ok := m.CastRay(origin, dir, 6, true)
			if ok != ok0 || h != h0 {
				t.Fatalf("trial %d: %s CastRay (%v,%v) differs from %s (%v,%v)",
					trial, m.Name(), h, ok, mappers[0].Name(), h0, ok0)
			}
		}
		// VoxelCache is value-consistent too.
		h, ok := mappers[3].CastRay(origin, dir, 6, true)
		if ok != ok0 || h != h0 {
			t.Fatalf("trial %d: voxelcache CastRay diverged", trial)
		}
	}
	for _, m := range mappers {
		m.Close()
	}
}

// TestCastRayBasics checks hit/miss semantics through the public surface.
func TestCastRayBasics(t *testing.T) {
	m := MustNew(KindSerial, testConfig())
	target := geom.V(3, 0, 1)
	// Scan a small wall so the voxel and its surroundings are known.
	var wall []geom.Vec3
	for dy := -0.5; dy <= 0.5; dy += 0.05 {
		for dz := -0.3; dz <= 0.3; dz += 0.05 {
			wall = append(wall, geom.V(3, dy, 1+dz))
		}
	}
	m.Insert(geom.V(0, 0, 1), wall)
	hit, ok := m.CastRay(geom.V(0, 0, 1), geom.V(1, 0, 0), 8, true)
	if !ok {
		t.Fatal("ray missed the wall")
	}
	if hit.Dist(target) > 0.2 {
		t.Errorf("hit at %v, want near %v", hit, target)
	}
	// Range-limited miss.
	if _, ok := m.CastRay(geom.V(0, 0, 1), geom.V(1, 0, 0), 1, true); ok {
		t.Error("hit beyond max range")
	}
	// Unknown-blocking ray pointing away.
	if _, ok := m.CastRay(geom.V(0, 0, 1), geom.V(-1, 0, 0), 8, false); ok {
		t.Error("ray through unknown space with ignoreUnknown=false hit")
	}
	// Degenerate direction.
	if _, ok := m.CastRay(geom.V(0, 0, 1), geom.V(0, 0, 0), 8, true); ok {
		t.Error("zero direction hit")
	}
	m.Close()
}

// TestDynamicEnvironmentConsistency crosses a moving obstacle through the
// sensor's view and checks (a) the clamped log-odds model lets the map
// flip occupied→free after the obstacle leaves and (b) OctoCache stays
// bit-identical to OctoMap throughout — the §2.2 dynamic-environment
// requirement.
func TestDynamicEnvironmentConsistency(t *testing.T) {
	block := &world.Moving{
		Base:     world.B(geom.V(4, -8, 0), geom.V(5, -6, 3)),
		Velocity: geom.V(0, 2, 0),
	}
	w := &world.World{
		Bounds: geom.Box(geom.V(-1, -10, -1), geom.V(12, 10, 5)),
		Obstacles: []world.Obstacle{
			world.B(geom.V(10, -10, 0), geom.V(10.5, 10, 4)),
			block,
		},
	}
	sens := sensor.DefaultModel(15, 49, 17)
	origin := geom.V(0, 0, 1.5)
	watch := geom.V(4.1, 0, 1.5)

	a := MustNew(KindOctoMap, DefaultConfig(0.2))
	b := MustNew(KindParallel, DefaultConfig(0.2))
	sawOccupied, sawFreedAfter := false, false
	for frame := 0; frame <= 22; frame++ {
		w.SetTime(float64(frame) * 0.5)
		pts := sens.Scan(w, geom.Pose{Position: origin}, nil)
		a.Insert(origin, pts)
		b.Insert(origin, pts)
		la, ka := a.Occupancy(watch)
		lb, kb := b.Occupancy(watch)
		if la != lb || ka != kb {
			t.Fatalf("frame %d: pipelines disagree: (%v,%v) vs (%v,%v)", frame, la, ka, lb, kb)
		}
		occ := ka && la >= 0
		if occ {
			sawOccupied = true
		}
		if sawOccupied && ka && la < 0 {
			sawFreedAfter = true
		}
	}
	a.Close()
	b.Close()
	if !sawOccupied {
		t.Error("watch voxel never became occupied while the block crossed")
	}
	if !sawFreedAfter {
		t.Error("watch voxel never flipped back to free after the block left")
	}
}

package shard

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"octocache/internal/core"
	"octocache/internal/geom"
	"octocache/internal/morton"
	"octocache/internal/voxel"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig(0.1)
	cfg.CacheBuckets = 1 << 10
	return cfg
}

// scanArc generates points on a partial cylindrical wall around center.
func scanArc(center geom.Vec3, radius float64, n int, phase float64) []geom.Vec3 {
	pts := make([]geom.Vec3, 0, n)
	for i := 0; i < n; i++ {
		ang := phase + float64(i)/float64(n)*2*math.Pi
		pts = append(pts, center.Add(geom.V(radius*math.Cos(ang), radius*math.Sin(ang), math.Sin(ang*3))))
	}
	return pts
}

// TestShardedMatchesSerial is the headline consistency property: a
// sharded map with 1, 2, and 8 shards answers occupancy queries
// bit-identically to the single-threaded serial pipeline over an
// interleaved insert/query stream, at every point in the stream.
func TestShardedMatchesSerial(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		ref, err := core.NewEngine(core.KindSerial, testConfig())
		if err != nil {
			t.Fatal(err)
		}
		sm, err := New(Config{Core: testConfig(), Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := sm.NumShards(); got != shards {
			t.Fatalf("NumShards = %d, want %d", got, shards)
		}

		rng := rand.New(rand.NewSource(int64(42 + shards)))
		// Scans straddle the map origin so the Morton-prefix partition
		// actually splits them across shards.
		origins := []geom.Vec3{
			geom.V(0, 0, 0.5), geom.V(-3, 2, -0.5), geom.V(2, -3, 1),
		}
		var probes []geom.Vec3
		for batch := 0; batch < 8; batch++ {
			origin := origins[batch%len(origins)]
			pts := scanArc(origin, 1.5+2*rng.Float64(), 120, rng.Float64())
			ref.Insert(origin, pts)
			if err := sm.Insert(origin, pts); err != nil {
				t.Fatalf("shards=%d: Insert: %v", shards, err)
			}
			probes = append(probes, pts[:20]...)
			probes = append(probes, origin)

			// Interleaved queries: every probe must agree mid-stream.
			for _, p := range probes {
				lw, kw := ref.Occupancy(p)
				lg, kg := sm.Occupancy(p)
				if lw != lg || kw != kg {
					t.Fatalf("shards=%d batch=%d: disagree at %v: (%v,%v) vs (%v,%v)",
						shards, batch, p, lg, kg, lw, kw)
				}
			}
			// Key-space and ray queries agree too.
			k, ok := voxel.CoordToKey(probes[0], 0.1, 16)
			if !ok {
				t.Fatal("probe outside map")
			}
			if sm.OccupiedKey(k) != ref.OccupiedKey(k) {
				t.Fatalf("shards=%d: OccupiedKey disagrees at %v", shards, k)
			}
			hitW, okW := ref.CastRay(origin, geom.V(1, 0.3, 0), 10, true)
			hitG, okG := sm.CastRay(origin, geom.V(1, 0.3, 0), 10, true)
			if okW != okG || hitW != hitG {
				t.Fatalf("shards=%d: CastRay disagrees: (%v,%v) vs (%v,%v)",
					shards, hitG, okG, hitW, okW)
			}
		}

		// After finalize/close the maps must still agree...
		ref.Close()
		if err := sm.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		for _, p := range probes {
			lw, kw := ref.Occupancy(p)
			lg, kg := sm.Occupancy(p)
			if lw != lg || kw != kg {
				t.Fatalf("shards=%d post-close: disagree at %v", shards, p)
			}
		}
		// ...and the merged octree must be structurally identical to the
		// serial pipeline's: same canonical pruned form, same bytes.
		merged := sm.Snapshot()
		if merged.NumNodes() != ref.Snapshot().NumNodes() {
			t.Errorf("shards=%d: merged tree %d nodes, serial %d",
				shards, merged.NumNodes(), ref.Snapshot().NumNodes())
		}
		var a, b bytes.Buffer
		if _, err := merged.WriteTo(&a); err != nil {
			t.Fatalf("merged WriteTo: %v", err)
		}
		if _, err := ref.WriteTo(&b); err != nil {
			t.Fatalf("serial WriteTo: %v", err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("shards=%d: merged serialization differs from serial pipeline's", shards)
		}
	}
}

// TestPipelineCompositionsConsistent asserts the full composition
// matrix answers bit-identically on one interleaved scan stream: the
// serial and parallel single-driver pipelines, and sharded maps running
// the serial and async pipelines per shard at 1, 2, and 8 shards — all
// compared against each other after every batch, and all producing the
// same serialized octree at the end.
func TestPipelineCompositionsConsistent(t *testing.T) {
	type variant struct {
		name   string
		insert func(geom.Vec3, []geom.Vec3) error
		occ    func(geom.Vec3) (float32, bool)
		ray    func(geom.Vec3, geom.Vec3) (geom.Vec3, bool)
		close  func() error
		tree   func() *core.Snapshot
	}
	var variants []variant

	ref := core.MustNew(core.KindSerial, testConfig())
	variants = append(variants, variant{
		name:   "serial",
		insert: ref.Insert,
		occ:    ref.Occupancy,
		ray: func(o, d geom.Vec3) (geom.Vec3, bool) {
			return ref.CastRay(o, d, 10, true)
		},
		close: ref.Close,
		tree:  ref.Snapshot,
	})
	par := core.MustNew(core.KindParallel, testConfig())
	variants = append(variants, variant{
		name:   "parallel",
		insert: par.Insert,
		occ:    par.Occupancy,
		ray: func(o, d geom.Vec3) (geom.Vec3, bool) {
			return par.CastRay(o, d, 10, true)
		},
		close: par.Close,
		tree:  par.Snapshot,
	})
	for _, shards := range []int{1, 2, 8} {
		for _, pl := range []Pipeline{PipelineSerial, PipelineAsync} {
			sm, err := New(Config{Core: testConfig(), Shards: shards, Pipeline: pl})
			if err != nil {
				t.Fatal(err)
			}
			variants = append(variants, variant{
				name:   sm.Name(),
				insert: sm.Insert,
				occ:    sm.Occupancy,
				ray: func(o, d geom.Vec3) (geom.Vec3, bool) {
					return sm.CastRay(o, d, 10, true)
				},
				close: sm.Close,
				tree:  sm.Snapshot,
			})
		}
	}

	rng := rand.New(rand.NewSource(7))
	origins := []geom.Vec3{
		geom.V(0, 0, 0.5), geom.V(-3, 2, -0.5), geom.V(2, -3, 1),
	}
	var probes []geom.Vec3
	for batch := 0; batch < 6; batch++ {
		origin := origins[batch%len(origins)]
		pts := scanArc(origin, 1.5+2*rng.Float64(), 120, rng.Float64())
		for _, v := range variants {
			if err := v.insert(origin, pts); err != nil {
				t.Fatalf("%s: Insert: %v", v.name, err)
			}
		}
		probes = append(probes, pts[:15]...)
		probes = append(probes, origin)

		for _, p := range probes {
			lw, kw := variants[0].occ(p)
			for _, v := range variants[1:] {
				if lg, kg := v.occ(p); lg != lw || kg != kw {
					t.Fatalf("batch %d: %s disagrees with %s at %v: (%v,%v) vs (%v,%v)",
						batch, v.name, variants[0].name, p, lg, kg, lw, kw)
				}
			}
		}
		dir := geom.V(1, 0.3, 0)
		hitW, okW := variants[0].ray(origin, dir)
		for _, v := range variants[1:] {
			if hitG, okG := v.ray(origin, dir); hitG != hitW || okG != okW {
				t.Fatalf("batch %d: %s CastRay disagrees with %s", batch, v.name, variants[0].name)
			}
		}
	}

	var want bytes.Buffer
	variants[0].close()
	if _, err := variants[0].tree().WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	for _, v := range variants[1:] {
		v.close()
		var got bytes.Buffer
		if _, err := v.tree().WriteTo(&got); err != nil {
			t.Fatalf("%s: WriteTo: %v", v.name, err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: serialized octree differs from %s", v.name, variants[0].name)
		}
	}
}

// TestConcurrentProducers drives one sharded map from several producer
// goroutines while query goroutines hammer the read paths — the test the
// race target (go test -race ./internal/shard/...) exists for. It runs
// once per pipeline composition, so the async per-shard applier is
// exercised against concurrent producers and queriers too.
func TestConcurrentProducers(t *testing.T) {
	for _, pl := range []Pipeline{PipelineSerial, PipelineAsync} {
		name := "serial"
		if pl == PipelineAsync {
			name = "async"
		}
		t.Run(name, func(t *testing.T) { testConcurrentProducers(t, pl) })
	}
}

func testConcurrentProducers(t *testing.T, pl Pipeline) {
	const producers = 4
	const batches = 6
	sm, err := New(Config{Core: testConfig(), Shards: 8, Pipeline: pl})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Two query goroutines: point queries and ray casts, concurrent with
	// all producers.
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := geom.V(rng.Float64()*8-4, rng.Float64()*8-4, rng.Float64()*2-1)
				sm.Occupied(p)
				sm.CastRay(geom.V(0, 0, 0.5), p, 6, true)
			}
		}(int64(q))
	}

	var pwg sync.WaitGroup
	for w := 0; w < producers; w++ {
		pwg.Add(1)
		go func(w int) {
			defer pwg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			origin := geom.V(float64(w)*2-3, float64(w%2)*2-1, 0.5)
			for b := 0; b < batches; b++ {
				pts := scanArc(origin, 1+2*rng.Float64(), 100, rng.Float64())
				if err := sm.Insert(origin, pts); err != nil {
					t.Errorf("producer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	pwg.Wait()
	close(stop)
	wg.Wait()

	tm := sm.Timings()
	if tm.Batches != producers*batches {
		t.Errorf("Batches = %d, want %d", tm.Batches, producers*batches)
	}
	if tm.VoxelsTraced == 0 || tm.CacheInsert == 0 {
		t.Errorf("timings not aggregated: %+v", tm)
	}
	if cs := sm.CacheStats(); cs.Inserts != tm.VoxelsTraced {
		t.Errorf("merged cache inserts %d != voxels traced %d", cs.Inserts, tm.VoxelsTraced)
	}

	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	// All shards flushed: no pending cells anywhere, and the observed
	// space is queryable.
	stats := sm.ShardStats()
	if len(stats) != 8 {
		t.Fatalf("ShardStats len = %d", len(stats))
	}
	totalNodes := 0
	for _, s := range stats {
		if s.QueueDepth != 0 {
			t.Errorf("shard %d: queue depth %d after Close", s.Shard, s.QueueDepth)
		}
		totalNodes += s.Arena.LiveNodes
	}
	if totalNodes == 0 {
		t.Error("no octree nodes after ingesting scans")
	}
	for w := 0; w < producers; w++ {
		origin := geom.V(float64(w)*2-3, float64(w%2)*2-1, 0.5)
		if _, known := sm.Occupancy(origin); !known {
			t.Errorf("producer %d origin still unknown after ingest", w)
		}
	}
}

// TestCloseLifecycle: Close is idempotent, Insert after Close returns
// ErrClosed (also from concurrent goroutines), and queries keep working.
func TestCloseLifecycle(t *testing.T) {
	sm, err := New(Config{Core: testConfig(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	origin := geom.V(0, 0, 0.5)
	pts := scanArc(origin, 2, 50, 0)
	if err := sm.Insert(origin, pts); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sm.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := sm.Insert(origin, pts); !errors.Is(err, ErrClosed) {
				t.Errorf("Insert after Close = %v, want ErrClosed", err)
			}
		}()
	}
	wg.Wait()
	if !sm.Occupied(pts[0]) {
		t.Error("closed map lost its content")
	}
}

// TestLoadTreeRoutesToOwningShards: loading a serialized whole-map tree
// into a sharded map places every leaf in the shard that owns its key
// space — no shard's octree claims foreign voxels — and the loaded map
// answers exactly like the original.
func TestLoadTreeRoutesToOwningShards(t *testing.T) {
	src, err := New(Config{Core: testConfig(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var probes []geom.Vec3
	for batch := 0; batch < 4; batch++ {
		origin := geom.V(rng.Float64()*6-3, rng.Float64()*6-3, 0.5)
		pts := scanArc(origin, 1+2*rng.Float64(), 100, rng.Float64())
		if err := src.Insert(origin, pts); err != nil {
			t.Fatal(err)
		}
		probes = append(probes, pts[:20]...)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	whole := src.Snapshot()

	for _, shards := range []int{2, 8} {
		for _, pl := range []Pipeline{PipelineSerial, PipelineAsync} {
			sm, err := New(Config{Core: testConfig(), Shards: shards, Pipeline: pl})
			if err != nil {
				t.Fatal(err)
			}
			if err := sm.LoadSnapshot(whole); err != nil {
				t.Fatalf("shards=%d: LoadSnapshot: %v", shards, err)
			}
			// Every leaf of every shard's tree must belong to that shard.
			for i, sh := range sm.shards {
				sh.eng.WalkLeaves(func(l voxel.Leaf) bool {
					if owner := sm.shards[morton.ShardIndex(l.Key.Morton(), sm.bits)]; owner != sh {
						t.Errorf("shards=%d: shard %d holds leaf %v owned elsewhere", shards, i, l.Key)
						return false
					}
					return true
				})
			}
			// The loaded map answers like the original, keeps accepting
			// scans, and still merges back to the same serialization.
			for _, p := range probes {
				lw, kw := src.Occupancy(p)
				if lg, kg := sm.Occupancy(p); lg != lw || kg != kw {
					t.Fatalf("shards=%d: loaded map disagrees at %v", shards, p)
				}
			}
			if err := sm.Insert(geom.V(0, 0, 0.5), scanArc(geom.V(0, 0, 0.5), 2, 50, 0)); err != nil {
				t.Fatalf("shards=%d: Insert after load: %v", shards, err)
			}
			if err := sm.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A closed map refuses to load.
	if err := src.LoadSnapshot(whole); !errors.Is(err, ErrClosed) {
		t.Errorf("LoadSnapshot after Close = %v, want ErrClosed", err)
	}
}

// TestShardRounding: shard counts round up to powers of two and the
// bucket budget is divided without falling below the floor.
func TestShardRounding(t *testing.T) {
	sm, err := New(Config{Core: testConfig(), Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sm.NumShards() != 8 {
		t.Errorf("NumShards = %d, want 8", sm.NumShards())
	}
	if _, err := New(Config{Core: testConfig(), Shards: MaxShards * 2}); err == nil {
		t.Error("oversized shard count accepted")
	}
	sm, err = New(Config{Core: testConfig(), Shards: 0})
	if err != nil {
		t.Fatal(err)
	}
	if sm.NumShards() != 1 {
		t.Errorf("NumShards = %d, want 1", sm.NumShards())
	}
}

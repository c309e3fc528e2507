package main

import (
	"io"
	"time"

	"octocache/internal/cache"
	"octocache/internal/core"
	"octocache/internal/geom"
	"octocache/internal/raytrace"
	"octocache/internal/vdbgrid"
	"octocache/internal/voxel"
)

// store is the slice of a voxel store the layer replay drives: the
// eviction apply, the admission lookup, and the walk serialization is
// built on. Both backends are reached through their public
// constructors (core.NewTree, vdbgrid.New), not through the engine.
type store interface {
	SetCell(k voxel.Key, logOdds float32)
	Lookup(k voxel.Key) (logOdds float32, known bool)
	Walk(fn func(voxel.Leaf) bool)
	MemoryBytes() int64
}

// treeStore adapts the arena octree's method names to store.
type treeStore struct{ *core.Tree }

func (t treeStore) SetCell(k voxel.Key, l float32)     { t.Tree.SetNodeValue(k, l) }
func (t treeStore) Lookup(k voxel.Key) (float32, bool) { return t.Tree.Search(k) }
func newStore(b core.BackendKind, p voxel.Params) store {
	if b == core.BackendGrid {
		return vdbgrid.New(p)
	}
	return treeStore{core.NewTree(p)}
}

// replay is the mapping loop the engine runs, composed by the benchmark
// from the layers' own public functions in the engine's order, so each
// stage can be timed from outside while nothing inside the program is
// instrumented:
//
//	cache.Evict -> store.SetCell   (the previous scan's overflow)
//	Scanner.Trace                  (this scan)
//	cache.Insert per voxel, seeded by store.Lookup on a miss
//
// and, at the end of the stream, cache.Flush -> store.SetCell. Its
// final store is byte-identical to core's KindSerial pipeline on the
// same stream; a test and every traced run check that.
type replay struct {
	cfg     core.Config
	scanner raytrace.Scanner
	cache   *cache.Cache
	store   store
	lookup  cache.TreeLookup
	cells   []cache.Cell
	// rec and parents (both optional) record each stage as a span under
	// parents[scan].
	rec     *recorder
	parents []int

	// Per-scan stage durations, indexed by scan id; the final flush's
	// apply time (it belongs to no scan: the engine pays it in Close); and
	// work counts.
	traceD, admitD, evictD, applyD []time.Duration
	flushApply                     time.Duration
	scanVoxels                     []int // traced voxels per scan
	voxels, evicted                int64
}

func newReplay(cfg core.Config) *replay {
	r := &replay{
		cfg: cfg,
		scanner: raytrace.New(raytrace.Config{
			Resolution: cfg.Octree.Resolution,
			Depth:      cfg.Octree.Depth,
			MaxRange:   cfg.MaxRange,
		}, cfg.Trace, 0),
		cache: cache.New(cache.Config{
			Buckets:   cfg.CacheBuckets,
			Tau:       cfg.CacheTau,
			Index:     cfg.CacheIndex,
			Order:     cfg.EvictOrder,
			Occupancy: cfg.Octree,
		}),
		store: newStore(cfg.Backend, cfg.Octree),
	}
	r.lookup = r.store.Lookup
	return r
}

// apply writes evicted cells into the store.
func (r *replay) apply(cells []cache.Cell) {
	for _, c := range cells {
		r.store.SetCell(c.Key, c.LogOdds)
	}
	r.evicted += int64(len(cells))
}

// stage times fn as one span of scan i.
func (r *replay) stage(name string, i int, fn func()) time.Duration {
	parent := -1
	if i < len(r.parents) {
		parent = r.parents[i]
	}
	id := r.rec.begin(name, parent, i)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.rec.end(id)
	return d
}

// trace is the ray-tracing stage as the engine selects it.
func (r *replay) trace(origin geom.Vec3, points []geom.Vec3) []raytrace.Voxel {
	if r.cfg.RT {
		return r.scanner.TraceRT(origin, points)
	}
	return r.scanner.Trace(origin, points)
}

// insert replays scan i.
func (r *replay) insert(i int, origin geom.Vec3, points []geom.Vec3) {
	evict := r.stage("cache.evict", i, func() { r.cells = r.cache.Evict(r.cells[:0]) })
	apply := r.stage("store.apply", i, func() { r.apply(r.cells) })
	var batch []raytrace.Voxel
	trace := r.stage("raytrace.trace", i, func() { batch = r.trace(origin, points) })
	admit := r.stage("cache.admit", i, func() {
		for _, v := range batch {
			r.cache.Insert(v.Key, v.Occupied, r.lookup)
		}
	})

	r.voxels += int64(len(batch))
	r.scanVoxels = append(r.scanVoxels, len(batch))
	r.traceD = append(r.traceD, trace)
	r.admitD = append(r.admitD, admit)
	r.evictD = append(r.evictD, evict)
	r.applyD = append(r.applyD, apply)
}

// flush drains the cache into the stores, as the engine's Close does.
func (r *replay) flush() {
	r.cells = r.cache.Flush(r.cells[:0])
	t0 := time.Now()
	r.apply(r.cells)
	r.flushApply = time.Since(t0)
}

// writeStore serializes a flushed store in the canonical format: leaf
// by leaf through core's snapshot rebuild, the route every backend's
// bytes take out of a pipeline.
func writeStore(s store, p voxel.Params, w io.Writer) (int64, error) {
	snap := core.NewSnapshot(p)
	s.Walk(func(l voxel.Leaf) bool {
		snap.Add(l)
		return true
	})
	return snap.WriteTo(w)
}

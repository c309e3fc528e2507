package core

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"octocache/internal/cache"
	"octocache/internal/geom"
	"octocache/internal/octree"
	"octocache/internal/raytrace"
	"octocache/internal/voxel"
)

// This file implements the two software baselines from the paper's
// related-work matrix (Table 1) that OctoCache is compared against
// conceptually:
//
//   - indexedStore ("VoxelCache [29]"): an index removes the downward
//     octree search, but updates still maintain ancestors and queries
//     still wait for the whole batch — the bottleneck survives.
//   - lockedStore ("naive software parallelization"): voxel updates are
//     fanned out over worker goroutines with the store behind a global
//     mutex (the only safe naive scheme, since concurrent updates race on
//     shared ancestors — §2.2/Figure 5); parallelism buys nothing.
//
// They exist for comparison only: one baselineMapper drives either store
// through the narrow Mapper surface, with no cache, applier, window or
// durability.

// baselineStore is what differs between the two baselines: how a traced
// batch reaches the structure and how the structure is read back.
type baselineStore interface {
	update(batch []raytrace.Voxel)
	lookup(k voxel.Key) (logOdds float32, known bool)
	walk(fn func(voxel.Leaf) bool)
	NodeVisits() int64
	MemoryBytes() int64
}

// baselineMapper is the one pipeline both baselines share: trace, update
// the whole batch, then answer queries straight from the store.
type baselineMapper struct {
	cfg     Config
	name    string
	store   baselineStore
	tracer  raytrace.Scanner
	timings Timings
	done    bool
}

func newBaseline(kind Kind, cfg Config) (*baselineMapper, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Window.Enabled() {
		return nil, fmt.Errorf("core: pipeline %v does not support a bounded-memory window", kind)
	}
	if cfg.Durable.Enabled() {
		return nil, fmt.Errorf("core: pipeline %v does not support durability", kind)
	}
	m := &baselineMapper{cfg: cfg, name: kind.String(), tracer: cfg.NewScanner()}
	if kind == KindNaive {
		m.store = &lockedStore{store: cfg.newBackend(), workers: runtime.GOMAXPROCS(0)}
		return m, nil
	}
	if cfg.Backend != BackendOctree {
		return nil, fmt.Errorf("core: the VoxelCache baseline is octree-specific; backend %v is unsupported", cfg.Backend)
	}
	it, err := octree.NewIndexed(cfg.Octree)
	if err != nil {
		return nil, err
	}
	m.store = indexedStore{it}
	return m, nil
}

func (m *baselineMapper) Name() string {
	if m.cfg.RT {
		return m.name + "-rt"
	}
	return m.name
}

func (m *baselineMapper) Insert(origin geom.Vec3, points []geom.Vec3) error {
	if m.done {
		return ErrClosed
	}
	start := time.Now()
	batch := traceScan(m.tracer, m.cfg.RT, origin, points, &m.timings)

	t0 := time.Now()
	m.store.update(batch)
	m.timings.OctreeUpdate += time.Since(t0)

	m.timings.Batches++
	m.timings.VoxelsTraced += int64(len(batch))
	m.timings.VoxelsToOctree += int64(len(batch))
	m.timings.Critical += time.Since(start)
	return nil
}

func (m *baselineMapper) Occupancy(p geom.Vec3) (float32, bool) {
	k, ok := voxel.CoordToKey(p, m.cfg.Octree.Resolution, m.cfg.Octree.Depth)
	if !ok {
		return 0, false
	}
	return m.store.lookup(k)
}

func (m *baselineMapper) Occupied(p geom.Vec3) bool {
	l, known := m.Occupancy(p)
	return known && l >= m.cfg.Octree.OccupancyThreshold
}

func (m *baselineMapper) CastRay(origin, dir geom.Vec3, maxRange float64, ignoreUnknown bool) (geom.Vec3, bool) {
	return CastRayKeys(m.cfg.Octree, m.store.lookup, origin, dir, maxRange, ignoreUnknown)
}

// Snapshot rebuilds the canonical pruned form from the store's leaves,
// so it answers like the live baseline at any point in the stream
// (neither baseline parks state outside its store).
func (m *baselineMapper) Snapshot() *Snapshot {
	s := NewSnapshot(m.cfg.Octree)
	m.store.walk(func(l voxel.Leaf) bool {
		s.Add(l)
		return true
	})
	return s
}

func (m *baselineMapper) WriteTo(w io.Writer) (int64, error) { return m.Snapshot().WriteTo(w) }

func (m *baselineMapper) Close() error            { m.done = true; return nil }
func (m *baselineMapper) Resolution() float64     { return m.cfg.Octree.Resolution }
func (m *baselineMapper) Timings() Timings        { return m.timings }
func (m *baselineMapper) WorkCounters() Counters  { return m.timings.Counters() }
func (m *baselineMapper) CacheStats() cache.Stats { return cache.Stats{} }
func (m *baselineMapper) NodeVisits() int64       { return m.store.NodeVisits() }
func (m *baselineMapper) MemoryBytes() int64      { return m.store.MemoryBytes() }

// indexedStore is the VoxelCache-style structure: octree.IndexedTree
// keeps an O(1) voxel index over an unpruned tree, whose footprint is
// what the Table 1 experiment reports.
type indexedStore struct{ *octree.IndexedTree }

func (s indexedStore) update(batch []raytrace.Voxel) {
	for _, v := range batch {
		s.Update(v.Key, v.Occupied)
	}
}

func (s indexedStore) lookup(k voxel.Key) (float32, bool) { return s.Search(k) }

// walk emits every indexed voxel as a finest-depth leaf (the indexed
// tree never prunes), in map order — consumers replay, not stream.
func (s indexedStore) walk(fn func(voxel.Leaf) bool) {
	depth := s.Params().Depth
	for k := range s.Keys() {
		if l, known := s.Search(k); known && !fn(voxel.Leaf{Key: k, Depth: depth, LogOdds: l}) {
			return
		}
	}
}

// lockedStore fans voxel updates out over GOMAXPROCS workers that share
// the voxel store behind one mutex.
//
// Interleaving across workers reorders same-voxel updates within a
// batch. With symmetric clamped increments the accumulated value is
// order-independent unless clamping engages mid-batch, so the naive
// baseline is *approximately* consistent — one more reason the paper
// dismisses naive parallelization (the consistency test for it tolerates
// clamp-boundary divergence; the engine compositions are exactly
// consistent).
type lockedStore struct {
	mu      sync.Mutex
	store   Backend
	workers int
}

func (s *lockedStore) update(batch []raytrace.Voxel) {
	var wg sync.WaitGroup
	chunk := (len(batch) + s.workers - 1) / s.workers
	for lo := 0; lo < len(batch); lo += chunk {
		hi := min(lo+chunk, len(batch))
		wg.Add(1)
		go func(part []raytrace.Voxel) {
			defer wg.Done()
			for _, v := range part {
				// The whole store must be locked per update: concurrent
				// octree updates race on shared ancestor nodes (Figure
				// 5), and the grid's brick map is no safer.
				s.mu.Lock()
				s.store.UpdateCell(v.Key, v.Occupied)
				s.mu.Unlock()
			}
		}(batch[lo:hi])
	}
	wg.Wait()
}

func (s *lockedStore) lookup(k voxel.Key) (float32, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store.Lookup(k)
}

func (s *lockedStore) walk(fn func(voxel.Leaf) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.store.Walk(fn)
}

func (s *lockedStore) NodeVisits() int64 {
	if vc, ok := s.store.(VisitCounter); ok {
		return vc.NodeVisits()
	}
	return 0
}

func (s *lockedStore) MemoryBytes() int64 { return s.store.MemoryBytes() }

package core

import (
	"fmt"
	"io"

	"octocache/internal/cache"
	"octocache/internal/geom"
)

// Mapper is the query-consistent surface every pipeline — the Engine
// compositions and the two Table 1 comparison baselines — answers to:
// the paper's requirement that OctoCache expose the same voxel query API
// and results as vanilla OctoMap (§4.1). It declares only what the
// interface-typed consumers (navigation, the experiment harness, the cmd
// tools, the examples) call; everything the sharded service and the
// public Map need beyond it lives on the concrete *Engine.
//
// The contract: after Insert returns, queries reflect every observation
// inserted so far, exactly as OctoMap would report them.
type Mapper interface {
	// Insert integrates one sensor scan: points in world coordinates
	// observed from origin. It returns ErrClosed after Close.
	Insert(origin geom.Vec3, points []geom.Vec3) error

	// Occupancy returns the accumulated log-odds of the voxel containing
	// p; known is false for never-observed voxels.
	Occupancy(p geom.Vec3) (logOdds float32, known bool)

	// Occupied reports whether the voxel containing p is known-occupied.
	Occupied(p geom.Vec3) bool

	// CastRay walks from origin along dir until it enters a known-
	// occupied voxel or exceeds maxRange, returning the hit voxel's
	// center. Unknown space is traversed when ignoreUnknown is true and
	// terminates the ray otherwise. Results reflect the freshest combined
	// cache+octree state, like point queries.
	CastRay(origin, dir geom.Vec3, maxRange float64, ignoreUnknown bool) (hit geom.Vec3, ok bool)

	// Close flushes all cached state into the octree and stops any
	// background work. The Mapper remains queryable afterwards; further
	// insertions return ErrClosed. Close is idempotent and never fails;
	// it returns an error only to satisfy io.Closer-style call sites.
	Close() error

	// Resolution returns the voxel edge length in meters. It lets
	// map consumers (planners, renderers) discretize without reaching
	// for the backing store.
	Resolution() float64

	// Snapshot captures the map's current contents as a canonical,
	// backend-neutral snapshot — for serialization, merging, and
	// read-only consumers. Treat it as a mutator call on parallel
	// pipelines.
	Snapshot() *Snapshot

	// WriteTo serializes the map in the .bt format, draining any
	// background applier first. Bytes are identical across backends for
	// content-equal maps. Treat it as a mutator call on parallel
	// pipelines.
	WriteTo(w io.Writer) (int64, error)

	// NodeVisits reports the store's cumulative memory-touch count — the
	// bottleneck experiments' architecture-neutral proxy for Figure 5's
	// memory accesses. Backends without the capability report 0.
	NodeVisits() int64

	// MemoryBytes estimates the store's heap footprint.
	MemoryBytes() int64

	// Timings returns the cumulative stage decomposition.
	Timings() Timings

	// WorkCounters returns the cumulative monotone work counts without
	// the measured stage durations — the cheap per-cycle snapshot whose
	// deltas feed the virtual clock's latency model (internal/clock).
	// Unlike Timings it touches no applier-side atomics, so for a
	// deterministic insert stream its deltas are deterministic too.
	WorkCounters() Counters

	// CacheStats returns cache behaviour counters; zero for pipelines
	// without a cache.
	CacheStats() cache.Stats

	// Name identifies the pipeline variant for reports.
	Name() string
}

// Kind enumerates the pipeline variants.
type Kind int

const (
	// KindOctoMap is the vanilla baseline.
	KindOctoMap Kind = iota
	// KindSerial is the single-threaded OctoCache (Figure 11).
	KindSerial
	// KindParallel is the two-threaded OctoCache (Figure 14).
	KindParallel
	// KindVoxelCache is the VoxelCache-style indexed baseline (Table 1):
	// O(1) voxel location, but the octree bottleneck survives.
	KindVoxelCache
	// KindNaive is naive software parallelization (Table 1): updates
	// fanned over goroutines behind a global octree mutex.
	KindNaive
)

// kinds is the one constructor table: a kind's report name and, for the
// three Engine compositions, where it sits on the engine's two axes
// (see Engine). The cfg.RT flag independently selects deduplicating ray
// tracing, yielding the paper's six evaluated systems.
var kinds = [...]struct {
	name string
	// direct: no cache — every traced voxel goes straight into the
	// store and queries wait for the whole update (Figure 4).
	// async: the store-apply stage runs on a background goroutine behind
	// the SPSC buffer (Figure 14) instead of inline (Figure 11/13a).
	direct, async bool
	// baseline marks the Table 1 comparison pipelines, which are not
	// engines (see baselines.go).
	baseline bool
}{
	KindOctoMap:    {name: "octomap", direct: true},
	KindSerial:     {name: "octocache-serial"},
	KindParallel:   {name: "octocache-parallel", async: true},
	KindVoxelCache: {name: "voxelcache", baseline: true},
	KindNaive:      {name: "naive-parallel", baseline: true},
}

func (k Kind) valid() bool { return k >= 0 && int(k) < len(kinds) }

func (k Kind) String() string {
	if !k.valid() {
		return "unknown"
	}
	return kinds[k].name
}

// NewEngine constructs one of the three engine compositions —
// KindOctoMap, KindSerial or KindParallel — as the concrete type the
// sharded router drives. The caller provides the exclusion the Engine
// documents: one mutator at a time, queries never beside a mutator.
func NewEngine(kind Kind, cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if !kind.valid() || kinds[kind].baseline {
		return nil, fmt.Errorf("core: pipeline kind %d (%v) is not an engine composition", int(kind), kind)
	}
	k := kinds[kind]
	return newEngine(cfg, k.name, k.direct, k.async)
}

// New constructs the pipeline variant selected by kind, baselines
// included, behind the Mapper surface.
func New(kind Kind, cfg Config) (Mapper, error) {
	if kind.valid() && kinds[kind].baseline {
		return newBaseline(kind, cfg)
	}
	e, err := NewEngine(kind, cfg)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// MustNew is New for static configurations known to be valid.
func MustNew(kind Kind, cfg Config) Mapper {
	m, err := New(kind, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

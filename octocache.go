// Package octocache is a Go implementation of OctoCache (ASPLOS '25): a
// software caching layer that accelerates OctoMap-style 3D occupancy
// mapping for autonomous systems.
//
// An occupancy map ingests point-cloud scans from a range sensor and
// answers "is this voxel occupied?" queries for planners. The classic
// OctoMap stores occupancy in an octree, so every voxel update costs a
// root-to-leaf memory walk. OctoCache puts a flat, bounded, bucketed
// cache in front of the octree:
//
//   - Duplicate voxel updates (the overwhelming majority in real scan
//     streams) are absorbed by cache hits instead of tree walks.
//   - Queries are served right after the fast cache insertion — they no
//     longer wait for the octree update.
//   - Evicted voxels reach the octree in Morton-code order, the provably
//     locality-optimal insertion order.
//   - Optionally, the octree update runs on a second goroutine, fully off
//     the query critical path, synchronized by a single mutex.
//
// Quick start:
//
//	m, err := octocache.New(octocache.Options{Resolution: 0.1})
//	m.Insert(sensorOrigin, points) // []octocache.Vec3 world coords
//	if m.Occupied(p) { ... }       // consistent with OctoMap
//	m.Close()                      // flush into the octree
//
// Query results are bit-identical to vanilla OctoMap's at every point in
// the stream — the repository's consistency tests enforce it.
//
// # Concurrent use
//
// Every Map is one router over N ≥ 1 engines — N independent OctoCache
// pipelines, each owning the voxels whose Morton code carries its prefix
// — and Options.Shards picks both N and who provides the exclusion:
//
//   - Shards == 0 (the default) is the single-driver map: one engine,
//     with the router's locks elided. Drive it from one goroutine
//     (ModeParallel manages its own background worker internally); in
//     exchange a query costs exactly what it costs on the bare engine.
//   - Shards >= 1 is the sharded concurrent service: that many engines
//     (rounded up to a power of two), every method safe for concurrent
//     use by any number of goroutines. Insert calls from distinct
//     producers contend only when their scans land on the same shard,
//     and queries contend only on the shard that owns the queried voxel.
//     A 1-shard map is the locked form of the single-driver one.
//
// Mode composes with Shards: every engine runs the selected pipeline, so
// ModeParallel — the default — gives each shard its own background
// octree applier and SPSC buffer, the paper's two-thread schedule
// replicated per shard. Shard locking is read/write: queries share a
// shard's read lock, and a query answered from the shard's cache touches
// no lock shared with octree writers at all.
//
// Answers do not depend on N: every shard count is bit-identical to the
// serial pipeline when driven sequentially; under concurrent producers
// each voxel's update stream is serialized by its owning shard, so
// per-voxel results remain exact while cross-voxel snapshots are only as
// atomic as the caller's own synchronization.
//
// The public API wraps internal/shard (the router) over internal/core
// (the engine); the substrate packages (octree, cache, Morton codes, ray
// tracing, simulation stack) live under internal/ and are exercised
// through the examples, the cmd/ tools, and the benchmark harness that
// regenerates the paper's evaluation.
package octocache

import (
	"fmt"
	"io"
	"time"

	"octocache/internal/cache"
	"octocache/internal/core"
	"octocache/internal/geom"
	"octocache/internal/shard"
	"octocache/internal/voxel"
)

// Vec3 is a world-space point or direction in meters.
type Vec3 = geom.Vec3

// V constructs a Vec3.
func V(x, y, z float64) Vec3 { return geom.V(x, y, z) }

// Key addresses a single voxel: the discretized (X, Y, Z) coordinate in
// the map's key space. Obtain one with Map.CoordToKey; key-space queries
// (Map.OccupiedKey) skip the coordinate discretization on hot paths that
// already work in voxel units.
type Key = voxel.Key

// ErrClosed is returned by Insert once the map has been closed: the map
// remains queryable forever, but accepts no further observations.
var ErrClosed = shard.ErrClosed

// ErrPager marks failures of a windowed map's spill store: errors
// wrapping it surface on Insert, Recenter, and WriteTo when a spill or
// page-in hits an I/O error or on-disk corruption. The error is sticky —
// the map keeps answering queries from resident state but stops
// accepting observations. Test with errors.Is(err, ErrPager).
var ErrPager = core.ErrPager

// ErrDurable marks failures of a durable map's log or snapshot store:
// errors wrapping it surface on Insert, Checkpoint, and Recover when a
// WAL append, snapshot write, or recovery read hits an I/O error or
// on-disk corruption. Like ErrPager the error is sticky — the map keeps
// answering queries but stops accepting observations rather than
// diverging from its log. Test with errors.Is(err, ErrDurable).
var ErrDurable = core.ErrDurable

// Durable is the persistence policy for Options.Durable: every admitted
// observation batch is logged before it is applied, and consistent-cut
// snapshots bound recovery replay. A map lost to a crash comes back with
// Recover. The zero value disables durability. See Options.Durable for
// how it composes with Mode, Shards, Backend, and Window.
type Durable = core.Durable

// DurableStats reports a durable map's logging activity (Stats.Durable).
type DurableStats = core.DurableStats

// SyncPolicy selects when WAL appends reach stable storage
// (Durable.Sync).
type SyncPolicy = core.SyncPolicy

const (
	// SyncNone (the default) leaves WAL durability to the OS page cache:
	// a process crash loses nothing, a power loss may lose the most
	// recent batches. Snapshot commits always fsync.
	SyncNone = core.SyncNone
	// SyncEveryBatch fsyncs the log after every admitted batch, bounding
	// power-loss data loss to the batch in flight at the cost of one
	// device flush per scan.
	SyncEveryBatch = core.SyncEveryBatch
)

// Window is the bounded-memory policy for Options.Window: keep an
// ego-centric window of the map resident and spill everything else to
// disk, paging spilled regions back in transparently when an insert,
// query, or ray touches them. The zero value keeps the whole map in
// memory. See Options.Window for how it composes with Mode, Shards, and
// Backend.
type Window = core.Window

// WindowStats reports a windowed map's paging activity (Stats.Window).
type WindowStats = core.WindowStats

// Leaf is one entry of a leaf walk: a voxel (or pruned aggregate cube)
// with its accumulated log-odds occupancy.
type Leaf = core.Leaf

// Snapshot is a backend-neutral, canonically pruned copy of a map's
// contents — the way map contents leave a Map for serialization,
// merging, and read-only consumers. Content-equal snapshots serialize to
// identical bytes regardless of the backend or shard count that produced
// them.
type Snapshot = core.Snapshot

// ReadSnapshot deserializes a snapshot written by Map.WriteTo (or
// Snapshot.WriteTo) without constructing a live map.
func ReadSnapshot(r io.Reader) (*Snapshot, error) { return core.ReadSnapshot(r) }

// Backend selects the voxel store behind a Map.
type Backend = core.BackendKind

const (
	// BackendOctree is the OctoMap-style arena octree: adaptive pruning,
	// compaction support, the paper's target structure. The default.
	BackendOctree = core.BackendOctree
	// BackendGrid is a VDB-style grid of dense 8x8x8 bricks behind a hash
	// index: flat lookups, no pruning, no compaction. Query answers and
	// serialized bytes are bit-identical to the octree backend's.
	BackendGrid = core.BackendGrid
)

// TraceMode selects the scan-tracing algorithm behind Insert.
type TraceMode = core.TraceMode

const (
	// TraceDDA marches every sensor ray voxel-by-voxel (Amanatides–Woo),
	// matching vanilla OctoMap's per-ray update stream. The default.
	TraceDDA = core.TraceDDA
	// TraceBoundary rasterizes each scan's free space once per batch
	// from the measured surface (D-BDM style): endpoints are binned into
	// bit planes over the scan's bounding box, the region bounded by the
	// origin and the surface is marked free, and the batch is swept out
	// in scanline order. Batches come out deduplicated — each voxel at
	// most once, occupied observations winning — so map state is
	// bit-identical to TraceDDA with DedupRays enabled, at a fraction of
	// the per-ray marching and cache-admission work.
	TraceBoundary = core.TraceBoundary
)

// Mode selects the pipeline variant.
type Mode int

const (
	// ModeParallel is the two-threaded OctoCache: octree updates run on a
	// background goroutine, off the query critical path. This is the
	// paper's full design and the default (zero value).
	ModeParallel Mode = iota
	// ModeSerial is the single-threaded OctoCache.
	ModeSerial
	// ModeOctoMap is the vanilla baseline: no cache, every traced voxel
	// updates the octree directly. Useful for comparison.
	ModeOctoMap
)

// Options configures a Map. The zero value is not valid; Resolution is
// required.
type Options struct {
	// Resolution is the voxel edge length in meters (e.g. 0.05–1.0).
	Resolution float64
	// Mode selects the pipeline; the default is ModeParallel. It
	// composes with Shards: a sharded map runs the selected pipeline in
	// every shard (ModeParallel gives each shard its own background
	// octree applier — the paper's two-thread schedule, per shard).
	Mode Mode
	// Shards, when 1 or more, partitions space across that many
	// independent pipelines (rounded up to a power of two, at most
	// MaxShards) and makes the Map safe for concurrent use — see the
	// package documentation's "Concurrent use" section. A 1-shard map
	// is still concurrency-safe; 0 selects the single-driver map: one
	// engine, no locks, one calling goroutine.
	Shards int
	// MaxRange truncates sensor rays beyond this distance in meters;
	// 0 disables truncation.
	MaxRange float64
	// CacheBuckets is the cache width w (rounded up to a power of two).
	// 0 uses the paper's UAV setting of 512K buckets. Size it at roughly
	// 3-4x the distinct voxels per scan divided by CacheTau. Sharded maps
	// divide the budget evenly across shards.
	CacheBuckets int
	// CacheTau is the per-bucket cell bound τ after eviction; 0 uses the
	// paper's default of 4.
	CacheTau int
	// DedupRays enables OctoMap-RT-style deduplicating ray tracing.
	// TraceBoundary batches are deduplicated regardless of this flag.
	DedupRays bool
	// Trace selects the scan-tracing algorithm: TraceDDA (the zero
	// value) marches per ray, TraceBoundary rasterizes free space per
	// batch. Map state is identical across modes once DedupRays is
	// enabled for TraceDDA (TraceBoundary output is inherently
	// deduplicated).
	Trace TraceMode
	// TraceWorkers fans the trace stage of each Insert across this many
	// goroutines; 0 or 1 traces on the calling goroutine. Results are
	// bit-identical at any worker count. The fan allocates per call, so
	// leave it at 0 on allocation-sensitive paths.
	TraceWorkers int
	// Backend selects the voxel store behind the map; the zero value is
	// BackendOctree. Query answers and serialized bytes are independent
	// of the choice; speed, memory shape, and compaction support are not.
	Backend Backend
	// Compaction enables automatic octree arena compaction: whenever a
	// batch leaves an arena with at least MinFreeSlots recycled slots
	// making up at least MinFreeFraction of its capacity, the arena is
	// rebuilt into a dense Morton-ordered prefix and the tail capacity
	// released. The zero value disables automatic compaction; explicit
	// Map.Compact calls always run. Sharded maps apply the policy per
	// shard. Backends without compaction support (BackendGrid) ignore
	// the policy.
	Compaction CompactionPolicy
	// Window bounds resident memory: only tiles (aligned sub-cubes of
	// Window.TileDepth) within Window.Radius of the most recent insert
	// origin stay in memory, and everything else spills to files under
	// Window.Dir, paging back in transparently on touch. Query answers
	// and serialized bytes are unchanged by the policy. Composes with
	// Mode, Shards (each shard pages its own region into its own file),
	// and Backend; the zero value keeps the whole map resident.
	Window Window
	// Durable makes the map crash-recoverable: admitted batches are
	// appended to a write-ahead log under Durable.Dir before they are
	// applied, and snapshots every Durable.SnapshotEvery batches bound
	// recovery replay. Reopen with Recover. Composes with Mode, Shards
	// (one log per shard, recovered shard-by-shard), and Backend; with
	// Window the spill file and the WAL share one log per pipeline
	// (leave Window.Dir empty to inherit Durable.Dir). The zero value
	// disables durability.
	Durable Durable
}

// CompactionPolicy sets the automatic-compaction trigger: compact when
// free slots are at least MinFreeFraction of arena capacity (0 disables)
// and number at least MinFreeSlots (a floor that keeps tiny arenas from
// compacting constantly).
type CompactionPolicy = core.CompactionPolicy

// MaxShards bounds Options.Shards.
const MaxShards = shard.MaxShards

// Map is a 3D occupancy map with an OctoMap-compatible query interface.
// With Options.Shards == 0 a Map must be driven from one goroutine
// (ModeParallel manages its own background worker internally); with
// Shards >= 1 all methods are safe for concurrent use.
type Map struct {
	// router owns the map's engines: one, caller-serialized, when
	// Options.Shards == 0; a locked partition of N otherwise.
	router *shard.Map
	cfg    core.Config
}

// New creates a Map, validating the options. Invalid options — a missing
// Resolution, negative counts, an out-of-range compaction policy —
// return an error rather than a partially constructed map.
func New(opts Options) (*Map, error) {
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	return newMap(opts, cfg)
}

// MustNew is New for statically known-valid options; it panics on error.
// Prefer New anywhere the options come from configuration or user input.
func MustNew(opts Options) *Map {
	m, err := New(opts)
	if err != nil {
		panic(err)
	}
	return m
}

// Open reads a map serialized with WriteTo and makes it live again: the
// loaded contents are replayed into each owning engine's backing store —
// whichever backend the options select,
// regardless of which backend wrote the stream. The stream's parameters
// (resolution, tree depth, sensor model) are authoritative;
// Options.Resolution is ignored. The remaining options — Mode, Shards,
// Backend, cache shape — configure the reopened map exactly as they
// would a new one.
func Open(r io.Reader, opts Options) (*Map, error) {
	src, err := core.ReadSnapshot(r)
	if err != nil {
		return nil, err
	}
	params := src.Params()
	opts.Resolution = params.Resolution
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	cfg.Octree = params
	m, err := newMap(opts, cfg)
	if err != nil {
		return nil, err
	}
	err = m.router.LoadSnapshot(src)
	if err == nil && opts.Durable.Enabled() {
		// Loaded leaves bypass the WAL, so checkpoint now: without a
		// snapshot covering the load, a crash before the first explicit
		// Checkpoint would recover an empty map.
		err = m.Checkpoint()
	}
	if err != nil {
		m.router.Discard() // nobody else will stop its appliers or close its logs
		return nil, err
	}
	return m, nil
}

// Recover reopens the durable map stored under dir: each pipeline loads
// its last consistent-cut snapshot and replays the write-ahead log's
// surviving suffix, restoring exactly the admitted batches that reached
// disk — bit-identical queries and serialized bytes to a map that
// ingested only that surviving prefix. The options must describe the
// map as it was created (same Resolution; Shards matching the on-disk
// layout, which Recover verifies before opening any log); Durable.Dir
// may be left empty to inherit dir. A directory with no durable map
// yields a fresh empty map, so services can call Recover
// unconditionally at startup. Stats.Durable.ReplayedBatches reports how
// much log was replayed.
func Recover(dir string, opts Options) (*Map, error) {
	if dir == "" {
		return nil, fmt.Errorf("octocache: Recover requires a directory")
	}
	switch opts.Durable.Dir {
	case "", dir:
		opts.Durable.Dir = dir
	default:
		return nil, fmt.Errorf("octocache: Recover dir %q conflicts with Options.Durable.Dir %q", dir, opts.Durable.Dir)
	}
	single, shardLogs, err := core.ScanDurableDir(dir)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrDurable, err)
	}
	if single && opts.Shards >= 1 {
		return nil, fmt.Errorf("octocache: %s holds a single-driver map; Recover with Shards == 0", dir)
	}
	if shardLogs > 0 {
		if opts.Shards < 1 {
			return nil, fmt.Errorf("octocache: %s holds a %d-shard map; Recover with Shards >= 1", dir, shardLogs)
		}
		if want := shard.RoundShards(opts.Shards); want != shardLogs {
			return nil, fmt.Errorf("octocache: %s holds a %d-shard map, options ask for %d shards", dir, shardLogs, want)
		}
	}
	cfg, err := buildConfig(opts)
	if err != nil {
		return nil, err
	}
	cfg.DurableRecover = true
	return newMap(opts, cfg)
}

// ScanDurableDir reports which durable-map logs dir holds: whether a
// single-driver log exists, and how many per-shard logs were found. A
// missing or empty directory reports none. It is the layout probe
// Recover itself uses, exported so services and tools can tell "fresh
// directory" from "existing map" before (or without) opening one —
// never by globbing log files themselves.
func ScanDurableDir(dir string) (single bool, shards int, err error) {
	return core.ScanDurableDir(dir)
}

// buildConfig validates the options and derives the pipeline config.
func buildConfig(opts Options) (core.Config, error) {
	if opts.CacheBuckets < 0 {
		return core.Config{}, fmt.Errorf("octocache: CacheBuckets must be >= 0, got %d", opts.CacheBuckets)
	}
	if opts.CacheTau < 0 {
		return core.Config{}, fmt.Errorf("octocache: CacheTau must be >= 0, got %d", opts.CacheTau)
	}
	if opts.Shards < 0 {
		return core.Config{}, fmt.Errorf("octocache: Shards must be >= 0, got %d", opts.Shards)
	}
	if err := opts.Compaction.Validate(); err != nil {
		return core.Config{}, err
	}
	if opts.TraceWorkers < 0 {
		return core.Config{}, fmt.Errorf("octocache: TraceWorkers must be >= 0, got %d", opts.TraceWorkers)
	}
	if opts.Trace != TraceDDA && opts.Trace != TraceBoundary {
		return core.Config{}, fmt.Errorf("octocache: unknown trace mode %v", opts.Trace)
	}
	cfg := core.DefaultConfig(opts.Resolution)
	cfg.Backend = opts.Backend
	cfg.MaxRange = opts.MaxRange
	cfg.RT = opts.DedupRays
	cfg.Trace = opts.Trace
	cfg.TraceWorkers = opts.TraceWorkers
	cfg.Compaction = opts.Compaction
	if opts.CacheBuckets > 0 {
		cfg.CacheBuckets = opts.CacheBuckets
	}
	if opts.CacheTau > 0 {
		cfg.CacheTau = opts.CacheTau
	}
	cfg.Window = opts.Window
	cfg.Durable = opts.Durable
	if err := cfg.Durable.Validate(); err != nil {
		return core.Config{}, err
	}
	win := cfg.Window
	if win.Enabled() && cfg.Durable.Enabled() && win.Dir == "" {
		win.Dir = cfg.Durable.Dir // the spill file and WAL share one log
	}
	if err := win.Validate(cfg.Octree.Depth); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// newMap assembles the router the options select.
func newMap(opts Options, cfg core.Config) (*Map, error) {
	pl := shard.PipelineAsync
	switch opts.Mode {
	case ModeSerial:
		pl = shard.PipelineSerial
	case ModeOctoMap:
		pl = shard.PipelineDirect
	}
	router, err := shard.New(shard.Config{Core: cfg, Shards: opts.Shards, Pipeline: pl})
	if err != nil {
		return nil, err
	}
	return &Map{router: router, cfg: cfg}, nil
}

// Insert integrates one sensor scan: points (world coordinates) observed
// from origin. Each point contributes an occupied observation at its
// voxel and free observations along the ray from origin. It returns
// ErrClosed after Close; sharded maps accept concurrent Insert calls
// from any number of goroutines.
func (m *Map) Insert(origin Vec3, points []Vec3) error {
	return m.router.Insert(origin, points)
}

// Occupied reports whether the voxel containing p is known and occupied.
func (m *Map) Occupied(p Vec3) bool { return m.router.Occupied(p) }

// Occupancy returns the voxel's accumulated log-odds occupancy; known is
// false for never-observed voxels. Use Probability to convert.
func (m *Map) Occupancy(p Vec3) (logOdds float32, known bool) { return m.router.Occupancy(p) }

// OccupiedKey is the key-space variant of Occupied, for planners that
// discretize once and probe many voxels.
func (m *Map) OccupiedKey(k Key) bool { return m.router.OccupiedKey(k) }

// OccupancyKey is the key-space variant of Occupancy, for consumers
// that discretize once and probe many voxels.
func (m *Map) OccupancyKey(k Key) (logOdds float32, known bool) { return m.router.OccupancyKey(k) }

// CellState is one voxel's occupancy answer in a batched query: the
// accumulated log-odds and whether the voxel has ever been observed.
type CellState struct {
	// LogOdds is the accumulated occupancy; meaningful only when Known.
	LogOdds float32 `json:"log_odds"`
	// Known is false for never-observed voxels.
	Known bool `json:"known"`
}

// OccupancyBatch answers one occupancy query per key, appending to dst
// (pass nil to allocate) and returning the extended slice with
// dst[i] answering keys[i]. It is the amortized form of OccupancyKey
// for batch consumers — the network query protocol, bulk exporters,
// planners probing a corridor — and, like the point queries, is safe
// for concurrent use on sharded maps.
func (m *Map) OccupancyBatch(keys []Key, dst []CellState) []CellState {
	for _, k := range keys {
		l, known := m.OccupancyKey(k)
		dst = append(dst, CellState{LogOdds: l, Known: known})
	}
	return dst
}

// CoordToKey discretizes a world coordinate into the map's key space; ok
// is false when p lies outside the mapped volume.
func (m *Map) CoordToKey(p Vec3) (k Key, ok bool) {
	return voxel.CoordToKey(p, m.cfg.Octree.Resolution, m.cfg.Octree.Depth)
}

// KeyToCoord returns the center of the voxel addressed by k.
func (m *Map) KeyToCoord(k Key) Vec3 {
	return voxel.KeyToCoord(k, m.cfg.Octree.Resolution, m.cfg.Octree.Depth)
}

// CastRay walks from origin along dir until it enters a known-occupied
// voxel or exceeds maxRange (0 means the map diameter), returning the
// hit voxel's center. Unknown space is traversed when ignoreUnknown is
// true and terminates the ray otherwise. Results reflect the freshest
// combined cache+octree state, like point queries.
func (m *Map) CastRay(origin, dir Vec3, maxRange float64, ignoreUnknown bool) (hit Vec3, ok bool) {
	return m.router.CastRay(origin, dir, maxRange, ignoreUnknown)
}

// Probability converts a log-odds occupancy to a probability in (0, 1).
func Probability(logOdds float32) float64 { return voxel.Probability(logOdds) }

// Resolution returns the voxel edge length in meters.
func (m *Map) Resolution() float64 { return m.cfg.Octree.Resolution }

// Params is the resolved occupancy model a map runs under: resolution,
// tree depth, the sensor's log-odds deltas, the clamping bounds, and
// the occupancy threshold.
type Params = voxel.Params

// Model returns the map's effective occupancy model — the parameters a
// snapshot of this map is built under. Unlike Snapshot().Params() it
// does not materialize anything.
func (m *Map) Model() Params { return m.cfg.Octree }

// Backend reports which voxel store backs the map.
func (m *Map) Backend() Backend { return m.cfg.Backend }

// Shards returns the effective shard count: 1 for single-driver maps,
// the rounded-up power of two otherwise.
func (m *Map) Shards() int { return m.router.NumShards() }

// Close flushes all cached voxels into the octree and stops background
// work. The Map remains queryable; further Insert calls return
// ErrClosed. Close is idempotent and never fails; it returns an error
// only to satisfy io.Closer-style call sites.
func (m *Map) Close() error { return m.router.Close() }

// WriteTo serializes the map, including updates still resident in the
// voxel cache; sharded maps are merged into one canonical snapshot
// (shards own disjoint subtrees, so the merge is lossless). Bytes are
// identical across backends and shard counts for content-equal maps,
// so a stream written by any configuration Opens under any other.
// Serializing after Close is cheapest (the flushed octree streams in
// place); a live map goes through the snapshot rebuild.
func (m *Map) WriteTo(w io.Writer) (int64, error) { return m.router.WriteTo(w) }

// Snapshot captures the map's current contents as a canonical,
// backend-neutral snapshot — for serialization, diffing, and read-only
// consumers. It answers queries exactly like the live map at the
// moment of capture: updates still resident in the voxel cache are
// folded in. Single-driver maps treat Snapshot as a mutator call, like
// Insert; sharded maps may call it from any goroutine.
func (m *Map) Snapshot() *Snapshot { return m.router.Snapshot() }

// WalkLeaves visits every leaf of the map's canonical snapshot in
// ascending Morton order. It carries Snapshot's caveats.
func (m *Map) WalkLeaves(fn func(Leaf) bool) { m.Snapshot().Walk(fn) }

// Recenter moves a windowed map's resident window to the tile containing
// origin and spills what fell outside — the explicit form of the
// recentering every Insert performs, for consumers that query far from
// where they insert (or insert rarely). A no-op on unwindowed maps.
// Sharded maps recenter every shard. Like Insert it is a mutator call on
// single-driver maps; it returns ErrClosed after Close and any sticky
// pager error (see ErrPager).
func (m *Map) Recenter(origin Vec3) error { return m.router.Recenter(origin) }

// Checkpoint takes a consistent-cut snapshot of a durable map now,
// retiring the write-ahead log it covers — for services that want a
// recovery bound tighter than Durable.SnapshotEvery (or that disabled
// the cadence). Sharded maps checkpoint one shard at a time under that
// shard's write lock. A no-op on non-durable maps; single-driver maps
// treat it as a mutator call, like Insert. Returns ErrClosed after
// Close and any sticky durable error (see ErrDurable).
func (m *Map) Checkpoint() error { return m.router.Checkpoint() }

// Compact rebuilds the octree arenas into dense Morton-ordered prefixes
// and releases the fragmented tail capacity, without changing any query
// answer or serialized byte. Sharded maps compact one shard at a time
// under that shard's write lock, so queries on other shards keep flowing;
// single-driver maps treat Compact as a mutator call, like Insert.
// Automatic compaction (Options.Compaction) runs the same rebuild behind
// each batch. Returns ErrClosed after Close.
func (m *Map) Compact() error { return m.router.Compact() }

// Stats reports map behaviour counters, grouped by subsystem. The
// struct marshals to a stable JSON encoding (the json tags below are
// the canonical field names the server's /metrics endpoint serves and
// dashboards may rely on; a shape-locking test pins them).
type Stats struct {
	// Cache summarizes the voxel cache in front of the octree.
	Cache CacheStats `json:"cache"`
	// Pipeline summarizes ingest volume.
	Pipeline PipelineStats `json:"pipeline"`
	// Arena summarizes octree arena occupancy (summed over shards).
	Arena ArenaStats `json:"arena"`
	// Compaction summarizes arena-compaction activity (summed over
	// shards; LastDuration is the worst shard's most recent pause).
	Compaction CompactionStats `json:"compaction"`
	// Shards is the effective shard count (1 for single-driver maps).
	Shards int `json:"shards"`
	// Backend identifies the voxel store behind the map. It marshals as
	// its flag spelling ("octree", "grid").
	Backend Backend `json:"backend"`
	// Window summarizes the bounded-memory window's paging activity
	// (summed over shards); Window.Enabled is false for unwindowed maps.
	Window WindowStats `json:"window"`
	// Durable summarizes the write-ahead log and snapshot activity
	// (counters summed over shards, sequences the minimum across them);
	// Durable.Enabled is false for non-durable maps.
	Durable DurableStats `json:"durable"`
}

// CacheStats summarizes cache behaviour.
type CacheStats struct {
	// HitRate is the fraction of voxel updates absorbed by the cache.
	HitRate float64 `json:"hit_rate"`
	// Hits counts voxel updates absorbed by an existing cache cell.
	Hits int64 `json:"hits"`
	// Inserts counts all voxel updates offered to the cache.
	Inserts int64 `json:"inserts"`
	// Evicted counts cells evicted from the cache into the octree.
	Evicted int64 `json:"evicted"`
}

// PipelineStats summarizes ingest volume.
type PipelineStats struct {
	// Batches counts inserted point clouds.
	Batches int64 `json:"batches"`
	// VoxelsTraced counts voxel observations produced by ray tracing.
	VoxelsTraced int64 `json:"voxels_traced"`
	// VoxelsToOctree counts voxel writes that reached the octree.
	VoxelsToOctree int64 `json:"voxels_to_octree"`
}

// ArenaStats describes octree arena occupancy: the octree stores nodes
// in contiguous handle-addressed slot arenas, and pruning recycles slots
// through free lists. A persistently large free share signals heavy
// pruning churn — the fragmentation Compact reclaims.
type ArenaStats struct {
	// LiveNodes is the octree's current node count.
	LiveNodes int `json:"live_nodes"`
	// FreeSlots counts recycled arena slots awaiting reuse.
	FreeSlots int `json:"free_slots"`
	// Capacity is the arena's total node slots: LiveNodes + FreeSlots.
	Capacity int `json:"capacity"`
	// Bytes estimates the octree's heap footprint.
	Bytes int64 `json:"bytes"`
}

// Occupancy is the live fraction of the arena, 1 for a dense (or empty)
// arena.
func (a ArenaStats) Occupancy() float64 {
	if a.Capacity == 0 {
		return 1
	}
	return float64(a.LiveNodes) / float64(a.Capacity)
}

// Fragmentation is the free fraction of the arena — the value a
// CompactionPolicy's MinFreeFraction is compared against.
func (a ArenaStats) Fragmentation() float64 {
	if a.Capacity == 0 {
		return 0
	}
	return float64(a.FreeSlots) / float64(a.Capacity)
}

// CompactionStats summarizes arena-compaction activity.
type CompactionStats struct {
	// Runs counts completed compactions, automatic and explicit.
	Runs int64 `json:"runs"`
	// SlotsReclaimed totals the arena slots released across all runs.
	SlotsReclaimed int64 `json:"slots_reclaimed"`
	// LastDuration is the wall time of the most recent run — the pause
	// producers on the compacted shard experienced. It marshals as
	// nanoseconds.
	LastDuration time.Duration `json:"last_duration_ns"`
}

func publicArena(a core.ArenaStats) ArenaStats {
	return ArenaStats{LiveNodes: a.LiveNodes, FreeSlots: a.FreeSlots, Capacity: a.Capacity, Bytes: a.Bytes}
}

func publicCompaction(c core.CompactionStats) CompactionStats {
	return CompactionStats{Runs: c.Runs, SlotsReclaimed: c.SlotsReclaimed, LastDuration: c.LastDuration}
}

func publicCache(c cache.Stats) CacheStats {
	return CacheStats{HitRate: c.HitRate(), Hits: c.Hits, Inserts: c.Inserts, Evicted: c.Evicted}
}

// Stats returns a snapshot of behaviour counters. With ModeParallel,
// call it between insertions or after Close; sharded maps may call it
// at any time from any goroutine.
func (m *Map) Stats() Stats {
	tm := m.router.Timings()
	return Stats{
		Cache: publicCache(m.router.CacheStats()),
		Pipeline: PipelineStats{
			Batches:        tm.Batches,
			VoxelsTraced:   tm.VoxelsTraced,
			VoxelsToOctree: tm.VoxelsToOctree,
		},
		// ArenaStats drains the background appliers before reading.
		Arena:      publicArena(m.router.ArenaStats()),
		Compaction: publicCompaction(m.router.CompactionStats()),
		Shards:     m.router.NumShards(),
		Backend:    m.cfg.Backend,
		Window:     m.router.WindowStats(),
		Durable:    m.router.DurableStats(),
	}
}

// ShardStat describes one shard of a sharded map. Like Stats it
// marshals to a stable JSON encoding.
type ShardStat struct {
	// Shard is the shard index (its Morton prefix).
	Shard int `json:"shard"`
	// Backend identifies the voxel store behind the shard's pipeline.
	Backend Backend `json:"backend"`
	// Arena is the shard store's arena snapshot.
	Arena ArenaStats `json:"arena"`
	// QueueDepth is the number of cells parked in the shard's cache
	// awaiting eviction or the Close flush.
	QueueDepth int `json:"queue_depth"`
	// Cache summarizes the shard's cache behaviour.
	Cache CacheStats `json:"cache"`
	// Compaction summarizes the shard's arena-compaction activity.
	Compaction CompactionStats `json:"compaction"`
	// Window summarizes the shard's paging activity (zero when the map
	// is unwindowed).
	Window WindowStats `json:"window"`
	// Durable summarizes the shard's WAL and snapshot activity (zero
	// when the map is not durable).
	Durable DurableStats `json:"durable"`
}

// ShardStats snapshots every shard of a sharded map; it returns nil for
// single-driver maps.
func (m *Map) ShardStats() []ShardStat {
	raw := m.router.ShardStats()
	if raw == nil {
		return nil
	}
	out := make([]ShardStat, len(raw))
	for i, s := range raw {
		out[i] = ShardStat{
			Shard:      s.Shard,
			Backend:    s.Backend,
			Arena:      publicArena(s.Arena),
			QueueDepth: s.QueueDepth,
			Cache:      publicCache(s.Cache),
			Compaction: publicCompaction(s.Compaction),
			Window:     s.Window,
			Durable:    s.Durable,
		}
	}
	return out
}

// Package shard implements the map router: one Map over N ≥ 1
// core.Engines, each owning the voxels whose Morton code carries its
// prefix. It is the only thing the public octocache.Map holds, in two
// shapes read off Config.Shards:
//
//   - Shards ≥ 1 — the sharded concurrent service. Space is partitioned
//     across N engines (rounded up to a power of two) so many producer
//     goroutines can ingest point clouds concurrently and a query only
//     contends on the single shard that owns the queried voxel — instead
//     of every caller serializing behind one pipeline and one global
//     octree mutex. Every method is safe for concurrent use.
//   - Shards == 0 — the single-driver map: the same router at N = 1 with
//     its locks elided. The caller provides the engine's exclusion (one
//     goroutine drives it), Insert is the engine's own Insert, and a
//     query costs what it costs on the bare engine.
//
// Why Morton-prefix sharding: the high bits of a Morton code address the
// coarsest octree subdivisions, so each shard owns a union of whole
// subtrees. The partition is therefore locality-preserving (a shard's
// eviction sweep still emits near-Morton runs into its own octree) and
// exact (every voxel has exactly one owner, so the per-voxel update
// stream stays ordered under the shard's lock and answers remain
// bit-identical to the serial pipeline — see the consistency tests).
//
// Ingest path per producer (Shards ≥ 1): the scan is ray-traced once
// outside any lock, the traced cells are partitioned by shard index with
// a stable counting sort into a pooled flat scratch (count per shard,
// prefix-sum offsets, ordered scatter — no per-shard slice growth, no
// allocation in steady state), and each shard's contiguous segment is
// applied under that shard's write lock through the engine's ApplyTraced
// entry point. The scatter preserves each voxel's observation order,
// which is what keeps sharded answers bit-identical to the serial
// pipeline. Distinct producers mostly touch distinct shards (scans are
// spatially compact), so ingest scales with the shard count until
// producers collide on hot regions.
//
// Locking is a per-shard RWMutex: mutators (the apply slice of an
// Insert, Close's flush) take the write side, queries take the read
// side. Combined with the engine's internal tree lock and batch-gap
// handshake, a query that hits the shard's cache touches no lock shared
// with octree writers at all, and a cache miss only waits for already
// handed-off eviction batches to land — so with PipelineAsync, octree
// application runs on a background goroutine per shard (the paper's
// Figure 14 schedule) while queries keep flowing.
//
// Whole-map operations (CastRay, WriteTo) have two forms, chosen by the
// shard count: with one engine they are that engine's own operation
// under one lock acquisition; with several they are recomposed across
// shards (a ray resolves each step at its owning shard, serialization
// merges the per-shard leaf walks).
package shard

import (
	"fmt"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"octocache/internal/cache"
	"octocache/internal/core"
	"octocache/internal/geom"
	"octocache/internal/morton"
	"octocache/internal/raytrace"
	"octocache/internal/voxel"
)

// ErrClosed is returned by Insert once the map has been closed (or
// finalized): the map remains queryable forever, but accepts no further
// observations. It is the same value core pipelines return, so errors.Is
// works across layers.
var ErrClosed = core.ErrClosed

// MaxShards bounds the shard count.
const MaxShards = 1 << morton.ShardMaxBits

// MinShardBuckets floors the per-shard cache width when the configured
// bucket budget is divided across shards.
const MinShardBuckets = 64

// Pipeline selects the per-shard pipeline composition.
type Pipeline int

const (
	// PipelineSerial runs the serial OctoCache per shard: octree
	// application happens inline, inside the shard's write lock.
	PipelineSerial Pipeline = iota
	// PipelineAsync runs the paper's two-thread schedule per shard:
	// octree application moves to a background applier goroutine behind
	// the SPSC buffer, overlapping the router's out-of-lock work.
	PipelineAsync
	// PipelineDirect runs the cache-less OctoMap baseline per shard.
	PipelineDirect
)

func (p Pipeline) kind() (core.Kind, error) {
	switch p {
	case PipelineSerial:
		return core.KindSerial, nil
	case PipelineAsync:
		return core.KindParallel, nil
	case PipelineDirect:
		return core.KindOctoMap, nil
	default:
		return 0, fmt.Errorf("shard: unknown pipeline %d", int(p))
	}
}

// Config configures a router.
type Config struct {
	// Core configures the engines (resolution, sensor model, cache
	// shape, RT tracing). With Shards ≥ 1 the cache bucket budget
	// Core.CacheBuckets is divided evenly across shards (floored at
	// MinShardBuckets), so total cache memory is shard-count independent.
	Core core.Config
	// Shards ≥ 1 is the number of spatial partitions of the concurrent
	// service, rounded up to a power of two; 0 selects the single-driver
	// router (one engine, caller-serialized, locks elided). Negative
	// values and values above MaxShards are an error.
	Shards int
	// Pipeline selects the per-shard composition. The zero value is
	// PipelineSerial, the seed behaviour.
	Pipeline Pipeline
}

// gate is the router's one lock helper: an RWMutex that the
// single-driver router switches off, so every method below takes its
// locks unconditionally and the Shards == 0 map still pays for none —
// an uncontended RLock/RUnlock pair is two atomic read-modify-writes,
// more than the rest of a cache-hit point query.
type gate struct {
	mu  sync.RWMutex
	off bool
}

func (g *gate) Lock() {
	if !g.off {
		g.mu.Lock()
	}
}

func (g *gate) Unlock() {
	if !g.off {
		g.mu.Unlock()
	}
}

func (g *gate) RLock() {
	if !g.off {
		g.rlock()
	}
}

func (g *gate) RUnlock() {
	if !g.off {
		g.runlock()
	}
}

// rlock and runlock stay out of line so RLock and RUnlock fit the
// compiler's inlining budget (the inlined RWMutex fast paths put them
// just over it): a single-driver query then pays one predictable branch
// per side, and a concurrent one the same single call as a direct gate
// method would cost.
//
//go:noinline
func (g *gate) rlock() { g.mu.RLock() }

//go:noinline
func (g *gate) runlock() { g.mu.RUnlock() }

// shardState is one spatial partition: an engine guarded by its own
// gate — mutators exclusive, queries shared. With PipelineAsync the
// engine's background applier runs outside this lock entirely; the
// engine's own tree lock and gap handshake order its octree writes
// against queries.
type shardState struct {
	mu  gate
	eng *core.Engine
}

// Map is the router. With Config.Shards ≥ 1 all exported methods are
// safe for concurrent use by any number of goroutines; consistency is
// per-voxel sequential (each voxel's update stream is serialized by its
// owning shard's write lock). Cross-shard snapshots (Timings,
// ShardStats, CastRay) are composed shard-by-shard and so reflect a
// slightly time-smeared view while producers are active — exact once
// quiescent. With Config.Shards == 0 the caller serializes mutators
// against everything else, exactly as for a bare core.Engine.
type Map struct {
	cfg      core.Config // as every engine runs it (per-shard cache budget)
	pipeline Pipeline
	bits     int
	single   bool // Config.Shards == 0: gates off, Insert is the engine's

	shards []*shardState

	// tracers and routes recycle the per-producer scratch (a ray tracer
	// and a counting-sort partition buffer) so concurrent Insert calls
	// don't allocate per scan.
	tracers sync.Pool
	routes  sync.Pool

	// closeMu lets Insert run shared while Close runs exclusive, so the
	// final flush never overlaps an in-flight insertion.
	closeMu gate
	closed  bool

	batches atomic.Int64
	rayNS   atomic.Int64
	critNS  atomic.Int64
}

// RoundShards returns the effective shard count for a requested one: the
// next power of two, at least 1 — so the shard index is a Morton-prefix
// extraction.
func RoundShards(n int) int {
	if n < 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// New creates a router over RoundShards(cfg.Shards) engines.
func New(cfg Config) (*Map, error) {
	if cfg.Shards < 0 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("shard: Shards must be in [0, %d], got %d", MaxShards, cfg.Shards)
	}
	kind, err := cfg.Pipeline.kind()
	if err != nil {
		return nil, err
	}
	n := RoundShards(cfg.Shards)
	single := cfg.Shards == 0

	engCfg := cfg.Core
	if !single {
		if per := engCfg.CacheBuckets / n; per >= MinShardBuckets {
			engCfg.CacheBuckets = per
		} else if engCfg.CacheBuckets > 0 {
			engCfg.CacheBuckets = MinShardBuckets
		}
	}

	m := &Map{
		cfg:      engCfg,
		pipeline: cfg.Pipeline,
		bits:     bits.TrailingZeros(uint(n)),
		single:   single,
		closeMu:  gate{off: single},
	}
	for i := 0; i < n; i++ {
		perShard := engCfg
		if !single && (perShard.Window.Enabled() || perShard.Durable.Enabled()) {
			// One log per shard: shards own disjoint key regions, so their
			// tile sets and batch streams never collide, and per-shard logs
			// keep each store single-writer under the shard's own lock.
			// Recovery proceeds shard-by-shard from the same tags. The
			// single-driver map keeps the engine's default tag, so the two
			// layouts stay distinguishable on disk (core.ScanDurableDir).
			perShard.Tag = fmt.Sprintf("shard-%03d", i)
		}
		eng, err := core.NewEngine(kind, perShard)
		if err != nil {
			m.Discard() // the engines already built: appliers and open logs
			return nil, err
		}
		m.shards = append(m.shards, &shardState{mu: gate{off: single}, eng: eng})
	}
	m.tracers.New = func() any { return engCfg.NewScanner() }
	m.routes.New = func() any {
		return &routeScratch{ends: make([]int, n)}
	}
	return m, nil
}

// Discard releases a live map without flushing it: every engine's
// background work stops and its durable store closes, with no final
// checkpoint. For constructors unwinding after a later step failed; the
// map must not be used afterwards.
func (m *Map) Discard() {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	m.closed = true
	for _, sh := range m.shards {
		sh.mu.Lock()
		sh.eng.Discard()
		sh.mu.Unlock()
	}
}

// routeScratch is one producer's partition buffer: the traced batch is
// counting-sorted into flat, shard-major, with ends[i] marking the end
// of shard i's segment.
type routeScratch struct {
	ends []int
	sidx []uint16         // shard index per batch element (avoids re-deriving Morton codes)
	flat []raytrace.Voxel // partitioned copy of the batch, shard-major
}

// partition stable-sorts batch by owning shard: a count pass, prefix
// sums, then an ordered scatter. Within a shard, voxels keep their batch
// order — the property the consistency matrix depends on.
func (rs *routeScratch) partition(batch []raytrace.Voxel, bits int) {
	ends := rs.ends
	for i := range ends {
		ends[i] = 0
	}
	if cap(rs.sidx) < len(batch) {
		rs.sidx = make([]uint16, len(batch))
		rs.flat = make([]raytrace.Voxel, len(batch))
	}
	sidx := rs.sidx[:len(batch)]
	flat := rs.flat[:len(batch)]
	for i, v := range batch {
		s := morton.ShardIndex(v.Key.Morton(), bits)
		sidx[i] = uint16(s)
		ends[s]++
	}
	sum := 0
	for i, c := range ends {
		ends[i] = sum // start offset for now; advanced to the end below
		sum += c
	}
	for i, v := range batch {
		s := sidx[i]
		flat[ends[s]] = v
		ends[s]++ // after the scatter, ends[s] is the segment end
	}
}

// segment returns shard i's contiguous slice of the partitioned batch.
func (rs *routeScratch) segment(i int) []raytrace.Voxel {
	start := 0
	if i > 0 {
		start = rs.ends[i-1]
	}
	return rs.flat[start:rs.ends[i]:rs.ends[i]]
}

// NumShards returns the engine count (a power of two; 1 for the
// single-driver router).
func (m *Map) NumShards() int { return len(m.shards) }

// Name identifies the service for reports.
func (m *Map) Name() string {
	switch {
	case m.single:
		return m.shards[0].eng.Name()
	case m.pipeline == PipelineAsync:
		return fmt.Sprintf("octocache-sharded-%d-async", len(m.shards))
	case m.pipeline == PipelineDirect:
		return fmt.Sprintf("octomap-sharded-%d", len(m.shards))
	default:
		return fmt.Sprintf("octocache-sharded-%d", len(m.shards))
	}
}

// shardFor returns the shard owning k. One engine owns everything, so
// the N = 1 routers skip the Morton encode (and, with the encode in its
// own function, the check inlines into the query path).
func (m *Map) shardFor(k voxel.Key) *shardState {
	if m.bits == 0 {
		return m.shards[0]
	}
	return m.shardByPrefix(k)
}

func (m *Map) shardByPrefix(k voxel.Key) *shardState {
	return m.shards[morton.ShardIndex(k.Morton(), m.bits)]
}

// Insert integrates one sensor scan. With Shards ≥ 1 it is safe to call
// from many goroutines concurrently: the scan is traced once with a
// pooled tracer, the traced cells are routed by Morton prefix, and each
// shard's slice is applied under that shard's write lock. The
// single-driver router has one caller and one engine, so the scan goes
// straight to the engine's Insert: its own tracer, its head-eviction
// schedule (the previous batch's octree update overlaps this batch's
// tracing), no partition copy. Returns ErrClosed after Close.
func (m *Map) Insert(origin geom.Vec3, points []geom.Vec3) error {
	if m.single {
		return m.shards[0].eng.Insert(origin, points)
	}
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	start := time.Now()

	tracer := m.tracers.Get().(raytrace.Scanner)
	t0 := time.Now()
	var batch []raytrace.Voxel
	if m.cfg.RT {
		batch = tracer.TraceRT(origin, points)
	} else {
		batch = tracer.Trace(origin, points)
	}
	m.rayNS.Add(int64(time.Since(t0)))

	rs := m.routes.Get().(*routeScratch)
	rs.partition(batch, m.bits)
	// The partition copied the batch into rs.flat, so the tracer (and the
	// batch buffer it owns) can go back to the pool before the apply loop.
	m.tracers.Put(tracer)

	var err error
	for i, sh := range m.shards {
		cells := rs.segment(i)
		if len(cells) == 0 {
			continue
		}
		sh.mu.Lock()
		// With PipelineAsync, ApplyTraced hands the eviction batch to the
		// shard's background applier on the way out, so the octree update
		// overlaps the router's work on the remaining shards.
		if e := sh.eng.ApplyTraced(cells); e != nil && err == nil {
			err = e
		}
		sh.mu.Unlock()
	}
	m.routes.Put(rs)
	if err != nil {
		return err
	}

	// Recenter every shard's window on the new origin. Each shard owns a
	// disjoint key region, so most shards evict nothing; the loop still
	// visits all of them because a shard whose region fell behind the
	// sensor must spill even when this scan routed it no cells.
	if m.cfg.Window.Enabled() {
		if err := m.eachShard(func(e *core.Engine) error { return e.Recenter(origin) }); err != nil {
			return err
		}
	}

	m.batches.Add(1)
	m.critNS.Add(int64(time.Since(start)))
	return nil
}

// eachShard runs one engine mutator on every shard, one shard at a time
// under that shard's write lock (so queries on the other shards keep
// flowing), stopping at the first error.
func (m *Map) eachShard(fn func(*core.Engine) error) error {
	for _, sh := range m.shards {
		sh.mu.Lock()
		err := fn(sh.eng)
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// mutate is eachShard for the explicit whole-map mutators: shared with
// Insert against Close, and ErrClosed after it.
func (m *Map) mutate(fn func(*core.Engine) error) error {
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	return m.eachShard(fn)
}

// sum folds one per-engine stats snapshot over the shards, each taken
// under its shard's read lock (which keeps mutators out, so no new
// batches are handed off while the engine quiesces and reads).
func sum[T interface{ Add(T) T }](m *Map, get func(*core.Engine) T) T {
	var t T
	for _, sh := range m.shards {
		sh.mu.RLock()
		t = t.Add(get(sh.eng))
		sh.mu.RUnlock()
	}
	return t
}

// Recenter moves every shard's window to the tile containing origin and
// evicts out-of-window tiles — the explicit form of the recentering each
// Insert performs. A no-op on unwindowed maps. Returns ErrClosed after
// Close and any sticky pager error.
func (m *Map) Recenter(origin geom.Vec3) error {
	return m.mutate(func(e *core.Engine) error { return e.Recenter(origin) })
}

// Checkpoint takes a consistent-cut snapshot of every durable shard,
// one shard at a time under that shard's write lock, retiring the WAL
// each snapshot covers. A no-op on non-durable maps. Returns ErrClosed
// after Close and any sticky durable error.
func (m *Map) Checkpoint() error { return m.mutate((*core.Engine).Checkpoint) }

// Compact rebuilds every shard's octree arenas into dense Morton/DFS-
// ordered prefixes, one shard at a time under that shard's write lock, so
// queries on other shards keep flowing throughout. Observable map state
// is unchanged. Returns ErrClosed after Close.
func (m *Map) Compact() error { return m.mutate((*core.Engine).Compact) }

// WindowStats aggregates the per-shard paging activity; Enabled is false
// (and everything zero) for unwindowed maps.
func (m *Map) WindowStats() core.WindowStats { return sum(m, (*core.Engine).WindowStats) }

// WindowErr returns the first shard's sticky pager error, if any.
func (m *Map) WindowErr() error {
	for _, sh := range m.shards {
		if err := sh.eng.WindowErr(); err != nil {
			return err
		}
	}
	return nil
}

// DurableStats aggregates the per-shard logging activity; Enabled is
// false (and everything zero) for non-durable maps. The sequence fields
// report the minimum across shards — what the whole map is guaranteed
// durable (and snapshotted) through.
func (m *Map) DurableStats() core.DurableStats { return sum(m, (*core.Engine).DurableStats) }

// OccupancyKey returns the accumulated log-odds of the voxel at k,
// resolved by its owning shard (cache first, shard octree on miss). Only
// the shard's read lock is taken, so queries never serialize behind each
// other — and on the cache-hit path never behind octree writes either.
func (m *Map) OccupancyKey(k voxel.Key) (logOdds float32, known bool) {
	sh := m.shardFor(k)
	sh.mu.RLock()
	logOdds, known = sh.eng.OccupancyKey(k)
	sh.mu.RUnlock()
	return logOdds, known
}

// Occupancy is the coordinate-space variant of OccupancyKey.
func (m *Map) Occupancy(p geom.Vec3) (logOdds float32, known bool) {
	k, ok := voxel.CoordToKey(p, m.cfg.Octree.Resolution, m.cfg.Octree.Depth)
	if !ok {
		return 0, false
	}
	return m.OccupancyKey(k)
}

// OccupiedKey reports whether the voxel at k is known-occupied.
func (m *Map) OccupiedKey(k voxel.Key) bool {
	l, known := m.OccupancyKey(k)
	return known && l >= m.cfg.Octree.OccupancyThreshold
}

// Occupied reports whether the voxel containing p is known-occupied.
func (m *Map) Occupied(p geom.Vec3) bool {
	l, known := m.Occupancy(p)
	return known && l >= m.cfg.Octree.OccupancyThreshold
}

// CastRay walks from origin along dir until it enters a known-occupied
// voxel or exceeds maxRange. One engine walks the whole ray itself under
// one lock acquisition. Several shards resolve each step at the voxel's
// owning shard, so the walk crosses shard boundaries transparently;
// voxels are sampled one at a time, so a ray racing concurrent producers
// sees each voxel's freshest state rather than one atomic snapshot of
// all shards.
func (m *Map) CastRay(origin, dir geom.Vec3, maxRange float64, ignoreUnknown bool) (hit geom.Vec3, ok bool) {
	if m.bits == 0 {
		sh := m.shards[0]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.eng.CastRay(origin, dir, maxRange, ignoreUnknown)
	}
	return core.CastRayKeys(m.cfg.Octree, m.OccupancyKey, origin, dir, maxRange, ignoreUnknown)
}

// Close flushes every shard's cache into its octree, stops background
// appliers, and rejects further insertions with ErrClosed. The map
// remains queryable. Close is idempotent and, with Shards ≥ 1, safe to
// call concurrently with Insert: it waits for in-flight insertions to
// drain before flushing.
func (m *Map) Close() error {
	m.closeMu.Lock()
	defer m.closeMu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	return m.eachShard((*core.Engine).Close)
}

// LoadSnapshot splits a whole-map snapshot across the shards, each leaf
// going to its owning shard — the inverse of Snapshot, used by map
// loading. Aggregate (pruned) leaves spanning more than one shard's
// region are expanded into the per-shard sub-cubes first, so no shard
// ever holds space it does not own. Returns ErrClosed after Close.
func (m *Map) LoadSnapshot(src *core.Snapshot) error {
	m.closeMu.RLock()
	defer m.closeMu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	if p := src.Params(); p != m.cfg.Octree {
		return fmt.Errorf("shard: loaded snapshot params %+v differ from map params %+v", p, m.cfg.Octree)
	}

	// A leaf routes to a single shard iff its depth reaches splitDepth:
	// the shard index is the top `bits` bits of the 48-bit Morton code,
	// of which the top 3·(16−Depth) are always zero, so the index is
	// decided by the first ceil(bits/3) − (16−Depth) key triples.
	depth := m.cfg.Octree.Depth
	splitDepth := (m.bits+2)/3 - (16 - depth)
	if splitDepth < 0 {
		splitDepth = 0
	}

	var err error
	src.Walk(func(l voxel.Leaf) bool {
		if l.Depth >= splitDepth {
			err = m.loadLeaf(l)
			return err == nil
		}
		side := 1 << (depth - l.Depth) // leaf cube edge, in voxels
		sub := 1 << (depth - splitDepth)
		for dx := 0; dx < side; dx += sub {
			for dy := 0; dy < side; dy += sub {
				for dz := 0; dz < side; dz += sub {
					k := voxel.Key{
						X: l.Key.X + uint16(dx),
						Y: l.Key.Y + uint16(dy),
						Z: l.Key.Z + uint16(dz),
					}
					if err = m.loadLeaf(voxel.Leaf{Key: k, Depth: splitDepth, LogOdds: l.LogOdds}); err != nil {
						return false
					}
				}
			}
		}
		return true
	})
	return err
}

func (m *Map) loadLeaf(l voxel.Leaf) error {
	sh := m.shardFor(l.Key)
	sh.mu.Lock()
	err := sh.eng.LoadLeaf(l)
	sh.mu.Unlock()
	return err
}

// Timings aggregates the per-shard stage decompositions. Under the
// concurrent router RayTracing, Critical and Batches accrue here (tracing
// happens outside shard locks) and the engines never count them; the
// single-driver engine counts all three itself and the router's share is
// zero — so one sum serves both. The remaining stages sum over shards, so
// with concurrent producers the stage times represent total work, not
// wall clock.
func (m *Map) Timings() core.Timings {
	t := sum(m, (*core.Engine).Timings)
	t.Batches += m.batches.Load()
	t.RayTracing += time.Duration(m.rayNS.Load())
	t.Critical += time.Duration(m.critNS.Load())
	return t
}

// CacheStats merges the per-shard cache counters.
func (m *Map) CacheStats() cache.Stats { return sum(m, (*core.Engine).CacheStats) }

// CompactionStats sums the per-shard compaction activity (automatic and
// explicit runs alike).
func (m *Map) CompactionStats() core.CompactionStats { return sum(m, (*core.Engine).CompactionStats) }

// ArenaStats sums the per-shard arena snapshots; each engine quiesces
// its applier before reading, so the counters are exact per shard.
func (m *Map) ArenaStats() core.ArenaStats { return sum(m, (*core.Engine).ArenaStats) }

// ShardStat describes one shard's live state.
type ShardStat struct {
	// Shard is the shard index (its Morton prefix).
	Shard int
	// Backend identifies the voxel store behind the shard's engine.
	Backend core.BackendKind
	// Arena is the shard store's arena snapshot: live units (octree
	// nodes or resident grid bricks), recycled free slots, total
	// capacity, and estimated heap bytes.
	Arena core.ArenaStats
	// QueueDepth is the number of cells parked in the shard's cache
	// awaiting eviction or the Close flush — the shard's pending-write
	// backlog.
	QueueDepth int
	// Cache holds the shard's cache behaviour counters.
	Cache cache.Stats
	// Compaction holds the shard's arena-compaction counters.
	Compaction core.CompactionStats
	// Window holds the shard's paging counters (zero when the map is
	// unwindowed).
	Window core.WindowStats
	// Durable holds the shard's WAL and snapshot counters (zero when the
	// map is not durable).
	Durable core.DurableStats
}

// ShardStats snapshots every shard of the concurrent service; the
// single-driver router is one engine, not a partition, and reports nil.
// Shards are visited one at a time (quiescing each shard's applier
// before reading its tree), so the slice is exact per-shard but
// time-smeared across shards while producers are active.
func (m *Map) ShardStats() []ShardStat {
	if m.single {
		return nil
	}
	out := make([]ShardStat, len(m.shards))
	for i, sh := range m.shards {
		// The read lock keeps mutators out, so no new batches can be
		// handed off; each engine quiesces its applier before reading.
		sh.mu.RLock()
		out[i] = ShardStat{
			Shard:      i,
			Backend:    m.cfg.Backend,
			Arena:      sh.eng.ArenaStats(),
			QueueDepth: sh.eng.CacheLen(),
			Cache:      sh.eng.CacheStats(),
			Compaction: sh.eng.CompactionStats(),
			Window:     sh.eng.WindowStats(),
			Durable:    sh.eng.DurableStats(),
		}
		sh.mu.RUnlock()
	}
	return out
}

// Snapshot builds one canonical snapshot holding every shard's flushed
// state, for serialization and whole-map consumers. Shards own disjoint
// unions of subtrees, so the merge is a lossless leaf-by-leaf replay
// that converges to the same canonical structure regardless of shard
// count or backend. Each shard's walk folds in its cache-resident
// cells, so the snapshot answers like the live map at any point in the
// stream, not just after Close.
func (m *Map) Snapshot() *core.Snapshot {
	dst := core.NewSnapshot(m.cfg.Octree)
	for _, sh := range m.shards {
		sh.mu.RLock()
		sh.eng.WalkLeaves(func(l voxel.Leaf) bool {
			dst.Add(l)
			return true
		})
		sh.mu.RUnlock()
	}
	return dst
}

// WriteTo serializes the map in the .bt format. Bytes are identical
// across shard counts and backends for content-equal maps — and across
// window policies: each shard's walk folds its spilled tiles back in.
// One engine serializes itself under one lock acquisition (streaming its
// store in place when nothing is parked in the cache); several shards
// merge through Snapshot. A shard whose spill file failed to read
// surfaces its sticky pager error here instead of serializing a partial
// map.
func (m *Map) WriteTo(w io.Writer) (int64, error) {
	if m.bits == 0 {
		sh := m.shards[0]
		sh.mu.RLock()
		defer sh.mu.RUnlock()
		return sh.eng.WriteTo(w)
	}
	snap := m.Snapshot()
	if err := m.WindowErr(); err != nil {
		return 0, err
	}
	return snap.WriteTo(w)
}

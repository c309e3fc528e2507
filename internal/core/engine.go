package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"octocache/internal/cache"
	"octocache/internal/durable"
	"octocache/internal/geom"
	"octocache/internal/raytrace"
	"octocache/internal/spsc"
	"octocache/internal/voxel"
)

// ErrClosed is returned by Insert, ApplyTraced, and LoadLeaf once a
// pipeline has been closed: the map remains queryable forever, but
// accepts no further observations. The shard service and the public API
// re-export this value, so errors.Is works across layers.
var ErrClosed = errors.New("octocache: map is closed")

// Engine is the one implementation of the paper's mapping loop:
//
//	ray trace → cache admit → τ-bounded evict → octree apply
//
// The three engine kinds (NewEngine; see the kinds table in mapper.go)
// are compositions of it along two axes:
//
//   - cached or direct: with a cache, traced voxels are admitted to the
//     flat cache (queries are served right after the fast insertion) and
//     only evicted cells reach the octree; without one (the OctoMap
//     baseline), the traced batch goes straight to the octree and
//     queries wait for the whole update.
//   - inline or async applier: the octree-apply stage either runs on the
//     caller's goroutine, or on a background goroutine fed through the
//     SPSC buffer with the paper's batch-gap handshake (Figure 14).
//
// Concurrency contract: mutators (Insert, ApplyTraced, Close, LoadLeaf)
// must be serialized by the caller — one driver goroutine, or the shard service's per-shard write
// lock. The query methods (Occupancy, Occupied, CastRay and their key
// variants) may run concurrently with each other and with the async
// applier's background work, but not with a mutator; the shard service
// provides exactly that exclusion with a per-shard RWMutex.
type Engine struct {
	cfg      Config
	baseName string
	// store is the pluggable voxel store behind the pipeline; compactor
	// caches its optional compaction capability (nil when absent, e.g.
	// the grid backend), asserted once at construction so hot paths stay
	// assertion-free.
	store     Backend
	compactor Compactor
	cache     *cache.Cache // nil for the direct (OctoMap baseline) composition
	tracer    raytrace.Scanner
	// lookup is the store read the cache consults on admission misses,
	// built once so the per-scan admit loop stays closure-allocation-free.
	lookup cache.TreeLookup

	// treeRW makes the async applier's store writes and query-side
	// store reads mutually exclusive: the applier goroutine takes the
	// write side per batch, queries take the read side after the gap
	// handshake. With the inline applier it is uncontended by
	// construction (writes only ever run inside a mutator).
	treeRW sync.RWMutex
	app    applier

	// bufMu guards bufFree, the free list of cell-batch buffers that
	// circulate between the mutator (which fills them from eviction,
	// flush, or direct conversion) and the applier (which returns them
	// once the cells are in the octree). Recycling whole batches is what
	// keeps the steady-state evict → hand-off → apply path
	// allocation-free; the mutex is uncontended with the inline applier
	// and touched once per batch with the async one.
	bufMu   sync.Mutex
	bufFree [][]cache.Cell

	// win holds the bounded-memory windowing machinery when
	// cfg.Window is enabled (nil otherwise — hot paths check the pointer
	// once); evictor caches the backend's tile-detach capability the
	// window requires. dur holds the WAL + snapshot machinery when
	// cfg.Durable is enabled; when both are armed they share one
	// durable.Store (one log carries spill frames and WAL frames).
	win     *windowState
	evictor Evictor
	dur     *durableState

	timings    Timings
	compaction CompactionStats
	closed     bool
}

// getBuf takes an empty cell buffer from the free list (or nil, which
// append then grows into a new one that later recycles).
func (e *Engine) getBuf() []cache.Cell {
	e.bufMu.Lock()
	defer e.bufMu.Unlock()
	if n := len(e.bufFree); n > 0 {
		b := e.bufFree[n-1]
		e.bufFree = e.bufFree[:n-1]
		return b[:0]
	}
	return nil
}

// putBuf returns a buffer whose cells are fully consumed.
func (e *Engine) putBuf(b []cache.Cell) {
	if cap(b) == 0 {
		return
	}
	e.bufMu.Lock()
	e.bufFree = append(e.bufFree, b)
	e.bufMu.Unlock()
}

func newEngine(cfg Config, baseName string, direct, async bool) (*Engine, error) {
	e := &Engine{
		cfg:      cfg,
		baseName: baseName,
		store:    cfg.newBackend(),
		tracer:   cfg.NewScanner(),
	}
	e.compactor, _ = e.store.(Compactor)
	var store *durable.Store
	var recovered *durable.Recovered
	if cfg.Window.Enabled() || cfg.Durable.Enabled() {
		// One durable store per pipeline serves all three masters: the
		// window spills tile frames into it, the Durable policy appends WAL
		// frames and snapshot cuts, and when both are armed they share one
		// log. Construction failures wear the badge of whichever policy
		// asked for the store.
		wrap := func(err error) error {
			if cfg.Durable.Enabled() {
				return fmt.Errorf("%w: %v", ErrDurable, err)
			}
			return fmt.Errorf("%w: %v", ErrPager, err)
		}
		dir := cfg.Durable.Dir
		if dir == "" {
			dir = cfg.Window.Dir
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, wrap(err)
		}
		tag := cfg.Tag
		if tag == "" {
			tag = "map"
		}
		var err error
		if cfg.Durable.Enabled() && cfg.DurableRecover {
			store, recovered, err = durable.Recover(dir, tag, cfg.Durable.Sync)
		} else {
			store, err = durable.Create(dir, tag, cfg.Durable.Sync)
		}
		if err != nil {
			return nil, wrap(err)
		}
		if cfg.Window.Enabled() {
			ev, ok := e.store.(Evictor)
			if !ok {
				store.Close()
				return nil, fmt.Errorf("core: backend %v cannot back a windowed map (no tile eviction)", cfg.Backend)
			}
			e.evictor, e.win = ev, newWindowState(cfg.Window, cfg.Octree.Depth, store)
		}
		if cfg.Durable.Enabled() {
			e.dur = &durableState{pol: cfg.Durable, store: store}
		}
	}
	if !direct {
		e.cache = cache.New(cfg.cacheConfig())
	}
	e.lookup = e.store.Lookup
	if async {
		e.app = newAsyncApplier(e)
	} else {
		e.app = &inlineApplier{e: e}
	}
	if recovered != nil {
		if err := e.recoverFrom(recovered); err != nil {
			e.app.stop()
			store.Close()
			return nil, err
		}
	}
	return e, nil
}

func (e *Engine) Name() string {
	name := e.baseName
	if e.cfg.Trace == TraceBoundary {
		name += "-boundary"
	}
	if e.cfg.RT {
		name += "-rt"
	}
	return name
}

// traceScan is the shared ray-tracing stage: it turns one scan into the
// per-voxel observation batch and charges the time to tm.RayTracing.
// The baseline pipelines reuse it so the stage exists exactly once.
func traceScan(tr raytrace.Scanner, rt bool, origin geom.Vec3, points []geom.Vec3, tm *Timings) []raytrace.Voxel {
	t0 := time.Now()
	var batch []raytrace.Voxel
	if rt {
		batch = tr.TraceRT(origin, points)
	} else {
		batch = tr.Trace(origin, points)
	}
	tm.RayTracing += time.Since(t0)
	return batch
}

// writeCells is the one store-apply stage. Cached compositions receive
// evicted cells carrying accumulated occupancies, which overwrite the
// store's copies; the direct composition receives observation markers
// (LogOdds > 0 means an occupied observation) and applies the store's
// own incremental update, exactly like vanilla OctoMap.
func (e *Engine) writeCells(cells []cache.Cell) {
	if e.cache == nil {
		for _, c := range cells {
			e.store.UpdateCell(c.Key, c.LogOdds > 0)
		}
		return
	}
	for _, c := range cells {
		e.store.SetCell(c.Key, c.LogOdds)
	}
}

// evictAndHandOff runs the eviction stage and hands the batch to the
// applier. With the inline applier the octree update completes before it
// returns; with the async applier it returns as soon as the batch is in
// the SPSC buffer and the octree update proceeds in the background.
func (e *Engine) evictAndHandOff() {
	if e.cache == nil {
		return
	}
	t0 := time.Now()
	buf := e.cache.Evict(e.getBuf())
	e.timings.CacheEvict += time.Since(t0)
	if len(buf) == 0 {
		e.putBuf(buf)
		return
	}
	e.timings.VoxelsToOctree += int64(len(buf))
	e.app.apply(buf)
}

// admit integrates a traced batch so queries can see it: through the
// cache when present, else straight into the octree.
func (e *Engine) admit(batch []raytrace.Voxel) {
	if e.cache == nil {
		buf := e.getBuf()
		for _, v := range batch {
			lo := float32(-1)
			if v.Occupied {
				lo = 1
			}
			buf = append(buf, cache.Cell{Key: v.Key, LogOdds: lo})
		}
		e.app.apply(buf)
		// Direct-mode queries go straight to the octree, so the batch
		// must be fully applied before the insert returns — the baseline
		// property the paper's Figure 4 describes.
		e.app.quiesce()
		e.timings.VoxelsToOctree += int64(len(batch))
		return
	}

	// The cache insertion reads the octree on misses, so it must wait for
	// the applier to finish every announced batch — the paper's "gap"
	// (Figure 13b). After quiesce the applier is idle and stays idle until
	// this mutator hands off again, so the lookups need no tree lock.
	t0 := time.Now()
	e.app.quiesce()
	e.timings.Wait += time.Since(t0)

	t0 = time.Now()
	for _, v := range batch {
		e.cache.Insert(v.Key, v.Occupied, e.lookup)
	}
	e.timings.CacheInsert += time.Since(t0)
}

// Insert integrates one sensor scan on the Figure 14 schedule: the
// previous batch's eviction is handed off first so an async applier's
// octree update overlaps this batch's ray tracing, and the gap handshake
// before cache insertion guarantees queries never observe a voxel stuck
// in the buffer. It returns ErrClosed after Close.
func (e *Engine) Insert(origin geom.Vec3, points []geom.Vec3) error {
	if e.closed {
		return ErrClosed
	}
	if e.win != nil {
		if err := e.win.loadErr(); err != nil {
			return err
		}
	}
	if e.dur != nil {
		if err := e.dur.loadErr(); err != nil {
			return err
		}
	}
	start := time.Now()

	e.evictAndHandOff()
	batch := traceScan(e.tracer, e.cfg.RT, origin, points, &e.timings)
	if e.win != nil {
		// Every touched tile must be resident before admission: the cache
		// seeds accumulation from the store on a miss, so observing a
		// spilled tile without reloading it would restart its voxels from
		// unknown.
		if err := e.ensureResident(batch); err != nil {
			return err
		}
	}
	if e.dur != nil && len(batch) > 0 {
		// Write-ahead: the batch is logged before it can reach the cache
		// or store, so the on-disk history never lags applied state. A
		// failed append rejects the batch (sticky error).
		if err := e.dur.appendWAL(batch); err != nil {
			return err
		}
	}
	e.admit(batch)

	e.maybeCompact()
	if e.win != nil {
		if err := e.maybeRecenter(origin); err != nil {
			return err
		}
	}
	e.maybeCheckpoint()

	e.timings.Batches++
	e.timings.VoxelsTraced += int64(len(batch))
	e.timings.Critical += time.Since(start)
	return nil
}

// ApplyTraced integrates pre-traced voxel observations exactly as Insert
// would after its ray-tracing stage. Unlike Insert it evicts at the tail
// rather than the head: a sharded router calls it under the shard's
// write lock with no tracing inside, so handing the eviction off on the
// way out is what lets an async applier's octree update overlap the
// router's out-of-lock work. It does not count a batch; routers account
// for scans themselves.
func (e *Engine) ApplyTraced(batch []raytrace.Voxel) error {
	if e.closed {
		return ErrClosed
	}
	if e.win != nil {
		if err := e.win.loadErr(); err != nil {
			return err
		}
		if err := e.ensureResident(batch); err != nil {
			return err
		}
	}
	if e.dur != nil {
		if err := e.dur.loadErr(); err != nil {
			return err
		}
		if len(batch) > 0 {
			if err := e.dur.appendWAL(batch); err != nil {
				return err
			}
		}
	}
	e.admit(batch)
	// The policy check and any compaction must precede the tail
	// hand-off: admit's gap handshake left the applier idle, so until
	// the next hand-off the mutator owns the tree outright.
	e.maybeCompact()
	e.maybeCheckpoint()
	e.evictAndHandOff()
	e.timings.VoxelsTraced += int64(len(batch))
	return nil
}

// OccupancyKey answers from the cache first; on a miss it waits out any
// in-flight octree writes (the gap guarantee) and reads the tree under
// the read lock — so cache hits never touch a lock shared with the
// applier.
func (e *Engine) OccupancyKey(k voxel.Key) (float32, bool) {
	if e.cache != nil {
		if l, hit := e.cache.Query(k); hit {
			return l, true
		}
	}
	e.app.quiesce()
	if e.win != nil && e.win.spilledN.Load() > 0 {
		// Transparently page the voxel's tile back in if it is spilled.
		// A reload failure sets the sticky pager error (surfaced on the
		// next mutator call) and the query answers from resident state.
		_ = e.pageInForQuery(k)
	}
	e.treeRW.RLock()
	l, known := e.store.Lookup(k)
	e.treeRW.RUnlock()
	return l, known
}

// Occupancy is the coordinate-space variant of OccupancyKey.
func (e *Engine) Occupancy(p geom.Vec3) (float32, bool) {
	k, ok := voxel.CoordToKey(p, e.cfg.Octree.Resolution, e.cfg.Octree.Depth)
	if !ok {
		return 0, false
	}
	return e.OccupancyKey(k)
}

func (e *Engine) Occupied(p geom.Vec3) bool {
	l, known := e.Occupancy(p)
	return known && l >= e.cfg.Octree.OccupancyThreshold
}

func (e *Engine) OccupiedKey(k voxel.Key) bool {
	l, known := e.OccupancyKey(k)
	return known && l >= e.cfg.Octree.OccupancyThreshold
}

// CastRay drains pending octree writes once, then holds the read lock
// for the whole walk, consulting the freshest combined cache+octree
// state per visited voxel. With a window armed the walk may cross a
// spilled tile: the first such tile is noted, the walk's result is
// discarded, the tile pages back in, and the walk retries — terminating
// because queries never run concurrently with mutators, so the spilled
// set only shrinks.
func (e *Engine) CastRay(origin, dir geom.Vec3, maxRange float64, ignoreUnknown bool) (geom.Vec3, bool) {
	e.app.quiesce()
	for {
		var missed voxel.Key
		haveMissed := false
		e.treeRW.RLock()
		occ := func(k voxel.Key) (float32, bool) {
			if w := e.win; w != nil && w.spilledN.Load() > 0 && !haveMissed {
				t := w.tileOf(k)
				if _, ok := w.spilled[t]; ok {
					missed, haveMissed = t, true
				}
			}
			if e.cache != nil {
				if l, hit := e.cache.Query(k); hit {
					return l, true
				}
			}
			return e.store.Lookup(k)
		}
		hit, ok := CastRayKeys(e.cfg.Octree, occ, origin, dir, maxRange, ignoreUnknown)
		e.treeRW.RUnlock()
		if !haveMissed {
			return hit, ok
		}
		if err := e.reloadTile(missed); err != nil {
			// Sticky pager error is set; answer from what is resident.
			return hit, ok
		}
	}
}

// Close flushes all cached state through the applier, waits for the
// octree to hold everything, and stops background work. Idempotent; the
// engine remains queryable afterwards. It never fails and returns an
// error only to satisfy io.Closer-style call sites.
func (e *Engine) Close() error {
	if e.closed {
		return nil
	}
	e.closed = true
	if e.cache != nil {
		t0 := time.Now()
		flushed := e.cache.Flush(e.getBuf())
		e.timings.CacheEvict += time.Since(t0)
		if len(flushed) > 0 {
			e.timings.VoxelsToOctree += int64(len(flushed))
			e.app.apply(flushed)
		} else {
			e.putBuf(flushed)
		}
	}
	e.app.stop()
	if d := e.dur; d != nil {
		// Final synchronous checkpoint: a cleanly closed map recovers from
		// its snapshot with zero batches to replay. Skipped when nothing
		// was admitted past the last cut or the store already failed; the
		// store itself stays open so the closed map remains queryable
		// (spilled tiles keep paging in).
		d.snapWG.Wait()
		if d.loadErr() == nil && d.seq.Load() > d.store.Stats().SnapshotSeq {
			if err := d.store.WriteSnapshot(d.seq.Load(), e.Snapshot()); err != nil {
				d.setErr(err)
			}
		}
	}
	return nil
}

// Discard releases a live engine without flushing it: background work
// stops and the durable store's file closes with no final checkpoint
// (whatever the log already holds stays recoverable). It is how a
// constructor unwinds the engines it built when a later step fails; the
// engine must not be used afterwards.
func (e *Engine) Discard() {
	if e.closed {
		return
	}
	e.closed = true
	e.app.stop()
	switch {
	case e.dur != nil:
		e.dur.snapWG.Wait()
		e.dur.store.Close()
	case e.win != nil:
		e.win.pages.Close()
	}
}

// Compact rebuilds the store's arenas into a dense Morton/DFS-ordered
// prefix and releases the tail capacity, behind the existing quiesce
// protocol: the applier drains, the rebuild runs under the tree write
// lock, and producers resume — no new lock scheme. It must be called
// from the mutator role (the same serialization Insert requires) and
// returns ErrClosed after Close. On a backend without the compaction
// capability (the grid never fragments) it is a no-op that reports no
// runs.
func (e *Engine) Compact() error {
	if e.closed {
		return ErrClosed
	}
	e.compact()
	return nil
}

// maybeCompact runs one compaction when the configured policy's
// fragmentation threshold is crossed. Callers must hold the mutator role
// with the applier quiescent (post-admit), so the stats read is stable.
func (e *Engine) maybeCompact() {
	if e.compactor == nil || !e.cfg.Compaction.Enabled() {
		return
	}
	if e.compactor.NeedsCompaction(e.cfg.Compaction) {
		e.compact()
	}
}

// compact drains the applier, then rebuilds the arenas under the tree
// write lock so no query can observe handles mid-move.
func (e *Engine) compact() {
	if e.compactor == nil {
		return
	}
	e.app.quiesce()
	t0 := time.Now()
	e.treeRW.Lock()
	cs := e.compactor.Compact()
	e.treeRW.Unlock()
	e.compaction.Runs++
	e.compaction.SlotsReclaimed += int64(cs.NodeSlotsReclaimed + cs.KidSlotsReclaimed)
	e.compaction.LastDuration = time.Since(t0)
}

// CompactionStats reports cumulative arena-compaction activity.
func (e *Engine) CompactionStats() CompactionStats { return e.compaction }

// LoadLeaf writes one (possibly aggregate) leaf into the engine's store,
// as emitted by a backend walk — the seam map loading is built on.
// Intended for freshly constructed engines; cells already cached for the
// leaf's voxels keep shadowing the loaded value until evicted. With a
// window armed, a leaf landing in a spilled tile reloads the tile first
// (the leaf overwrites only its own cube); a leaf coarser than a tile
// overwrites whole tiles, so any spilled frames it covers are simply
// dropped. Coarse-loaded regions stay resident until inserts touch
// their tiles, which is when they join the recency list.
func (e *Engine) LoadLeaf(l voxel.Leaf) error {
	if e.closed {
		return ErrClosed
	}
	e.app.quiesce()
	e.treeRW.Lock()
	defer e.treeRW.Unlock()
	if w := e.win; w != nil {
		if err := w.loadErr(); err != nil {
			return err
		}
		if l.Depth >= w.pol.TileDepth {
			t := w.tileOf(l.Key)
			if _, ok := w.spilled[t]; ok {
				if err := e.reloadTileLocked(t); err != nil {
					return err
				}
			} else {
				w.lru.Touch(t)
			}
		} else if w.spilledN.Load() > 0 {
			for t := range w.spilled {
				if voxel.TileOf(t, l.Depth, w.depth) == l.Key {
					w.pages.Release(t, w.pol.TileDepth)
					delete(w.spilled, t)
					w.spilledN.Add(-1)
				}
			}
		}
	}
	e.store.SetLeafAt(l.Key, l.Depth, l.LogOdds)
	return nil
}

// loadSnapshot replays every leaf of src into the engine's store. The
// snapshot's parameters must match the engine's so key spaces and the
// occupancy model agree.
func (e *Engine) loadSnapshot(src *Snapshot) error {
	if p := src.Params(); p != e.cfg.Octree {
		return fmt.Errorf("core: loaded snapshot params %+v differ from pipeline params %+v", p, e.cfg.Octree)
	}
	var err error
	src.Walk(func(l voxel.Leaf) bool {
		err = e.LoadLeaf(l)
		return err == nil
	})
	return err
}

func (e *Engine) Resolution() float64 { return e.cfg.Octree.Resolution }

// WalkLeaves streams the pipeline's complete contents: the store's
// leaves in ascending Morton order (applier drained first), then — with
// a window armed — every spilled tile's on-disk leaves (tiles in Morton
// order, leaves within a tile in Morton order), then every
// cache-resident cell as a finest-depth leaf. Cache cells hold
// *accumulated* occupancy — eviction overwrites the store entry — so a
// key can appear twice, store value first, authoritative cached value
// second; replaying the stream through SetLeafAt (Snapshot.Add)
// therefore converges to the live map's query answers. Spilled tiles
// never overlap resident content (a spilled tile leaves nothing behind),
// but interleaving store and disk would cost residency churn, so the
// whole-stream ascending-Morton property holds only for unwindowed
// maps; consume windowed streams by replay. After Close the cache is
// flushed and the stream is the ordered store walk plus spilled tiles.
func (e *Engine) WalkLeaves(fn func(voxel.Leaf) bool) {
	e.app.quiesce()
	e.treeRW.RLock()
	defer e.treeRW.RUnlock()
	stopped := false
	e.store.Walk(func(l voxel.Leaf) bool {
		if !fn(l) {
			stopped = true
			return false
		}
		return true
	})
	if stopped {
		return
	}
	if w := e.win; w != nil && w.spilledN.Load() > 0 {
		// Local buffer: WalkLeaves holds only the read lock, so concurrent
		// walkers must not share the window's mutator-side scratch. A read
		// failure sets the sticky error and ends the disk portion.
		var buf []voxel.Leaf
		for _, t := range w.pages.Tiles() {
			var err error
			buf, err = w.pages.Load(t.Key, t.Depth, buf[:0])
			if err != nil {
				w.setErr(err)
				return
			}
			for _, l := range buf {
				if !fn(l) {
					return
				}
			}
		}
	}
	if e.cache == nil {
		return
	}
	depth := e.cfg.Octree.Depth
	e.cache.Walk(func(c cache.Cell) bool {
		return fn(voxel.Leaf{Key: c.Key, Depth: depth, LogOdds: c.LogOdds})
	})
}

// Snapshot captures the pipeline's current contents — applied store
// leaves plus cache-resident cells — as a canonical, backend-neutral
// snapshot: the accessor that replaces the old raw Tree() escape
// hatch, answering exactly like the live map at any point in the
// stream.
func (e *Engine) Snapshot() *Snapshot {
	s := NewSnapshot(e.cfg.Octree)
	e.WalkLeaves(func(l voxel.Leaf) bool {
		s.Add(l)
		return true
	})
	return s
}

// WriteTo serializes the pipeline's contents in the .bt format.
// Backends that serialize directly (the octree) stream in place when
// nothing is parked in the cache (always true after Close) and nothing
// is spilled; otherwise the canonical snapshot path folds cached cells
// and spilled tiles in, producing identical bytes for content-equal
// maps either way — serialization is window-invariant.
func (e *Engine) WriteTo(w io.Writer) (int64, error) {
	if e.win != nil {
		if err := e.win.loadErr(); err != nil {
			return 0, err
		}
	}
	e.app.quiesce()
	e.treeRW.RLock()
	wt, ok := e.store.(io.WriterTo)
	if ok && (e.cache == nil || e.cache.Len() == 0) && (e.win == nil || e.win.spilledN.Load() == 0) {
		defer e.treeRW.RUnlock()
		return wt.WriteTo(w)
	}
	e.treeRW.RUnlock()
	n, err := e.Snapshot().WriteTo(w)
	if err == nil && e.win != nil {
		// A spilled-tile read failure inside the walk surfaces here
		// rather than silently serializing a partial map.
		err = e.win.loadErr()
	}
	return n, err
}

// ArenaStats snapshots the store's arena occupancy (zero-valued except
// for the footprint when the backend does not report arenas), draining
// the applier first so the counters are exact.
func (e *Engine) ArenaStats() ArenaStats {
	e.app.quiesce()
	s := ArenaStats{Bytes: e.store.MemoryBytes()}
	if ar, ok := e.store.(ArenaReporter); ok {
		s.LiveNodes, s.FreeSlots, s.Capacity = ar.ArenaStats()
	}
	return s
}

// NodeVisits reports the store's cumulative memory-touch count, or 0
// for backends without the capability.
func (e *Engine) NodeVisits() int64 {
	if vc, ok := e.store.(VisitCounter); ok {
		return vc.NodeVisits()
	}
	return 0
}

// MemoryBytes estimates the store's heap footprint.
func (e *Engine) MemoryBytes() int64 { return e.store.MemoryBytes() }

func (e *Engine) CacheLen() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.Len()
}

func (e *Engine) CacheStats() cache.Stats {
	if e.cache == nil {
		return cache.Stats{}
	}
	return e.cache.Stats()
}

// Timings merges the mutator-side stage decomposition with the stages
// accrued inside the applier (octree update, queue transfer) — the
// per-thread busy-time split the benchmark harness reports.
func (e *Engine) Timings() Timings {
	t := e.timings
	oct, enq, deq := e.app.timings()
	t.OctreeUpdate += oct
	t.Enqueue += enq
	t.Dequeue += deq
	return t
}

// WorkCounters returns the engine's cumulative work counts. All three
// counters accrue on the mutator side (VoxelsToOctree is counted at
// hand-off, before any async application), so the snapshot is exact for
// the single driver the mutator contract already requires and never
// waits on the applier.
func (e *Engine) WorkCounters() Counters { return e.timings.Counters() }

// applier is the pluggable octree-apply stage: it receives eviction (or
// direct-update) batches and guarantees, after quiesce, that every batch
// handed off so far is in the octree.
type applier interface {
	// apply hands one batch over, transferring ownership: the slice came
	// from the engine's buffer free list, and the implementation returns
	// it there (putBuf) once its cells are in the octree. The caller must
	// not touch the slice after apply.
	apply(cells []cache.Cell)
	// quiesce blocks until every handed-off batch has been applied.
	// Safe for concurrent callers.
	quiesce()
	// stop quiesces and shuts down background work. The applier must not
	// be used for apply afterwards; quiesce remains callable.
	stop()
	// timings reports the stage durations accrued inside the applier.
	timings() (octreeUpdate, enqueue, dequeue time.Duration)
}

// inlineApplier applies batches on the caller's goroutine: the serial
// compositions, where the octree update stays on the critical path
// (cached: Figure 11/13a; direct: Figure 4).
type inlineApplier struct {
	e        *Engine
	octreeNS time.Duration
}

func (a *inlineApplier) apply(cells []cache.Cell) {
	t0 := time.Now()
	a.e.writeCells(cells)
	a.octreeNS += time.Since(t0)
	a.e.putBuf(cells)
}

func (a *inlineApplier) quiesce() {}
func (a *inlineApplier) stop()    {}

func (a *inlineApplier) timings() (time.Duration, time.Duration, time.Duration) {
	return a.octreeNS, 0, 0
}

// parallelQueueCap sizes the shared eviction buffer, in batches: the
// SPSC ring carries whole batch slices, so the cap bounds in-flight
// eviction batches (each recycling through the engine's buffer free
// list), not cells. Tests shrink it to stress the hand-off under a tiny
// ring.
var parallelQueueCap = 1 << 16

// asyncApplier is the paper's thread 2 (Figure 14): a dedicated
// goroutine dequeues batches from the SPSC buffer and writes them into
// the octree under the engine's tree write lock. The handshake follows
// the paper — each batch is announced (counter) before it becomes
// visible to the worker, and quiesce implements the batch gap: it
// returns only once applied catches up with announced.
//
// The SPSC ring carries whole batch slices, one element per hand-off, so
// the transfer is a single enqueue instead of a per-cell copy and the
// slice recycles through the engine's buffer free list once applied
// (batch capacity is bounded by parallelQueueCap, so the free list, and
// with it steady-state memory, stays bounded too). The batchCh doorbell
// wakes the worker without it spinning on an empty ring and doubles as
// the shutdown signal.
//
// Unlike the seed's channel-ack scheme, completion is tracked with an
// atomic counter plus a condition variable so any number of concurrent
// query goroutines can wait for the gap at once — which is what lets the
// shard service run queries under a shared lock.
type asyncApplier struct {
	e       *Engine
	queue   *spsc.Queue[[]cache.Cell]
	batchCh chan struct{} // doorbell: one token per enqueued batch

	mu        sync.Mutex
	cond      *sync.Cond
	announced atomic.Int64 // batches handed off (mutator-side)
	applied   atomic.Int64 // batches fully in the octree (worker-side)

	wg        sync.WaitGroup
	enqueueNS time.Duration // mutator-side
	t2Octree  atomic.Int64  // ns spent in octree updates on the worker
	t2Dequeue atomic.Int64  // ns spent dequeuing on the worker
}

func newAsyncApplier(e *Engine) *asyncApplier {
	a := &asyncApplier{
		e:       e,
		queue:   spsc.New[[]cache.Cell](parallelQueueCap),
		batchCh: make(chan struct{}, parallelQueueCap),
	}
	a.cond = sync.NewCond(&a.mu)
	a.wg.Add(1)
	go a.run()
	return a
}

// run is the worker: one batch at a time, dequeue then apply under the
// tree write lock, then recycle the buffer.
func (a *asyncApplier) run() {
	defer a.wg.Done()
	for range a.batchCh {
		t0 := time.Now()
		buf := a.queue.Dequeue()
		a.t2Dequeue.Add(int64(time.Since(t0)))

		a.e.treeRW.Lock()
		t0 = time.Now()
		a.e.writeCells(buf)
		a.t2Octree.Add(int64(time.Since(t0)))
		a.e.treeRW.Unlock()
		a.e.putBuf(buf)

		a.mu.Lock()
		a.applied.Add(1)
		a.cond.Broadcast()
		a.mu.Unlock()
	}
}

func (a *asyncApplier) apply(cells []cache.Cell) {
	if len(cells) == 0 {
		a.e.putBuf(cells)
		return
	}
	// Announce first so a concurrent quiesce that starts now waits for
	// this batch; then make it visible (enqueue before the doorbell, so
	// the worker never sees the token without the batch).
	a.announced.Add(1)
	t0 := time.Now()
	a.queue.Enqueue(cells)
	a.enqueueNS += time.Since(t0)
	a.batchCh <- struct{}{}
}

func (a *asyncApplier) quiesce() {
	target := a.announced.Load()
	if a.applied.Load() >= target {
		return
	}
	a.mu.Lock()
	for a.applied.Load() < target {
		a.cond.Wait()
	}
	a.mu.Unlock()
}

func (a *asyncApplier) stop() {
	a.quiesce()
	close(a.batchCh)
	a.wg.Wait()
}

func (a *asyncApplier) timings() (time.Duration, time.Duration, time.Duration) {
	return time.Duration(a.t2Octree.Load()), a.enqueueNS, time.Duration(a.t2Dequeue.Load())
}

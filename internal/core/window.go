package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"octocache/internal/cache"
	"octocache/internal/durable"
	"octocache/internal/geom"
	"octocache/internal/raytrace"
	"octocache/internal/voxel"
)

// ErrPager marks window paging failures: spill or reload I/O errors and
// CRC mismatches surface on Insert/Recenter/WriteTo as wrapped errors
// satisfying errors.Is(err, ErrPager). Once set the error is sticky —
// the on-disk working set may be incomplete, so the map stops accepting
// observations rather than silently dropping spilled regions.
var ErrPager = errors.New("octocache: window pager failure")

// Window is the bounded-memory policy: an ego-centric window of resident
// tiles that recenters with the sensor and spills everything else to
// disk. The zero value disables windowing.
//
// A tile is an aligned cube of the subdivision hierarchy at TileDepth —
// 2^(depth−TileDepth) voxels per axis (see voxel.TileOf). The window
// keeps every tile within Chebyshev distance Radius of the tile holding
// the last insert origin; tiles drifting out of the window are evicted
// through the pager inside the same quiesce protocol compaction uses,
// and spilled tiles page back in transparently when an insert, query, or
// ray touches them.
type Window struct {
	// Radius is the window half-width in tiles: tiles with Chebyshev
	// distance ≤ Radius from the center tile stay resident — a cube of
	// (2·Radius+1)³ tiles. Radius ≥ 1 enables windowing.
	Radius int
	// TileDepth sets tile granularity: the subdivision depth whose cubes
	// are the spill unit. Must lie in [1, depth−3] so a tile spans at
	// least one grid brick (8³ voxels); 0 selects depth−6 (64 voxels per
	// axis), clamped into range.
	TileDepth int
	// Dir is the directory holding the map's spill log. Required when
	// windowing is enabled unless a Durable policy supplies the directory
	// (spill frames and the WAL share one log); created if absent.
	Dir string
	// MaxResidentTiles additionally caps resident tiles regardless of
	// window membership: when exceeded, least-recently-touched in-window
	// tiles (never the center tile) spill too. 0 means no cap.
	MaxResidentTiles int
	// MaxEvictPerCycle bounds tiles evicted per recenter evaluation, so
	// a long drift spreads its spill cost over several batches instead
	// of one long pause. 0 selects the default (8).
	MaxEvictPerCycle int
}

// Enabled reports whether the policy actually windows the map.
func (w Window) Enabled() bool { return w.Radius > 0 }

// Validate checks the policy against a map's key-space depth.
func (w Window) Validate(depth int) error {
	if w.Radius < 0 {
		return fmt.Errorf("core: Window.Radius must be >= 0 (0 disables windowing), got %d", w.Radius)
	}
	if !w.Enabled() {
		return nil
	}
	if w.Dir == "" {
		return fmt.Errorf("core: Window.Dir is required when windowing is enabled")
	}
	if depth < 4 {
		return fmt.Errorf("core: windowing needs map depth >= 4, got %d", depth)
	}
	if w.TileDepth != 0 && (w.TileDepth < 1 || w.TileDepth > depth-3) {
		return fmt.Errorf("core: Window.TileDepth must be in [1, %d] (tiles span at least one 8³ brick), got %d",
			depth-3, w.TileDepth)
	}
	if w.MaxResidentTiles < 0 {
		return fmt.Errorf("core: Window.MaxResidentTiles must be >= 0, got %d", w.MaxResidentTiles)
	}
	if w.MaxEvictPerCycle < 0 {
		return fmt.Errorf("core: Window.MaxEvictPerCycle must be >= 0, got %d", w.MaxEvictPerCycle)
	}
	return nil
}

// withDefaults resolves the zero-value knobs for a map of this depth.
func (w Window) withDefaults(depth int) Window {
	if w.TileDepth == 0 {
		w.TileDepth = depth - 6
		if w.TileDepth < 1 {
			w.TileDepth = 1
		}
	}
	if w.TileDepth > depth-3 {
		w.TileDepth = depth - 3
	}
	if w.MaxEvictPerCycle == 0 {
		w.MaxEvictPerCycle = 8
	}
	return w
}

// WindowStats reports a windowed map's paging activity. The sharded
// service aggregates per-shard stats with Add.
type WindowStats struct {
	// Enabled mirrors the policy: false means the map is unwindowed and
	// every other field is zero.
	Enabled bool `json:"enabled"`
	// ResidentTiles and SpilledTiles split the map's observed tiles by
	// where they live right now.
	ResidentTiles int `json:"resident_tiles"`
	SpilledTiles  int `json:"spilled_tiles"`
	// Evictions and Reloads count tile spills and transparent page-ins
	// over the map's lifetime.
	Evictions int64 `json:"evictions"`
	Reloads   int64 `json:"reloads"`
	// BytesOnDisk is the tile file's current size.
	BytesOnDisk int64 `json:"bytes_on_disk"`
	// MaxPause is the longest single eviction stop-the-world window —
	// the quiesce-protocol pause bound MaxEvictPerCycle trades against.
	// It marshals as nanoseconds.
	MaxPause time.Duration `json:"max_pause_ns"`
}

// Add returns the field-wise aggregate of two snapshots (sums, with
// MaxPause as the maximum) — per-shard stats fold into a map-level view.
func (s WindowStats) Add(o WindowStats) WindowStats {
	out := WindowStats{
		Enabled:       s.Enabled || o.Enabled,
		ResidentTiles: s.ResidentTiles + o.ResidentTiles,
		SpilledTiles:  s.SpilledTiles + o.SpilledTiles,
		Evictions:     s.Evictions + o.Evictions,
		Reloads:       s.Reloads + o.Reloads,
		BytesOnDisk:   s.BytesOnDisk + o.BytesOnDisk,
		MaxPause:      s.MaxPause,
	}
	if o.MaxPause > out.MaxPause {
		out.MaxPause = o.MaxPause
	}
	return out
}

// Evictor is the optional Backend capability windowed maps require: the
// store can detach one tile — the aligned cube at tileDepth containing
// corner — as a canonical leaf run (exactly its Walk emission for that
// cube, ascending Morton) while deleting it from the resident structure.
// Reinstalling the run through SetLeafAt must restore identical content;
// the octree re-prunes to its canonical structure, the grid re-hashes
// its bricks.
type Evictor interface {
	EvictTile(corner voxel.Key, tileDepth int, dst []voxel.Leaf) []voxel.Leaf
}

// windowState is an engine's windowing machinery. All fields are guarded
// by the engine's mutator serialization plus treeRW (the spilled set and
// LRU mutate only under treeRW.Lock, and query paths read them under
// RLock), except the sticky error, which query walks may set while
// holding only the read lock and therefore has its own mutex.
type windowState struct {
	pol   Window
	depth int
	pages *durable.Store
	lru   *durable.LRU
	// spilled is the authoritative set of on-disk tiles; spilledN mirrors
	// its size atomically so hot paths can skip all window work with one
	// load when nothing is spilled.
	spilled  map[voxel.Key]struct{}
	spilledN atomic.Int64
	center   voxel.Key
	centered bool

	evictions int64
	reloads   int64
	maxPause  time.Duration

	hasErr atomic.Bool
	errMu  sync.Mutex
	err    error

	// Mutator-side scratch, reused across cycles so steady-state inserts
	// stay allocation-free.
	leafBuf []voxel.Leaf
	cellBuf []cache.Cell
	victims []voxel.Key
}

// newWindowState attaches windowing to the engine's durable store — the
// engine opens one store per pipeline (tagged within the directory so
// sharded maps keep one log per shard) and the window spills tile frames
// into it, alongside any WAL frames a Durable policy appends.
func newWindowState(pol Window, depth int, store *durable.Store) *windowState {
	return &windowState{
		pol:     pol.withDefaults(depth),
		depth:   depth,
		pages:   store,
		lru:     durable.NewLRU(),
		spilled: make(map[voxel.Key]struct{}),
	}
}

// setErr records the first pager failure; later ones are dropped.
func (w *windowState) setErr(err error) {
	w.errMu.Lock()
	if w.err == nil {
		w.err = fmt.Errorf("%w: %v", ErrPager, err)
		w.hasErr.Store(true)
	}
	w.errMu.Unlock()
}

// loadErr returns the sticky error. The atomic guard keeps the healthy
// fast path lock-free.
func (w *windowState) loadErr() error {
	if !w.hasErr.Load() {
		return nil
	}
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

func (w *windowState) tileOf(k voxel.Key) voxel.Key {
	return voxel.TileOf(k, w.pol.TileDepth, w.depth)
}

// ensureResident makes every tile the traced batch touches resident
// (reloading spilled ones) and marks them recently used. It must run
// before the batch reaches the cache or store: cache admission seeds
// accumulation from the store on a miss, so touching a spilled tile
// would silently restart its voxels from unknown. Called from the
// mutator role; when nothing is spilled it is one atomic load plus an
// LRU touch per tile run.
func (e *Engine) ensureResident(batch []raytrace.Voxel) error {
	w := e.win
	spilled := w.spilledN.Load() > 0
	var last voxel.Key
	have := false
	for _, v := range batch {
		t := w.tileOf(v.Key)
		if have && t == last {
			continue // traced voxels arrive in runs within one tile
		}
		last, have = t, true
		if spilled {
			if _, ok := w.spilled[t]; ok {
				if err := e.reloadTile(t); err != nil {
					return err
				}
				spilled = w.spilledN.Load() > 0
				continue
			}
		}
		w.lru.Touch(t)
	}
	return nil
}

// reloadTile pages one spilled tile back in under the tree write lock.
// Mutator role only; the applier must already be quiescent or is
// quiesced here.
func (e *Engine) reloadTile(t voxel.Key) error {
	e.app.quiesce()
	e.treeRW.Lock()
	err := e.reloadTileLocked(t)
	e.treeRW.Unlock()
	return err
}

// reloadTileLocked is reloadTile for callers already holding treeRW.
func (e *Engine) reloadTileLocked(t voxel.Key) error {
	w := e.win
	if _, ok := w.spilled[t]; !ok {
		return nil // lost a race with another reloader
	}
	var err error
	w.leafBuf, err = w.pages.Load(t, w.pol.TileDepth, w.leafBuf[:0])
	if err != nil {
		w.setErr(err)
		return w.loadErr()
	}
	for _, l := range w.leafBuf {
		e.store.SetLeafAt(l.Key, l.Depth, l.LogOdds)
	}
	w.pages.Release(t, w.pol.TileDepth)
	delete(w.spilled, t)
	w.spilledN.Add(-1)
	w.reloads++
	w.lru.Touch(t)
	return nil
}

// maybeRecenter moves the window to the tile containing origin and
// evicts whatever fell outside. Runs at the tail of every Insert, in the
// mutator role with the applier quiescent.
func (e *Engine) maybeRecenter(origin geom.Vec3) error {
	w := e.win
	k, ok := voxel.CoordToKey(origin, e.cfg.Octree.Resolution, e.cfg.Octree.Depth)
	if ok {
		t := w.tileOf(k)
		if !w.centered || t != w.center {
			w.center = t
			w.centered = true
		}
	}
	return e.evictOutOfWindow()
}

// evictOutOfWindow spills tiles outside the window (and, under a
// MaxResidentTiles cap, the least-recently-touched in-window tiles),
// oldest first, bounded by MaxEvictPerCycle per call. The fast path —
// every tile in-window and under the cap — is a pure LRU scan.
func (e *Engine) evictOutOfWindow() error {
	w := e.win
	if !w.centered {
		return nil
	}
	w.victims = w.victims[:0]
	over := 0
	if w.pol.MaxResidentTiles > 0 {
		over = w.lru.Len() - w.pol.MaxResidentTiles
	}
	for it := w.lru.IterOldest(); ; {
		t, ok := it.Next()
		if !ok || len(w.victims) >= w.pol.MaxEvictPerCycle {
			break
		}
		out := voxel.TileDist(t, w.center, w.pol.TileDepth, w.depth) > w.pol.Radius
		if !out && over > len(w.victims) && t != w.center {
			out = true // over the resident cap: spill oldest in-window tiles too
		}
		if out {
			w.victims = append(w.victims, t)
		}
	}
	if len(w.victims) == 0 {
		return nil
	}
	return e.evictTiles(w.victims)
}

// evictTiles spills the given resident tiles inside one quiesce window:
// the applier drains, then under the tree write lock each tile's cache
// cells are folded into the store, its subtree detaches as a canonical
// leaf run, and the run is appended to the tile file. The whole stop is
// timed into MaxPause — the pause bound MaxEvictPerCycle trades against.
// A spill failure reinstalls the detached run (no data loss) and sets
// the sticky error.
func (e *Engine) evictTiles(tiles []voxel.Key) error {
	w := e.win
	e.app.quiesce()
	t0 := time.Now()
	e.treeRW.Lock()
	var err error
	for _, t := range tiles {
		tile := t
		if e.cache != nil {
			// A spilled tile must leave no cache cells behind: cells carry
			// accumulated values, so fold them into the store first and
			// let the detached run carry them to disk.
			w.cellBuf = e.cache.Drain(w.cellBuf[:0], func(k voxel.Key) bool {
				return w.tileOf(k) == tile
			})
			for _, c := range w.cellBuf {
				e.store.SetCell(c.Key, c.LogOdds)
			}
		}
		w.leafBuf = e.evictor.EvictTile(tile, w.pol.TileDepth, w.leafBuf[:0])
		w.lru.Remove(tile)
		if len(w.leafBuf) == 0 {
			continue // tile held nothing; forget it instead of spilling
		}
		if serr := w.pages.Spill(tile, w.pol.TileDepth, w.leafBuf); serr != nil {
			// Put the content back so the resident map stays complete.
			for _, l := range w.leafBuf {
				e.store.SetLeafAt(l.Key, l.Depth, l.LogOdds)
			}
			w.lru.Touch(tile)
			w.setErr(serr)
			err = w.loadErr()
			break
		}
		w.spilled[tile] = struct{}{}
		w.spilledN.Add(1)
		w.evictions++
	}
	e.treeRW.Unlock()
	if pause := time.Since(t0); pause > w.maxPause {
		w.maxPause = pause
	}
	return err
}

// pageInForQuery reloads the tile containing k if it is spilled, for a
// query path that found the window armed. Queries run concurrently with
// each other, so the spilled check happens under the read lock and the
// reload re-checks under the write lock.
func (e *Engine) pageInForQuery(k voxel.Key) error {
	w := e.win
	t := w.tileOf(k)
	e.treeRW.RLock()
	_, hit := w.spilled[t]
	e.treeRW.RUnlock()
	if !hit {
		return nil
	}
	return e.reloadTile(t)
}

// Recenter moves the window to the tile containing origin and evicts
// out-of-window tiles — the explicit form of the recentering every
// Insert performs. A mutator call; a no-op without a Window policy.
// Returns ErrClosed after Close and any sticky pager error.
func (e *Engine) Recenter(origin geom.Vec3) error {
	if e.closed {
		return ErrClosed
	}
	if e.win == nil {
		return nil
	}
	if err := e.win.loadErr(); err != nil {
		return err
	}
	e.app.quiesce()
	return e.maybeRecenter(origin)
}

// WindowStats snapshots paging activity; zero without a Window policy.
func (e *Engine) WindowStats() WindowStats {
	if e.win == nil {
		return WindowStats{}
	}
	w := e.win
	e.app.quiesce()
	e.treeRW.RLock()
	s := WindowStats{
		Enabled:       true,
		ResidentTiles: w.lru.Len(),
		SpilledTiles:  len(w.spilled),
		Evictions:     w.evictions,
		Reloads:       w.reloads,
		BytesOnDisk:   w.pages.BytesOnDisk(),
		MaxPause:      w.maxPause,
	}
	e.treeRW.RUnlock()
	return s
}

// WindowErr returns the sticky pager error, if any.
func (e *Engine) WindowErr() error {
	if e.win == nil {
		return nil
	}
	return e.win.loadErr()
}

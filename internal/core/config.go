// Package core assembles the substrates into the paper's mapping
// pipelines — the primary contribution of OctoCache:
//
//   - OctoMap: the vanilla baseline (Figure 4). Ray tracing feeds every
//     traced voxel straight into the octree; queries wait for the whole
//     octree update.
//   - Serial OctoCache (Figure 11/13a): ray tracing feeds the flat cache;
//     queries are served right after the fast cache insertion; evicted
//     voxels then update the octree in (near-)Morton order.
//   - Parallel OctoCache (Figure 13b/14): the octree update moves to a
//     second goroutine behind a shared SPSC buffer, overlapping it with
//     the next batch's ray tracing and cache eviction. A single mutex
//     keeps octree readers and the octree writer mutually exclusive.
//
// Every pipeline has an -RT variant that uses deduplicating ray tracing
// (the OctoMap-RT substitute). All pipelines expose the same query API
// and — by the cache's accumulated-occupancy discipline — return
// bit-identical occupancy answers, verified by the consistency tests.
package core

import (
	"fmt"

	"octocache/internal/cache"
	"octocache/internal/octree"
	"octocache/internal/raytrace"
)

// CompactionPolicy re-exports the octree's automatic-compaction trigger
// so layered packages configure it without importing the storage
// package.
type CompactionPolicy = octree.CompactionPolicy

// TraceMode re-exports the scan-tracing algorithm selector so layered
// packages configure it without importing the trace package.
type TraceMode = raytrace.Mode

const (
	// TraceDDA marches every ray voxel-by-voxel (the default).
	TraceDDA = raytrace.ModeDDA
	// TraceBoundary rasterizes the scan's free space once per batch from
	// the measured surface; batches come out deduplicated (occupied
	// observations win), set-equal to TraceDDA with RT enabled.
	TraceBoundary = raytrace.ModeBoundary
)

// Config configures any of the mapping pipelines.
type Config struct {
	// Octree holds the map resolution and the occupancy sensor model.
	// The name is historical: every backend shares this model.
	Octree octree.Params
	// Backend selects the voxel store behind the pipeline; the zero
	// value is BackendOctree.
	Backend BackendKind
	// MaxRange truncates sensor rays (meters); 0 disables truncation.
	MaxRange float64
	// CacheBuckets is w. The paper's UAV experiments use 512K buckets;
	// construction experiments size the cache at 3–4x the per-batch
	// distinct-voxel count.
	CacheBuckets int
	// CacheTau is τ, the post-eviction bucket depth (paper default 4).
	CacheTau int
	// CacheIndex selects hash (strawman §4.2) or Morton (§4.3) bucket
	// indexing.
	CacheIndex cache.IndexMode
	// EvictOrder selects the eviction batch ordering.
	EvictOrder cache.EvictOrder
	// RT enables deduplicating ray tracing (the OctoMap-RT method).
	// TraceBoundary batches are deduplicated regardless.
	RT bool
	// Trace selects the scan-tracing algorithm: TraceDDA (default)
	// marches per ray, TraceBoundary rasterizes per batch.
	Trace TraceMode
	// TraceWorkers fans the trace stage across this many goroutines per
	// scan; 0 or 1 traces serially. The fan preserves batch order (DDA)
	// and bit-union determinism (boundary), so results are identical at
	// any worker count — but the per-call join state allocates, so the
	// zero-allocation insert gate only holds at 0 or 1.
	TraceWorkers int
	// Compaction triggers automatic octree arena compaction: after a
	// batch is integrated, a pipeline whose arena crosses the policy's
	// fragmentation threshold is compacted behind the applier quiesce.
	// The zero value disables automatic compaction; explicit Compact
	// calls always run. Backends without the Compactor capability (the
	// grid) ignore the policy.
	Compaction octree.CompactionPolicy
	// Window bounds resident memory: tiles outside an ego-centric window
	// spill to disk through internal/durable and page back in on touch.
	// The zero value keeps the whole map resident.
	Window Window
	// Durable makes the map crash-recoverable: admitted batches are
	// logged before apply and consistent-cut snapshots bound replay. When
	// both Window and Durable are enabled they share one log (Window.Dir
	// may be left empty to inherit Durable.Dir). The zero value disables
	// durability.
	Durable Durable
	// DurableRecover restores the map from Durable.Dir at construction —
	// last snapshot plus surviving log replay — instead of starting
	// empty. Requires Durable to be enabled.
	DurableRecover bool
	// Tag names this pipeline's log (and snapshot) within the store
	// directory (default "map"). The shard service sets a per-shard tag
	// so sharded maps keep one log per shard.
	Tag string
}

// DefaultConfig returns a configuration with OctoMap's default sensor
// model at the given resolution and the paper's cache defaults.
func DefaultConfig(resolution float64) Config {
	return Config{
		Octree:       octree.DefaultParams(resolution),
		CacheBuckets: 512 << 10,
		CacheTau:     4,
		CacheIndex:   cache.MortonIndex,
		EvictOrder:   cache.OrderBucketScan,
	}
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.Octree.Validate(); err != nil {
		return err
	}
	if c.CacheBuckets < 1 {
		return fmt.Errorf("core: CacheBuckets must be >= 1, got %d", c.CacheBuckets)
	}
	if c.CacheTau < 1 {
		return fmt.Errorf("core: CacheTau must be >= 1, got %d", c.CacheTau)
	}
	if c.Backend != BackendOctree && c.Backend != BackendGrid {
		return fmt.Errorf("core: unknown backend %v", c.Backend)
	}
	if c.Trace != TraceDDA && c.Trace != TraceBoundary {
		return fmt.Errorf("core: unknown trace mode %v", c.Trace)
	}
	if c.TraceWorkers < 0 {
		return fmt.Errorf("core: TraceWorkers must be >= 0, got %d", c.TraceWorkers)
	}
	if err := c.Durable.Validate(); err != nil {
		return err
	}
	if c.DurableRecover && !c.Durable.Enabled() {
		return fmt.Errorf("core: DurableRecover requires a Durable policy")
	}
	win := c.Window
	if win.Enabled() && c.Durable.Enabled() {
		// Spill frames and the WAL share one log, so the two policies must
		// agree on the directory; an empty Window.Dir inherits Durable's.
		if win.Dir == "" {
			win.Dir = c.Durable.Dir
		} else if win.Dir != c.Durable.Dir {
			return fmt.Errorf("core: Window.Dir %q and Durable.Dir %q must match (the spill file and WAL share one log); leave Window.Dir empty to inherit",
				win.Dir, c.Durable.Dir)
		}
	}
	if err := win.Validate(c.Octree.Depth); err != nil {
		return err
	}
	return c.Compaction.Validate()
}

// NewScanner constructs the configured trace stage — the one place the
// pipelines and the shard router derive a Scanner from a Config.
func (c Config) NewScanner() raytrace.Scanner {
	return raytrace.New(raytrace.Config{
		Resolution: c.Octree.Resolution,
		Depth:      c.Octree.Depth,
		MaxRange:   c.MaxRange,
	}, c.Trace, c.TraceWorkers)
}

func (c Config) cacheConfig() cache.Config {
	return cache.Config{
		Buckets:   c.CacheBuckets,
		Tau:       c.CacheTau,
		Index:     c.CacheIndex,
		Order:     c.EvictOrder,
		Occupancy: c.Octree,
	}
}

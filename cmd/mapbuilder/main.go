// Command mapbuilder builds a 3D occupancy map from one of the synthetic
// scan datasets using a selected pipeline, prints the runtime
// decomposition and cache statistics, and optionally serializes the
// resulting octree — the "3D environment construction" task of §5.2 as a
// standalone tool.
//
// Usage:
//
//	mapbuilder -dataset fr079 -pipeline parallel -res 0.1 -scale 0.5
//	mapbuilder -dataset campus -pipeline octomap -rt -out campus.ot
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"octocache"
	"octocache/internal/core"
	"octocache/internal/dataset"
	"octocache/internal/viz"
)

func main() {
	var (
		dsName    = flag.String("dataset", "fr079", "dataset: fr079, campus, or newcollege")
		pipeline  = flag.String("pipeline", "parallel", "pipeline: octomap, serial, parallel, voxelcache, or naive")
		res       = flag.Float64("res", 0.1, "mapping resolution in meters")
		scale     = flag.Float64("scale", 0.5, "dataset scale (1.0 = paper-sized)")
		rt        = flag.Bool("rt", false, "use deduplicating (OctoMap-RT style) ray tracing")
		trace     = flag.String("trace", "dda", "scan tracing: dda (per-ray marching) or boundary (per-batch rasterization)")
		traceW    = flag.Int("trace-workers", 0, "goroutines per scan for the trace stage (0 = serial)")
		backend   = flag.String("backend", "octree", "voxel store backend: octree or grid")
		tau       = flag.Int("tau", 4, "cache bucket depth τ")
		buckets   = flag.Int("buckets", 0, "cache bucket count w (0 = auto-size at 3.5x batch distinct voxels)")
		out       = flag.String("out", "", "write the finished octree to this file")
		slice     = flag.String("slice", "", "write a horizontal PGM slice of the map to this file")
		sliceZ    = flag.Float64("slicez", 1.2, "slice height in meters")
		winRadius = flag.Int("window-radius", 0, "bounded-memory window radius in tiles (0 = unbounded)")
		winDir    = flag.String("window-dir", "", "spill directory for evicted tiles (default: a temp dir)")
		durDir    = flag.String("durable-dir", "", "write-ahead log + snapshot directory; recovers any map found there (empty = not durable)")
		syncPol   = flag.String("sync", "none", "WAL sync policy: none (page cache) or batch (fsync per scan)")
	)
	flag.Parse()

	kind, ok := map[string]core.Kind{
		"octomap":    core.KindOctoMap,
		"serial":     core.KindSerial,
		"parallel":   core.KindParallel,
		"voxelcache": core.KindVoxelCache,
		"naive":      core.KindNaive,
	}[*pipeline]
	if !ok {
		fmt.Fprintf(os.Stderr, "mapbuilder: unknown pipeline %q\n", *pipeline)
		os.Exit(1)
	}

	fmt.Printf("generating dataset %s (scale %.2f)...\n", *dsName, *scale)
	ds, err := dataset.Named(*dsName, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapbuilder:", err)
		os.Exit(1)
	}
	fmt.Printf("  %d scans, %d points\n", len(ds.Scans), ds.TotalPoints())

	cfg := core.DefaultConfig(*res)
	cfg.Backend, err = octocache.ParseBackend(*backend)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapbuilder:", err)
		os.Exit(1)
	}
	cfg.MaxRange = ds.Sensor.MaxRange
	cfg.RT = *rt
	cfg.Trace, err = octocache.ParseTraceMode(*trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapbuilder:", err)
		os.Exit(1)
	}
	cfg.TraceWorkers = *traceW
	cfg.CacheTau = *tau
	if *buckets > 0 {
		cfg.CacheBuckets = *buckets
	} else {
		cfg.CacheBuckets = 1 << 15
	}
	if *winRadius > 0 {
		dir := *winDir
		if dir == "" {
			dir, err = os.MkdirTemp("", "mapbuilder-window")
			if err != nil {
				fmt.Fprintln(os.Stderr, "mapbuilder:", err)
				os.Exit(1)
			}
			defer os.RemoveAll(dir)
		}
		cfg.Window = core.Window{Radius: *winRadius, Dir: dir}
		fmt.Printf("bounded-memory window: radius %d tiles, spilling to %s\n", *winRadius, dir)
	}
	if *durDir != "" {
		sp, err := octocache.ParseSyncPolicy(*syncPol)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapbuilder:", err)
			os.Exit(1)
		}
		cfg.Durable = core.Durable{Dir: *durDir, Sync: sp}
		// Resume the log if one is already there, else start fresh.
		single, _, err := octocache.ScanDurableDir(*durDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapbuilder:", err)
			os.Exit(1)
		}
		cfg.DurableRecover = single
	}
	m, err := core.New(kind, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mapbuilder:", err)
		os.Exit(1)
	}
	// The window and durability reports live on the concrete engine; the
	// two comparison baselines support neither policy.
	eng, _ := m.(*core.Engine)
	if eng != nil && cfg.Durable.Enabled() {
		if ds := eng.DurableStats(); ds.ReplayedBatches > 0 || ds.LastSnapshotSeq > 0 {
			fmt.Printf("recovered durable map from %s: replayed %d WAL batches over snapshot cut %d\n",
				*durDir, ds.ReplayedBatches, ds.LastSnapshotSeq)
		} else {
			fmt.Printf("durable map: logging to %s (sync=%s)\n", *durDir, *syncPol)
		}
	}

	fmt.Printf("building map with %s at %.2fm resolution...\n", m.Name(), *res)
	start := time.Now()
	for _, s := range ds.Scans {
		m.Insert(s.Origin, s.Points)
	}
	m.Close()
	wall := time.Since(start)

	tm := m.Timings()
	fmt.Printf("\nconstruction wall time: %.3fs over %d batches\n", wall.Seconds(), tm.Batches)
	fmt.Printf("  ray tracing:   %8.3fs\n", tm.RayTracing.Seconds())
	fmt.Printf("  cache insert:  %8.3fs\n", tm.CacheInsert.Seconds())
	fmt.Printf("  cache evict:   %8.3fs\n", tm.CacheEvict.Seconds())
	fmt.Printf("  octree update: %8.3fs\n", tm.OctreeUpdate.Seconds())
	fmt.Printf("  enqueue/dequeue: %.3fs / %.3fs\n", tm.Enqueue.Seconds(), tm.Dequeue.Seconds())
	fmt.Printf("  thread-1 wait: %8.3fs\n", tm.Wait.Seconds())
	fmt.Printf("voxels traced: %d, reached octree: %d (%.1f%% absorbed)\n",
		tm.VoxelsTraced, tm.VoxelsToOctree,
		100*(1-float64(tm.VoxelsToOctree)/float64(max64(tm.VoxelsTraced, 1))))
	if cs := m.CacheStats(); cs.Inserts > 0 {
		fmt.Printf("cache: %.1f%% hit rate (%d hits / %d inserts), %d evicted\n",
			100*cs.HitRate(), cs.Hits, cs.Inserts, cs.Evicted)
	}
	if eng != nil {
		if ws := eng.WindowStats(); ws.Enabled {
			fmt.Printf("window: %d tiles resident, %d spilled (%.1f MB on disk), %d evictions, %d reloads, max pause %v\n",
				ws.ResidentTiles, ws.SpilledTiles, float64(ws.BytesOnDisk)/(1<<20),
				ws.Evictions, ws.Reloads, ws.MaxPause)
		}
		if ds := eng.DurableStats(); ds.Enabled {
			fmt.Printf("durable: %d WAL batches logged (%.1f MB on disk), %d snapshots, durable through seq %d\n",
				ds.WALBatches, float64(ds.BytesOnDisk)/(1<<20), ds.Snapshots, ds.Seq)
		}
	}
	snap := m.Snapshot()
	fmt.Printf("map (%s backend): %d nodes, %d leaves, ~%.1f MB\n",
		cfg.Backend, snap.NumNodes(), snap.NumLeaves(), float64(snap.MemoryBytes())/(1<<20))

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapbuilder:", err)
			os.Exit(1)
		}
		n, err := snap.WriteTo(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapbuilder:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d bytes)\n", *out, n)
	}
	if *slice != "" {
		bounds := ds.World.Bounds
		s := viz.Sample(snap, bounds.Min, bounds.Max, *sliceZ,
			*res, cfg.Octree.OccupancyThreshold)
		f, err := os.Create(*slice)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapbuilder:", err)
			os.Exit(1)
		}
		err = s.WritePGM(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "mapbuilder:", err)
			os.Exit(1)
		}
		un, fr, oc := s.Counts()
		fmt.Printf("wrote slice %s at z=%.2f (%d occupied / %d free / %d unknown cells)\n",
			*slice, *sliceZ, oc, fr, un)
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"octocache"
	"octocache/internal/core"
	"octocache/internal/dataset"
	"octocache/internal/geom"
	"octocache/internal/raytrace"
	"octocache/internal/shard"
	"octocache/internal/voxel"
)

// traceResult is what one traced run reports.
type traceResult struct {
	scans, attempted, failed int
	metrics                  map[string]metricValue
}

// tracer runs the per-layer attribution for one workload. Nothing
// inside the program is instrumented, so it feeds the same scan stream
// to a ladder of twins, each entering the system one layer deeper —
//
//	client.Insert+Flush -> octocache.Map.Insert -> shard.Map.Insert ->
//	core.Mapper.Insert (the workload's kind, then KindSerial) ->
//	the layer replay (Scanner.Trace, cache.Insert, cache.Evict, SetCell)
//
// one twin at a time so each keeps its own pipeline dynamics (applier
// overlap, cache state), recording a span per scan. A level's self time
// is its span minus the span of the level below for the same scan id.
type tracer struct {
	w      *workload
	outDir string
	d      *dataset.Dataset
	ps     probeSet
	rec    *recorder
	s      samples // verification steps only
	m      map[string]metricValue
	// ids[level][scan] is the span index, for the next level's parent.
	ids map[string][]int
	// us[level][scan] is the span duration in microseconds.
	us map[string][]float64
	// mallocs[level] and allocBytes[level] are heap allocations per scan
	// while the level ran.
	mallocs, allocBytes map[string]float64
	// pre, when set, runs before scan i's span opens; its time and its
	// allocations are charged to no scan.
	pre func(i int) error
}

func (t *tracer) put(name string, v float64, unit string, n int) {
	t.m[name] = metricValue{Value: scrub(v), Unit: unit, Samples: n}
}

type memCounts struct{ mallocs, bytes uint64 }

func readMem() memCounts {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounts{ms.Mallocs, ms.TotalAlloc}
}

// feed runs one ladder level over the whole stream: insert(i, scan) is
// timed under a span named level whose parent is the same scan's span
// one level up; spans, durations and allocation counts land in t.ids,
// t.us, t.mallocs and t.allocBytes. A failed insert aborts the traced
// run: a twin that cannot ingest attributes nothing.
func (t *tracer) feed(level, parent string, insert func(i int, sc dataset.Scan) error) error {
	runtime.GC()
	n := len(t.d.Scans)
	ids := make([]int, n)
	us := make([]float64, n)
	m0 := readMem()
	for i, sc := range t.d.Scans {
		if t.pre != nil {
			before := readMem()
			if err := t.pre(i); err != nil {
				return fmt.Errorf("%s: before scan %d: %w", level, i, err)
			}
			after := readMem()
			m0.mallocs += after.mallocs - before.mallocs
			m0.bytes += after.bytes - before.bytes
		}
		p := -1
		if up := t.ids[parent]; up != nil {
			p = up[i]
		}
		id := t.rec.begin(level, p, i)
		t0 := time.Now()
		err := insert(i, sc)
		el := time.Since(t0)
		t.rec.end(id)
		if err != nil {
			return fmt.Errorf("%s: scan %d: %w", level, i, err)
		}
		ids[i], us[i] = id, float64(el)/1e3
	}
	m1 := readMem()
	t.ids[level], t.us[level] = ids, us
	t.mallocs[level] = float64(m1.mallocs-m0.mallocs) / float64(n)
	t.allocBytes[level] = float64(m1.bytes-m0.bytes) / float64(n)
	return nil
}

// dataDir names a scratch directory for one durable twin.
func (t *tracer) dataDir(twin string) (string, error) {
	return scratchDir(t.outDir, "trace-"+t.w.name+"-"+twin)
}

// traceWorkload runs the traced attribution and returns every per-layer
// metric.
func traceWorkload(w *workload, cfg config, seed int64) (traceResult, error) {
	tw := *w
	tw.scans = w.traceScans
	t := &tracer{
		w:       &tw,
		outDir:  cfg.outDir,
		rec:     newRecorder(),
		m:       map[string]metricValue{},
		ids:     map[string][]int{},
		us:      map[string][]float64{},
		mallocs: map[string]float64{}, allocBytes: map[string]float64{},
	}
	pseed := passSeed(seed, 0)

	// The workload itself, once untraced and once traced: the traced
	// pass's spans go to the span file, and the difference between the
	// two is what tracing costs.
	plain := &runner{w: &tw, outDir: cfg.outDir}
	if err := plain.pass(pseed, 0); err != nil {
		return traceResult{}, err
	}
	traced := &runner{w: &tw, outDir: cfg.outDir, rec: t.rec}
	if err := traced.pass(pseed, 1); err != nil {
		return traceResult{}, err
	}
	t.put("bench.trace_overhead_frac",
		ratio(median(traced.s.visibleMs)-median(plain.s.visibleMs), median(plain.s.visibleMs)), "frac", len(traced.s.visibleMs))
	t.s.attempted = plain.s.attempted + traced.s.attempted
	t.s.failed = plain.s.failed + traced.s.failed

	t.d = tw.generate(pseed, tw.scans)
	t.ps = makeProbes(t.d, pseed)
	for _, step := range []func() error{t.serviceTwins, t.mapTwins, t.engineTwins} {
		if err := step(); err != nil {
			return traceResult{}, err
		}
	}
	t.selfTimes()

	if err := t.rec.write(filepath.Join(cfg.outDir, "trace-"+w.name+".json")); err != nil {
		return traceResult{}, err
	}
	return traceResult{scans: tw.scans, attempted: t.s.attempted, failed: t.s.failed, metrics: t.m}, nil
}

// selfTimes derives the metrics that are differences between ladder
// levels, scan id by scan id. Every per-scan figure is the median over
// scan ids, not the mean: the twins run one after another, and a burst
// of interference from the machine that hits part of one twin's stream
// would otherwise be billed to that twin's layer.
func (t *tracer) selfTimes() {
	n := len(t.d.Scans)
	below := "core.insert"
	if t.w.opts.Shards >= 1 {
		below = "shard.insert"
	}
	replaySum := make([]float64, n)
	for _, stage := range []string{"raytrace.trace", "cache.admit", "cache.evict", "store.apply"} {
		for i, v := range t.us[stage] {
			replaySum[i] += v
		}
	}
	t.put("server.ack_us_per_scan", median(t.us["client.insert_flush"]), "us", n)
	t.put("server.overhead_us_per_scan",
		median(selfTimes(t.us["client.insert_flush"], t.us["octocache.insert.tenant"])), "us", n)
	t.put("server.allocs_per_scan", t.mallocs["client.insert_flush"]-t.mallocs["octocache.insert.tenant"], "count", n)
	t.put("octocache.insert_us_per_scan", median(t.us["octocache.insert"]), "us", n)
	t.put("octocache.self_us_per_scan", median(selfTimes(t.us["octocache.insert.plain"], t.us[below])), "us", n)
	t.put("shard.insert_us_per_scan", median(t.us["shard.insert"]), "us", n)
	t.put("shard.self_us_per_scan", median(selfTimes(t.us["shard.insert"], t.us["core.insert"])), "us", n)
	t.put("core.insert_us_per_scan", median(t.us["core.insert"]), "us", n)
	t.put("core.serial_insert_us_per_scan", median(t.us["core.serial_insert"]), "us", n)
	t.put("core.self_us_per_scan", median(selfTimes(t.us["core.serial_insert"], replaySum)), "us", n)
	t.put("core.overlap_us_per_scan", median(selfTimes(t.us["core.serial_insert"], t.us["core.insert"])), "us", n)
	t.put("durable.insert_overhead_x",
		ratio(median(t.us["octocache.insert.durable"]), median(t.us["octocache.insert.plain"])), "x", n)
	t.put("durable.allocs_per_scan", t.mallocs["octocache.insert.durable"]-t.mallocs["octocache.insert.plain"], "count", n)
}

// ---- service level ------------------------------------------------------

// serviceTwins measures the network edge: the tenant the workload
// would get from the server, driven through one client connection.
func (t *tracer) serviceTwins() error {
	w := t.w
	mo := w.mapOptions() // the server raises Shards 0 to 1 itself
	points := 0
	for _, sc := range t.d.Scans {
		points += len(sc.Points)
	}
	n := len(t.d.Scans)

	// open starts a fresh service with the tenant created.
	open := func(twin string, window int) (*svcTarget, func(), error) {
		dir := ""
		if w.durable {
			var err error
			if dir, err = t.dataDir(twin); err != nil {
				return nil, nil, err
			}
		}
		tgt, err := openTenant(dir, window, &mo)
		if err != nil {
			return nil, nil, err
		}
		return tgt, func() {
			tgt.Close()
			if dir != "" {
				os.RemoveAll(dir)
			}
		}, nil
	}

	// Twin 1: one scan at a time, Insert then Flush — the ack latency the
	// robot loop sees — with the server's side of the wire counted.
	tgt, done, err := open("sync", 0)
	if err != nil {
		return err
	}
	wire := &tgt.svc.ln.wire
	w0 := wire.snapshot()
	if err := t.feed("client.insert_flush", "", func(_ int, sc dataset.Scan) error {
		if err := tgt.Insert(sc.Origin, sc.Points); err != nil {
			return err
		}
		return tgt.Flush()
	}); err != nil {
		done()
		return err
	}
	ingest := wire.snapshot().sub(w0)
	payload := float64(24 * (points + n)) // 3 float64 per point and per origin
	t.put("wire.bytes_per_scan", float64(ingest.readBytes+ingest.writeBytes)/float64(n), "B", n)
	t.put("wire.framing_overhead_frac", 1-ratio(payload, float64(ingest.readBytes)), "frac", n)
	t.put("wire.conn_writes_per_scan", float64(ingest.writes)/float64(n), "count", n)

	// Small-RPC round trips: per-RPC latency is a per-layer diagnostic
	// (it swings with scheduler state), never an end-to-end metric.
	var rtt, rayRTT []float64
	one := make([]geom.Vec3, 1)
	var dst []bool
	for i := 0; i < 2000; i++ {
		one[0] = t.ps.points[i%len(t.ps.points)]
		t0 := time.Now()
		dst, err = tgt.Occupied(one, dst)
		rtt = append(rtt, float64(time.Since(t0))/1e3)
		t.s.op(err)
	}
	for rep := 0; rep < 8; rep++ {
		for i := range t.ps.dirs {
			t0 := time.Now()
			_, _, err := tgt.c.CastRay(t.ps.origins[i], t.ps.dirs[i], t.ps.rng, true)
			rayRTT = append(rayRTT, float64(time.Since(t0))/1e3)
			t.s.op(err)
		}
	}
	t.put("server.rpc_rtt_us_p50", median(rtt), "us", len(rtt))
	t.put("server.castray_rtt_us_p50", median(rayRTT), "us", len(rayRTT))

	// The snapshot stream, priced in wire bytes per leaf.
	w0 = wire.snapshot()
	snap, err := tgt.c.Snapshot()
	if t.s.op(err) {
		stream := wire.snapshot().sub(w0)
		t.put("wire.snapshot_bytes_per_leaf", ratio(float64(stream.writeBytes), float64(snap.NumLeaves())), "B", snap.NumLeaves())
	} else {
		t.put("wire.snapshot_bytes_per_leaf", 0, "B", 0)
	}
	done()

	// Twins 2 and 3: the bulk path at the default window and fully
	// synchronous, for what pipelining buys.
	bulk := func(twin string, window int) (rate float64, calls []float64, stalls int64, err error) {
		tgt, done, err := open(twin, window)
		if err != nil {
			return 0, nil, 0, err
		}
		defer done()
		runtime.GC()
		start := time.Now()
		for _, sc := range t.d.Scans {
			t0 := time.Now()
			err := tgt.Insert(sc.Origin, sc.Points)
			calls = append(calls, float64(time.Since(t0))/1e3)
			if err != nil {
				return 0, nil, 0, err
			}
		}
		if err := tgt.Flush(); err != nil {
			return 0, nil, 0, err
		}
		rate = float64(n) / time.Since(start).Seconds()
		return rate, calls, tgt.svc.srv.Metrics().BackpressureStalls, nil
	}
	rate32, calls, stalls, err := bulk("w32", 0)
	if err != nil {
		return err
	}
	rate1, _, _, err := bulk("w1", 1)
	if err != nil {
		return err
	}
	t.put("client.insert_call_us_p50", median(calls), "us", len(calls))
	t.put("client.window_speedup_x", ratio(rate32, rate1), "x", 0)
	t.put("server.backpressure_stalls", float64(stalls), "count", 0)
	return nil
}

// ---- facade level -------------------------------------------------------

// mapTwins measures the public Map: the workload's own options, the
// tenant shape the server would run (when that differs), and the same
// map with and without the WAL.
func (t *tracer) mapTwins() error {
	w := t.w
	plainOpts := w.opts
	plainOpts.Durable = octocache.Durable{}
	durOpts := w.opts
	if !w.durable {
		durOpts.Durable = octocache.Durable{Sync: octocache.SyncEveryBatch, SnapshotEvery: 100}
	}

	// Plain twin: ingest, then the facade's query, serialize and open
	// costs on the finished map.
	m, err := octocache.New(plainOpts)
	if err != nil {
		return err
	}
	q := &querier{res: w.opts.Resolution, tgt: mapTarget{m}, d: t.d, parent: -1}
	half := len(t.d.Scans) / 2
	if err := t.feed("octocache.insert.plain", "client.insert_flush", func(i int, sc dataset.Scan) error {
		return m.Insert(sc.Origin, sc.Points)
	}); err != nil {
		m.Close()
		return err
	}
	for i := half; i < len(t.d.Scans); i++ {
		q.round(i)
	}
	t.s.attempted += q.local.attempted
	t.s.failed += q.local.failed
	t.put("octocache.collision_batch_us_p95", percentile(q.local.collisionUs, 0.95), "us", len(q.local.collisionUs))
	t.put("octocache.ray_fan_us_p95", percentile(q.local.fanUs, 0.95), "us", len(q.local.fanUs))
	var buf bytes.Buffer
	t0 := time.Now()
	nb, err := m.WriteTo(&buf)
	el := time.Since(t0)
	t.s.op(err)
	t.put("octocache.writeto_mb_per_s", ratio(float64(nb)/1e6, el.Seconds()), "MB/s", 1)
	plainSum := sha256.Sum256(buf.Bytes())
	m.Close()
	t0 = time.Now()
	re, err := octocache.Open(bytes.NewReader(buf.Bytes()), plainOpts)
	el = time.Since(t0)
	if t.s.op(err) {
		re.Close()
	}
	t.put("octocache.open_ms", float64(el)/1e6, "ms", 1)

	// Durable twin: the same map behind the WAL. A checkpoint a fixed
	// tail before the end leaves exactly that many batches in the log,
	// so the copied directory is a crash image with a known replay.
	dir, err := t.dataDir("durable")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	durOpts.Durable.Dir = dir
	dm, err := octocache.New(durOpts)
	if err != nil {
		return err
	}
	tail := min(64, len(t.d.Scans)/2, durOpts.Durable.SnapshotEvery-1)
	cut := len(t.d.Scans) - tail
	var ckpt time.Duration
	tailPoints := 0
	t.pre = func(i int) error {
		if i != cut {
			return nil
		}
		t0 := time.Now()
		err := dm.Checkpoint()
		ckpt = time.Since(t0)
		return err
	}
	err = t.feed("octocache.insert.durable", "client.insert_flush", func(i int, sc dataset.Scan) error {
		if i >= cut {
			tailPoints += len(sc.Points)
		}
		return dm.Insert(sc.Origin, sc.Points)
	})
	t.pre = nil
	if err != nil {
		dm.Close()
		return err
	}
	ds := dm.Stats().Durable
	t.put("durable.checkpoint_ms", float64(ckpt)/1e6, "ms", 1)
	t.put("durable.wal_bytes_per_scan", ratio(float64(ds.WALBytes), float64(tail)), "B", tail)
	t.put("durable.write_amp", ratio(float64(ds.WALBytes), float64(24*tailPoints)), "x", tail)
	image, err := t.dataDir("image")
	if err != nil {
		dm.Close()
		return err
	}
	defer os.RemoveAll(image)
	if err := copyDir(dir, image); err != nil {
		dm.Close()
		return err
	}
	dm.Close()
	recOpts := durOpts
	recOpts.Durable.Dir = ""
	t0 = time.Now()
	rm, err := octocache.Recover(image, recOpts)
	el = time.Since(t0)
	t.put("durable.recover_ms", float64(el)/1e6, "ms", 1)
	if t.s.op(err) {
		// The crash image must recover to the map the plain twin built.
		h := sha256.New()
		_, err := rm.WriteTo(h)
		var sum [sha256.Size]byte
		h.Sum(sum[:0])
		t.s.check(err == nil && sum == plainSum)
		rm.Close()
	}

	// The workload's own options, where neither twin above is it.
	if w.durable {
		t.alias("octocache.insert", "octocache.insert.durable")
	} else {
		t.alias("octocache.insert", "octocache.insert.plain")
	}
	// The tenant shape: the server never runs a single-driver map.
	if w.opts.Shards >= 1 {
		t.alias("octocache.insert.tenant", "octocache.insert")
		return nil
	}
	tenOpts := w.opts
	tenOpts.Shards = 1
	tm, err := octocache.New(tenOpts)
	if err != nil {
		return err
	}
	defer tm.Close()
	return t.feed("octocache.insert.tenant", "client.insert_flush", func(i int, sc dataset.Scan) error {
		return tm.Insert(sc.Origin, sc.Points)
	})
}

// alias lets one twin stand for two ladder levels when their options
// coincide.
func (t *tracer) alias(level, same string) {
	t.ids[level], t.us[level], t.mallocs[level] = t.ids[same], t.us[same], t.mallocs[same]
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ---- engine level and below --------------------------------------------

// engineTwins measures the router, the engine in the workload's kind
// and serially, and the layer replay; then the read paths and stores
// that are only comparable once all of them hold the same map.
func (t *tracer) engineTwins() error {
	w := t.w
	cfg := coreConfig(w.opts)
	n := len(t.d.Scans)

	sm, err := shard.New(shard.Config{Core: cfg, Shards: max(w.opts.Shards, 1), Pipeline: shard.PipelineAsync})
	if err != nil {
		return err
	}
	defer sm.Close()
	if err := t.feed("shard.insert", "octocache.insert", func(_ int, sc dataset.Scan) error {
		return sm.Insert(sc.Origin, sc.Points)
	}); err != nil {
		return err
	}
	var maxIns, sumIns int64
	stats := sm.ShardStats()
	for _, st := range stats {
		maxIns = max(maxIns, st.Cache.Inserts)
		sumIns += st.Cache.Inserts
	}
	t.put("shard.imbalance", ratio(float64(maxIns)*float64(len(stats)), float64(sumIns)), "x", len(stats))

	par, err := core.New(core.KindParallel, cfg)
	if err != nil {
		return err
	}
	defer par.Close()
	if err := t.feed("core.insert", "shard.insert", func(_ int, sc dataset.Scan) error {
		return par.Insert(sc.Origin, sc.Points)
	}); err != nil {
		return err
	}
	tm := par.Timings()
	t.put("core.wait_us_per_scan", float64(tm.Wait)/1e3/float64(n), "us", n)
	t.put("core.applier_busy_us_per_scan", float64(tm.OctreeUpdate)/1e3/float64(n), "us", n)
	t.put("spsc.handoff_ns_per_batch", float64(tm.Enqueue+tm.Dequeue)/float64(n), "ns", n)
	t.put("core.allocs_per_scan", t.mallocs["core.insert"], "count", n)
	t.put("core.alloc_bytes_per_scan", t.allocBytes["core.insert"], "B", n)

	// Read paths: the same points and rays through the router and
	// through one engine holding the same map.
	const reps = 8
	pointNS := func(occ func(geom.Vec3) bool) float64 {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, p := range t.ps.points {
				occ(p)
			}
		}
		return float64(time.Since(t0)) / float64(reps*len(t.ps.points))
	}
	rayNS := func(cast func(o, d geom.Vec3, r float64, ignore bool) (geom.Vec3, bool)) float64 {
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for i := range t.ps.dirs {
				cast(t.ps.origins[i], t.ps.dirs[i], t.ps.rng, true)
			}
		}
		return float64(time.Since(t0)) / float64(reps*len(t.ps.dirs))
	}
	sp, cp := pointNS(sm.Occupied), pointNS(par.Occupied)
	sr, cr := rayNS(sm.CastRay), rayNS(par.CastRay)
	t.put("shard.point_ns", sp, "ns", reps*len(t.ps.points))
	t.put("shard.point_overhead_x", ratio(sp, cp), "x", 0)
	t.put("shard.castray_ns", sr, "ns", reps*len(t.ps.dirs))
	t.put("shard.castray_overhead_x", ratio(sr, cr), "x", 0)

	ser, err := core.New(core.KindSerial, cfg)
	if err != nil {
		return err
	}
	defer ser.Close()
	if err := t.feed("core.serial_insert", "core.insert", func(_ int, sc dataset.Scan) error {
		return ser.Insert(sc.Origin, sc.Points)
	}); err != nil {
		return err
	}

	// The layer replay over the workload's own store. Its stages are
	// recorded as four spans per scan under the serial engine's span.
	rp := newReplay(cfg)
	rp.rec, rp.parents = t.rec, t.ids["core.serial_insert"]
	runtime.GC()
	for i, sc := range t.d.Scans {
		rp.insert(i, sc.Origin, sc.Points)
	}
	resident := rp.cache.Len()
	cacheBytes := rp.cache.MemoryBytes()
	rp.flush()
	for _, st := range []struct {
		name string
		d    []time.Duration
	}{{"raytrace.trace", rp.traceD}, {"cache.admit", rp.admitD}, {"cache.evict", rp.evictD}, {"store.apply", rp.applyD}} {
		us := make([]float64, n)
		for i, d := range st.d {
			us[i] = float64(d) / 1e3
		}
		t.us[st.name] = us
	}
	sum := func(ds []time.Duration) (s time.Duration) {
		for _, d := range ds {
			s += d
		}
		return s
	}
	// Intra-scan duplication, counted in a pass of its own: sizing a
	// distinct-voxel set between the timed stages would evict their
	// working set and bill them for it.
	var distinct int64
	for _, sc := range t.d.Scans {
		distinct += int64(raytrace.CountDistinct(rp.trace(sc.Origin, sc.Points)))
	}
	cs := rp.cache.Stats()
	perVoxel := func(ds []time.Duration) []float64 {
		out := make([]float64, len(ds))
		for i, d := range ds {
			out[i] = ratio(float64(d), float64(rp.scanVoxels[i]))
		}
		return out
	}
	t.put("raytrace.trace_us_per_scan", median(t.us["raytrace.trace"]), "us", n)
	t.put("raytrace.ns_per_voxel", median(perVoxel(rp.traceD)), "ns", n)
	t.put("raytrace.voxels_per_scan", float64(rp.voxels)/float64(n), "count", n)
	t.put("raytrace.dup_ratio", ratio(float64(rp.voxels), float64(distinct)), "x", n)
	t.put("cache.admit_ns_per_voxel", median(perVoxel(rp.admitD)), "ns", n)
	t.put("cache.hit_rate", cs.HitRate(), "frac", int(cs.Inserts))
	t.put("cache.evict_us_per_scan", median(t.us["cache.evict"]), "us", n)
	t.put("cache.evicted_per_scan", float64(rp.evicted)/float64(n), "count", n)
	t.put("cache.resident_cells", float64(resident), "count", 0)
	t.put("cache.bytes", float64(cacheBytes), "B", 0)

	// The same stream once more over the other backend, so every run
	// prices both stores' apply, lookup and walk on the same map.
	otherCfg := cfg
	otherCfg.Backend = core.BackendGrid
	if cfg.Backend == core.BackendGrid {
		otherCfg.Backend = core.BackendOctree
	}
	other := newReplay(otherCfg)
	runtime.GC()
	for i, sc := range t.d.Scans {
		other.insert(i, sc.Origin, sc.Points)
	}
	other.flush()
	tree, grid := rp, other
	if cfg.Backend == core.BackendGrid {
		tree, grid = other, rp
	}
	keys := make([]voxel.Key, 0, len(t.ps.points))
	for _, p := range t.ps.points {
		if k, ok := voxel.CoordToKey(p, cfg.Octree.Resolution, cfg.Octree.Depth); ok {
			keys = append(keys, k)
		}
	}
	for _, st := range []struct {
		layer string
		r     *replay
	}{{"octree", tree}, {"vdbgrid", grid}} {
		s := st.r.store
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, k := range keys {
				s.Lookup(k)
			}
		}
		lookup := float64(time.Since(t0)) / float64(reps*len(keys))
		leaves := 0
		t0 = time.Now()
		s.Walk(func(voxel.Leaf) bool { leaves++; return true })
		walk := time.Since(t0)
		apply := sum(st.r.applyD) + st.r.flushApply
		t.put(st.layer+".apply_ns_per_cell", ratio(float64(apply), float64(st.r.evicted)), "ns", int(st.r.evicted))
		t.put(st.layer+".lookup_ns", lookup, "ns", reps*len(keys))
		t.put(st.layer+".walk_mleaves_per_s", ratio(float64(leaves)/1e6, walk.Seconds()), "Mleaves/s", leaves)
		t.put(st.layer+".bytes_per_leaf", ratio(float64(s.MemoryBytes()), float64(leaves)), "B", leaves)
	}
	t.put("octree.live_nodes", float64(tree.store.(treeStore).NumNodes()), "count", 0)

	// The replay must have built the map the real pipeline builds.
	ser.Close()
	want, got := sha256.New(), sha256.New()
	_, werr := ser.WriteTo(want)
	_, gerr := writeStore(rp.store, cfg.Octree, got)
	t.s.check(werr == nil && gerr == nil && bytes.Equal(want.Sum(nil), got.Sum(nil)))
	return nil
}

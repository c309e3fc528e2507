package main

import (
	"fmt"

	"octocache"
	"octocache/client"
	"octocache/internal/core"
	"octocache/internal/dataset"
	"octocache/internal/geom"
	"octocache/internal/sensor"
	"octocache/internal/world"
)

// runSeconds is BENCHMARK.json's run_seconds: the run length every
// workload's pass count is calibrated for. A different -seconds scales
// the pass count proportionally; load stays count-bound either way.
const runSeconds = 25

// workload is one set of inputs plus the configuration of the system
// that receives them. The program under test sees only the generated
// scans; everything else here is the benchmark's own bookkeeping.
type workload struct {
	name string

	// The scan stream: a world, a sensor, a trajectory, a scan count.
	env       world.Env
	sensor    sensor.Model
	waypoints []geom.Vec3
	yawSweep  float64
	scans     int // per pass; first half bulk, second half cycle

	// passes at runSeconds; traceScans bounds the traced run's stream.
	passes     int
	traceScans int

	// opts is the map under test: the in-process Map's options, or the
	// tenant's effective options when service is set (the server forces
	// Shards >= 1). Durable.Dir is filled per pass.
	opts    octocache.Options
	service bool
	durable bool // service tenant with WAL + snapshots, restarted per pass

	// readsPerScan > 0 moves the cycle phase's queries to a second
	// goroutine that runs this many collision-batch + ray-fan rounds per
	// inserted scan, beside the writer instead of after it.
	readsPerScan int

	// dedupRef makes the reference trace with DedupRays: the boundary
	// tracer's batches are deduplicated, so only a deduplicating DDA
	// reference converges to the same map.
	dedupRef bool
}

// corridorWaypoints runs down the FR-079 corridor centerline: the walls
// never leave view, which is what gives the stream its extreme
// inter-scan overlap.
var corridorWaypoints = []geom.Vec3{geom.V(0, 0, 1.2), geom.V(30, 0, 1.2)}

// quadWaypoints loops the New College quadrangle and re-enters the first
// leg, so late scans revisit early ones after the cache has long since
// evicted them.
var quadWaypoints = []geom.Vec3{
	geom.V(-30, -30, 1.5), geom.V(30, -30, 1.5), geom.V(30, 30, 1.5),
	geom.V(-30, 30, 1.5), geom.V(-30, -30, 1.5), geom.V(28, -28, 1.5),
}

func workloads() []*workload {
	corridor := workload{
		env:       world.FR079,
		sensor:    sensor.Panoramic(5, 120, 24),
		waypoints: corridorWaypoints,
		yawSweep:  0.5,
		scans:     264,
	}
	uav := corridor
	// The paper's UAV loop on single-driver defaults. The working set
	// fits the cache: raytrace and the cache do all the work, the store,
	// shard, wire and WAL layers none.
	uav.name = "uav-corridor"
	uav.passes = 10
	uav.traceScans = 264
	uav.opts = octocache.Options{Resolution: 0.1, MaxRange: 5}

	// A cache far smaller than the working set behind four shards, with
	// a reader goroutine beside the writer: eviction, octree apply, shard
	// routing and locks dominate, and reads contend with writes.
	survey := workload{
		name:         "survey-sharded",
		env:          world.NewCollege,
		sensor:       sensor.Panoramic(20, 120, 20),
		waypoints:    quadWaypoints,
		yawSweep:     0.9,
		scans:        100,
		passes:       5,
		traceScans:   48,
		opts:         octocache.Options{Resolution: 0.2, MaxRange: 20, Shards: 4, CacheBuckets: 1 << 16},
		readsPerScan: 4,
	}

	stream := corridor
	// The cheapest tenant behind the service, so client, wire and server
	// take their largest share; the only workload on the grid store and
	// the boundary tracer.
	stream.name = "service-stream"
	stream.passes = 9
	stream.traceScans = 264
	stream.service = true
	stream.dedupRef = true
	stream.opts = octocache.Options{Resolution: 0.1, MaxRange: 5, Shards: 1,
		Backend: octocache.BackendGrid, Trace: octocache.TraceBoundary}

	dur := corridor
	// WAL append, per-shard fsync, background snapshots, and a restart
	// per pass; every other workload bypasses internal/durable.
	dur.name = "service-durable"
	dur.passes = 7
	dur.traceScans = 264
	dur.service = true
	dur.durable = true
	dur.opts = octocache.Options{Resolution: 0.1, MaxRange: 5, Shards: 4,
		Durable: octocache.Durable{Sync: octocache.SyncEveryBatch, SnapshotEvery: 100}}

	return []*workload{&uav, &survey, &stream, &dur}
}

// smoke shrinks a workload to a few sparse scans so tests can drive
// every code path in seconds.
func (w *workload) smoke() *workload {
	s := *w
	s.scans = 12
	s.passes = 1
	s.traceScans = 12
	s.sensor.HRays, s.sensor.VRays = 40, 8
	if s.opts.Durable.SnapshotEvery > 0 {
		s.opts.Durable.SnapshotEvery = 4
	}
	return &s
}

func findWorkload(ws []*workload, name string) (*workload, error) {
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// passesFor scales the calibrated pass count to the requested run
// length. The count is a function of the argument alone, never of how
// fast this machine happens to be.
func (w *workload) passesFor(seconds int) int {
	n := (w.passes*seconds + runSeconds/2) / runSeconds
	if n < 1 {
		n = 1
	}
	return n
}

// passSeed derives one pass's dataset seed. Every pass replays a
// different world so a run pools samples over several streams and no
// single door or tree layout decides a metric.
func passSeed(seed int64, pass int) int64 { return seed*1009 + int64(pass) }

// generate builds the pass's scan stream from the seed.
func (w *workload) generate(seed int64, scans int) *dataset.Dataset {
	return dataset.Generate(dataset.Spec{
		Env:       w.env,
		Seed:      seed,
		NumScans:  scans,
		Sensor:    w.sensor,
		Waypoints: w.waypoints,
		YawSweep:  w.yawSweep,
	})
}

// refOptions is the cheapest configuration that must converge to the
// same map: single-driver, serial pipeline, grid store.
func (w *workload) refOptions() octocache.Options {
	return octocache.Options{
		Resolution: w.opts.Resolution,
		MaxRange:   w.opts.MaxRange,
		Mode:       octocache.ModeSerial,
		Backend:    octocache.BackendGrid,
		DedupRays:  w.dedupRef,
	}
}

// mapOptions is the tenant shape a service workload creates over the
// wire — the remote subset of opts.
func (w *workload) mapOptions() client.MapOptions {
	o := w.opts
	return client.MapOptions{
		Resolution:    o.Resolution,
		MaxRange:      o.MaxRange,
		Mode:          o.Mode,
		Backend:       o.Backend,
		Trace:         o.Trace,
		Shards:        o.Shards,
		CacheBuckets:  o.CacheBuckets,
		CacheTau:      o.CacheTau,
		Durable:       w.durable,
		Sync:          o.Durable.Sync,
		SnapshotEvery: o.Durable.SnapshotEvery,
	}
}

// coreConfig derives the pipeline configuration the public constructor
// would build from opts, for the twins that enter below the facade.
// Durability is stripped: the sub-facade twins measure the in-memory
// pipeline, and the durable twin measures the WAL as a ratio on top.
func coreConfig(o octocache.Options) core.Config {
	cfg := core.DefaultConfig(o.Resolution)
	cfg.Backend = o.Backend
	cfg.MaxRange = o.MaxRange
	cfg.RT = o.DedupRays
	cfg.Trace = o.Trace
	if o.CacheBuckets > 0 {
		cfg.CacheBuckets = o.CacheBuckets
	}
	if o.CacheTau > 0 {
		cfg.CacheTau = o.CacheTau
	}
	return cfg
}

package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"octocache/internal/dataset"
	"octocache/internal/geom"
)

// samples pools one workload's measurements over its passes. Latency
// slices hold one entry per operation; the rest one entry per pass.
type samples struct {
	setupS      []float64
	ingestRate  []float64 // scans/s, bulk phase
	visibleMs   []float64 // per cycle-phase scan
	collisionUs []float64 // per collision batch
	fanUs       []float64 // per ray fan
	snapshotMBs []float64
	heapMB      []float64
	cpuMs       []float64 // per scan, over bulk+cycle
	recoverS    []float64

	attempted, failed int
	passes, scans     int // scans per pass
}

// op counts one operation and reports whether it succeeded.
func (s *samples) op(err error) bool {
	s.attempted++
	if err != nil {
		s.failed++
		return false
	}
	return true
}

// check counts one verification step.
func (s *samples) check(ok bool) {
	s.attempted++
	if !ok {
		s.failed++
	}
}

// runner replays a workload's passes against fresh maps.
type runner struct {
	w      *workload
	outDir string
	// rec is nil on the measured run; the traced run sets it and the
	// same loop records a span around every call it makes.
	rec *recorder
	s   samples
}

// liveHeap forces a collection and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// scratchDir names (and empties) a directory under outDir/data for one
// durable map. The pid keeps concurrent invocations apart.
func scratchDir(outDir, name string) (string, error) {
	dir := filepath.Join(outDir, "data", fmt.Sprintf("%s-%d", name, os.Getpid()))
	return dir, os.RemoveAll(dir)
}

// querier is one goroutine's planner: its scratch buffers and the
// samples it took.
type querier struct {
	rec    *recorder
	res    float64 // voxel edge, the collision lattice's pitch
	tgt    target
	remote bool // tgt is a tenant behind the service
	d      *dataset.Dataset
	pts    []geom.Vec3
	dst    []bool
	fanO   []geom.Vec3 // the fan's origins (one pose, repeated) and
	fanD   []geom.Vec3 // directions
	hits   []rayAnswer
	local  samples
	parent int // span the rounds hang under
}

// heading is the direction of travel at scan i.
func heading(d *dataset.Dataset, i int) float64 {
	j := i + 1
	if j >= len(d.Scans) {
		i, j = i-1, i
	}
	if i < 0 {
		return 0
	}
	v := d.Scans[j].Origin.Sub(d.Scans[i].Origin)
	return math.Atan2(v.Y, v.X)
}

// collisionBox fills dst with the collisionPoints voxel centers of a
// 64 x 8 x 8 lattice, one voxel apart, swept ahead of the pose: the
// volume a local planner checks before committing to a motion.
func collisionBox(dst []geom.Vec3, origin geom.Vec3, yaw, res float64) []geom.Vec3 {
	dst = dst[:0]
	fwd := geom.V(math.Cos(yaw), math.Sin(yaw), 0)
	left := geom.V(-math.Sin(yaw), math.Cos(yaw), 0)
	for a := 0; a < 64; a++ {
		for b := 0; b < 8; b++ {
			for c := 0; c < 8; c++ {
				p := origin.
					Add(fwd.Scale(float64(a) * res)).
					Add(left.Scale((float64(b) - 3.5) * res)).
					Add(geom.V(0, 0, (float64(c)-3.5)*res))
				dst = append(dst, p)
			}
		}
	}
	return dst
}

// collision is the planner's collision check at the pose of scan i: one
// batch of collisionPoints points.
func (q *querier) collision(i int) {
	rec := q.rec
	sc := q.d.Scans[i]
	q.pts = collisionBox(q.pts, sc.Origin, heading(q.d, i), q.res)

	id := rec.begin("collision_batch", q.parent, i)
	t0 := time.Now()
	var err error
	q.dst, err = q.tgt.Occupied(q.pts, q.dst)
	el := time.Since(t0)
	rec.end(id)
	if q.local.op(err) {
		q.local.collisionUs = append(q.local.collisionUs, float64(el)/1e3)
	}
}

// fan casts one fan of fanRays rays from the pose of scan i.
func (q *querier) fan(i int) {
	rec := q.rec
	sc := q.d.Scans[i]
	yaw := heading(q.d, i)
	q.fanO, q.fanD = q.fanO[:0], q.fanD[:0]
	for j := 0; j < fanRays; j++ {
		q.fanO = append(q.fanO, sc.Origin)
		q.fanD = append(q.fanD, fanDir(j, fanRays, yaw))
	}
	id := rec.begin("ray_fan", q.parent, i)
	t0 := time.Now()
	var failed int
	q.hits, failed = q.tgt.CastRays(q.fanO, q.fanD, q.d.Sensor.MaxRange, q.hits)
	el := time.Since(t0)
	rec.end(id)
	q.local.attempted += fanRays
	q.local.failed += failed
	if failed == 0 {
		q.local.fanUs = append(q.local.fanUs, float64(el)/1e3)
	}
}

// round is one planner step at the pose of scan i: one collision batch,
// then — in-process only — one ray fan. The service has no batched ray
// RPC, so a service workload's robot loop checks collisions only and
// its fans are cast after the cycle phase (see runner.pass).
func (q *querier) round(i int) {
	q.collision(i)
	if !q.remote {
		q.fan(i)
	}
}

// merge folds a querier's samples into the runner's.
func (s *samples) merge(o *samples) {
	s.collisionUs = append(s.collisionUs, o.collisionUs...)
	s.fanUs = append(s.fanUs, o.fanUs...)
	s.attempted += o.attempted
	s.failed += o.failed
}

// pass runs the five phases once: setup, bulk, cycle, snapshot,
// verify/restart. An error means the pass could not run at all (the
// benchmark is broken, not the map); operations that fail or answer
// wrong are counted in the samples instead.
func (r *runner) pass(seed int64, idx int) error {
	w, s, rec := r.w, &r.s, r.rec
	root := rec.begin("pass", -1, -1)
	defer rec.end(root)

	// ---- setup: generate the stream, grade the reference, build the map.
	ph := rec.begin("setup", root, -1)
	t0 := time.Now()
	d := w.generate(seed, w.scans)
	ps := makeProbes(d, seed)
	ref, err := buildReference(w, d, ps)
	if err != nil {
		return err
	}
	setup := time.Since(t0)
	// The heap baseline sits between the inputs and the map, so the
	// map's own construction (a 512K-bucket cache is ~12 MB empty) counts
	// toward heap_mb. The forced collection is not set-up work.
	base := liveHeap()
	t0 = time.Now()
	dataDir := ""
	if w.durable {
		if dataDir, err = scratchDir(r.outDir, fmt.Sprintf("%s-pass%d", w.name, idx)); err != nil {
			return err
		}
		defer os.RemoveAll(dataDir)
	}
	tgt, err := w.newTarget(dataDir)
	if err != nil {
		return err
	}
	closed := false
	defer func() {
		if !closed {
			tgt.Close()
		}
	}()
	setup += time.Since(t0)
	rec.end(ph)
	s.setupS = append(s.setupS, setup.Seconds())

	// ---- bulk: the first half as fast as the API allows.
	half := len(d.Scans) / 2
	ph = rec.begin("bulk", root, -1)
	cpu0 := cpuTime()
	t0 = time.Now()
	for i, sc := range d.Scans[:half] {
		id := rec.begin("insert", ph, i)
		s.op(tgt.Insert(sc.Origin, sc.Points))
		rec.end(id)
	}
	s.op(tgt.Flush())
	bulk := time.Since(t0)
	rec.end(ph)
	s.ingestRate = append(s.ingestRate, float64(half)/bulk.Seconds())

	// ---- cycle: the second half one scan at a time, robot-loop style.
	ph = rec.begin("cycle", root, -1)
	q := &querier{rec: rec, res: w.opts.Resolution, tgt: tgt, remote: w.service, d: d, parent: ph}
	var poses chan int
	var readers sync.WaitGroup
	if w.readsPerScan > 0 {
		// Sized to every send, so the writer never waits on the reader.
		poses = make(chan int, len(d.Scans)-half)
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := range poses {
				for k := 0; k < w.readsPerScan; k++ {
					q.round(i)
				}
			}
		}()
	}
	for i := half; i < len(d.Scans); i++ {
		sc := d.Scans[i]
		id := rec.begin("scan_visible", ph, i)
		t0 = time.Now()
		err := tgt.Insert(sc.Origin, sc.Points)
		if err == nil {
			err = tgt.Flush()
		}
		el := time.Since(t0)
		rec.end(id)
		if s.op(err) {
			s.visibleMs = append(s.visibleMs, float64(el)/1e6)
		}
		if poses != nil {
			poses <- i
		} else {
			q.round(i)
		}
	}
	if poses != nil {
		close(poses)
		readers.Wait()
	}
	cpu := cpuTime() - cpu0
	rec.end(ph)
	s.cpuMs = append(s.cpuMs, float64(cpu)/1e6/float64(len(d.Scans)))
	s.heapMB = append(s.heapMB, (float64(liveHeap())-float64(base))/1e6)

	// ---- ray fans over the service: one per cycle pose, after the cycle,
	// so the goroutine per in-flight ray that svcTarget.CastRays needs is
	// in neither the robot loop nor the CPU window.
	if w.service {
		ph = rec.begin("ray_fans", root, -1)
		q.parent = ph
		for i := half; i < len(d.Scans); i++ {
			q.fan(i)
		}
		rec.end(ph)
	}
	s.merge(&q.local)

	// ---- snapshot: serialize the whole map.
	var snap bytes.Buffer
	snap.Grow(int(ref.bytes) + 64)
	ph = rec.begin("snapshot", root, -1)
	t0 = time.Now()
	n, err := tgt.WriteSnapshot(&snap)
	el := time.Since(t0)
	rec.end(ph)
	if s.op(err) {
		s.snapshotMBs = append(s.snapshotMBs, float64(n)/1e6/el.Seconds())
	}

	// ---- verify: bytes and answers against the reference.
	ph = rec.begin("verify", root, -1)
	sum := sha256.Sum256(snap.Bytes())
	s.check(sum == ref.sha)
	got, asked, failed := ps.ask(tgt)
	s.attempted += asked
	s.failed += failed + got.mismatches(ref.answers)
	rec.end(ph)

	// ---- restart: bring the map back from what it persisted.
	closed = true
	s.op(tgt.Close())
	ph = rec.begin("restart", root, -1)
	t0 = time.Now()
	re, err := w.reopen(dataDir, snap.Bytes())
	if s.op(err) {
		_, err = re.Occupied(ps.points[:1], nil)
		el = time.Since(t0)
		rec.end(ph)
		if s.op(err) {
			s.recoverS = append(s.recoverS, el.Seconds())
		}
		got, asked, failed = ps.ask(re)
		s.attempted += asked
		s.failed += failed + got.mismatches(ref.answers)
		if w.durable {
			// The recovered tenant must stream the bytes it streamed
			// before the restart.
			h := sha256.New()
			_, err := re.WriteSnapshot(h)
			var after [sha256.Size]byte
			h.Sum(after[:0])
			s.check(err == nil && after == sum)
		}
		s.op(re.Close())
	} else {
		rec.end(ph)
	}
	s.passes++
	s.scans = len(d.Scans)
	return nil
}

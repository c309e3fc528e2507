// Package nav implements the closed-loop autonomous-navigation pipeline
// of paper Figure 3: perception (simulated sensing + map update),
// planning (A* over live occupancy queries, revalidated every cycle), and
// control (advance along the planned path at the latency-bounded safe
// velocity). It substitutes for the MAVBench/Unreal testbed: the world
// and vehicle are simulated, but the mapping system under the pipeline
// is the real code being evaluated.
//
// Per-cycle compute latency comes from the mission's clock
// (internal/clock): the real clock measures the actual mapping update
// and planning work in wall time, while the deterministic virtual clock
// prices the work the pipeline reports having done — either way the
// latency is optionally scaled by a platform slowdown factor to emulate
// the Jetson TX2's relative speed; the safe velocity and mission
// completion time then follow the uav package's roofline model, making
// mapping speedups directly visible as flight-performance gains (Figures
// 16–19).
package nav

import (
	"math"
	"time"

	"octocache/internal/clock"
	"octocache/internal/core"
	"octocache/internal/geom"
	"octocache/internal/sensor"
	"octocache/internal/uav"
	"octocache/internal/world"
)

// Mapper is the minimal occupancy-map surface the navigation loop
// drives: the four calls below, nothing else. Every internal pipeline
// (engine or comparison baseline) and the public octocache.Map satisfy
// it, so missions can run against exactly the API real applications
// use.
type Mapper interface {
	// Insert integrates one sensor scan observed from origin; it fails
	// only on a closed map, which the mission loop never drives.
	Insert(origin geom.Vec3, points []geom.Vec3) error
	// Occupied reports whether the voxel containing p is known-occupied.
	Occupied(p geom.Vec3) bool
	// Resolution returns the voxel edge length in meters.
	Resolution() float64
	// Close flushes the map; called once when the mission ends.
	Close() error
}

// Config assembles a mission.
type Config struct {
	World  *world.World
	Sensor sensor.Model
	Mapper Mapper
	UAV    uav.Airframe

	// Margin is the collision clearance radius in meters (default 0.25).
	Margin float64
	// GoalRadius ends the mission when the UAV is this close (default 1).
	GoalRadius float64
	// MaxCycles aborts runaway missions (default 2000).
	MaxCycles int
	// PlatformSlowdown scales measured compute latency to emulate a
	// slower embedded platform (the paper's Jetson TX2). 1 uses host
	// speed unchanged.
	PlatformSlowdown float64
	// PlannerCell overrides the planning grid cell size; 0 derives it
	// from the map resolution and margin.
	PlannerCell float64
	// Clock is the mission's time source. Nil defaults to the real
	// clock, so benches and cmd/octobench keep measuring honest host
	// latency; a clock.Virtual makes the whole mission a deterministic
	// function of its configuration (see clock package docs).
	Clock clock.Clock
}

// Result summarizes a mission.
type Result struct {
	// Completed is true when the UAV reached the goal.
	Completed bool
	// Time is the simulated mission completion time in seconds.
	Time float64
	// PathLength is the distance actually flown in meters.
	PathLength float64
	// Cycles is the number of perception-planning-control iterations.
	Cycles int
	// Replans counts A* invocations.
	Replans int
	// Retreats counts recovery cycles spent backing out along the
	// breadcrumb trail after planning failed.
	Retreats int
	// AvgCompute is the mean measured compute latency per cycle (map
	// update + planning + point-cloud generation), after slowdown
	// scaling — the paper's "system end-to-end runtime".
	AvgCompute time.Duration
	// AvgVelocity is the mean commanded velocity over moving cycles.
	AvgVelocity float64
	// Collisions counts ground-truth collision events (should be zero).
	Collisions int
	// EnergyJ estimates the mission's energy use (rotor-dominated model,
	// uav.Airframe.MissionEnergy).
	EnergyJ float64
	// Timings is the mapping pipeline's stage decomposition, populated
	// when the mapper exposes one (core pipelines do; mappers driven
	// through the public API report stats their own way).
	Timings core.Timings
	// CloseErr is the error from finalizing the mapper at mission end.
	// A non-nil value means the final cache flush may not have reached
	// the octree — callers persisting or re-querying the map afterwards
	// must check it.
	CloseErr error
}

// Run executes the closed-loop mission and returns its summary. The
// mapper is finalized before returning; its Close error is surfaced in
// Result.CloseErr (a failed final flush must not vanish silently).
func Run(cfg Config) Result {
	if cfg.Margin <= 0 {
		cfg.Margin = 0.25
	}
	if cfg.GoalRadius <= 0 {
		cfg.GoalRadius = 1.0
	}
	if cfg.MaxCycles <= 0 {
		cfg.MaxCycles = 2000
	}
	if cfg.PlatformSlowdown <= 0 {
		cfg.PlatformSlowdown = 1
	}
	cell := cfg.PlannerCell
	if cell <= 0 {
		cell = math.Max(cfg.Mapper.Resolution(), cfg.Margin)
		// Keep the grid tractable for very large worlds.
		size := cfg.World.Bounds.Size()
		for size.X/cell*size.Y/cell*size.Z/cell > 2e6 {
			cell *= 1.5
		}
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	mapRes := cfg.Mapper.Resolution()
	pl := newPlanner(cfg.World.Bounds, cell, cfg.Margin, mapRes)
	probes := probeGrid(cfg.Margin, mapRes)

	// Counter-equipped mappers (the core pipelines and the sharded
	// service) let the clock price each cycle by the work actually done;
	// deltas of the monotone counters carry no wall-clock sensitivity.
	// Mappers without counters fall back to scan-size pricing.
	counterSrc, hasCounters := cfg.Mapper.(interface{ WorkCounters() core.Counters })
	var prevCounters core.Counters
	if hasCounters {
		prevCounters = counterSrc.WorkCounters()
	}

	pos := cfg.World.Start
	goal := cfg.World.Goal
	res := Result{}
	var computeSum time.Duration
	var velocitySum float64
	movingCycles := 0
	var path []geom.Vec3
	// trail records traversed positions for the retreat recovery: space
	// the vehicle actually flew through is known traversable even when
	// map inflation later walls it in.
	trail := []geom.Vec3{pos}
	// lookAt, when set, overrides the sensor facing for one cycle — after
	// a ground contact the vehicle must scan what it hit, or the map
	// never learns about the obstacle and the planner retries forever.
	var lookAt geom.Vec3
	haveLook := false

	for res.Cycles = 0; res.Cycles < cfg.MaxCycles; res.Cycles++ {
		if pos.Dist(goal) <= cfg.GoalRadius {
			res.Completed = true
			break
		}
		// Face the direction of travel (the next path waypoint when one
		// exists), not the goal: the sensor must scan the space the
		// vehicle is about to fly through, or sideways detours planned
		// through unknown territory go unverified. A pending lookAt
		// (post-collision) overrides both.
		facing := goal.Sub(pos)
		if len(path) > 0 {
			if d := path[0].Sub(pos); d.Norm() > 1e-6 {
				facing = d
			}
		}
		if haveLook {
			if d := lookAt.Sub(pos); d.Norm() > 1e-6 {
				facing = d
			}
			haveLook = false
		}
		pose := geom.Pose{
			Position: pos,
			Yaw:      math.Atan2(facing.Y, facing.X),
			Pitch:    math.Asin(clamp(facing.Z/math.Max(facing.Norm(), 1e-9), -1, 1)),
		}

		cycleStart := clk.Now()
		replansBefore := res.Replans

		// Perception: sense and update the map.
		points := cfg.Sensor.Scan(cfg.World, pose, nil)
		if err := cfg.Mapper.Insert(pos, points); err != nil {
			panic("nav: map closed mid-mission: " + err.Error())
		}

		// Planning: revalidate the cached path against the fresh map;
		// replan when it is gone or newly blocked.
		path = prunePath(path, pos, cell)
		if len(path) == 0 || !pathClear(cfg.Mapper, pos, path, probes, mapRes) {
			// Lazy-validated replanning: A* uses a capped probe grid for
			// speed; each candidate path is then validated at full
			// resolution, and a cell the coarse grid tunneled through is
			// banned before retrying.
			path = nil
			for attempt := 0; attempt < 5; attempt++ {
				cand := pl.plan(cfg.Mapper, pos, goal, 400000)
				res.Replans++
				if cand == nil {
					break
				}
				if bad, blockedAt := firstBlocked(cfg.Mapper, pos, cand, probes, mapRes); bad {
					pl.ban(blockedAt)
					continue
				}
				path = cand
				break
			}
		}
		work := clock.Work{
			Points:  int64(len(points)),
			Replans: int64(res.Replans - replansBefore),
		}
		if hasCounters {
			c := counterSrc.WorkCounters()
			work.VoxelsTraced = c.VoxelsTraced - prevCounters.VoxelsTraced
			work.OctreeWrites = c.VoxelsToOctree - prevCounters.VoxelsToOctree
			prevCounters = c
		}
		compute := time.Duration(float64(clk.CycleCompute(cycleStart, work)) * cfg.PlatformSlowdown)
		computeSum += compute

		// Control: velocity from the roofline; the response time is the
		// sensor period plus the cycle's compute latency.
		tResp := cfg.UAV.SensorLatency() + compute.Seconds()
		v := cfg.UAV.MaxSafeVelocity(cfg.Sensor.MaxRange, tResp)
		dt := math.Max(cfg.UAV.SensorLatency(), compute.Seconds())
		res.Time += dt
		clk.Advance(time.Duration(dt * float64(time.Second)))
		if len(path) == 0 {
			// Boxed in — usually by map inflation around surfaces scanned
			// after the vehicle got close. Recovery: retreat along the
			// breadcrumb trail (space the vehicle actually traversed)
			// until planning succeeds again.
			if n := len(trail); n > 0 {
				res.Retreats++
				target := trail[n-1]
				step := math.Min(v*dt, 6*cell)
				seg := target.Sub(pos)
				back := pos
				if d := seg.Norm(); d <= step {
					back = target
					if n > 1 {
						trail = trail[:n-1] // never pop the last breadcrumb
					}
				} else if d > 0 {
					back = pos.Add(seg.Scale(step / d))
				}
				// Breadcrumbs were flown collision-free, but guard anyway.
				if !cfg.World.Collides(geom.BoxAt(back, geom.V(cfg.Margin, cfg.Margin, cfg.Margin))) {
					res.PathLength += back.Dist(pos)
					pos = back
				}
			}
			continue
		}
		// Never move beyond the horizon pathClear validated this cycle.
		step := math.Min(v*dt, 6*cell)
		next := pos
		for step > 0 && len(path) > 0 {
			seg := path[0].Sub(next)
			d := seg.Norm()
			if d <= step {
				next = path[0]
				path = path[1:]
				step -= d
				continue
			}
			next = next.Add(seg.Scale(step / d))
			step = 0
		}
		if cfg.World.Collides(geom.BoxAt(next, geom.V(cfg.Margin, cfg.Margin, cfg.Margin))) {
			res.Collisions++
			lookAt, haveLook = next, true // scan what we hit next cycle
			next = pos                    // back off rather than tunnel through
			path = nil                    // force replan
		}
		res.PathLength += next.Dist(pos)
		if len(trail) == 0 || next.Dist(trail[len(trail)-1]) >= cell*0.75 {
			trail = append(trail, next)
		}
		pos = next
		velocitySum += v
		movingCycles++
	}

	res.CloseErr = cfg.Mapper.Close()
	if tp, ok := cfg.Mapper.(interface{ Timings() core.Timings }); ok {
		res.Timings = tp.Timings()
	}
	res.EnergyJ = cfg.UAV.MissionEnergy(res.Time)
	if res.Cycles > 0 {
		res.AvgCompute = computeSum / time.Duration(res.Cycles)
	}
	if movingCycles > 0 {
		res.AvgVelocity = velocitySum / float64(movingCycles)
	}
	return res
}

// prunePath drops waypoints already reached (within one cell).
func prunePath(path []geom.Vec3, pos geom.Vec3, cell float64) []geom.Vec3 {
	for len(path) > 0 && path[0].Dist(pos) < cell*0.6 {
		path = path[1:]
	}
	return path
}

// pathClear validates the next few path segments against the live map,
// sampling each segment at map resolution and probing the clearance
// volume around each sample — the "checking voxels along potential
// trajectories" queries of §2.1.
func pathClear(m Mapper, pos geom.Vec3, path []geom.Vec3, probes []geom.Vec3, res float64) bool {
	bad, _ := firstBlocked(m, pos, path, probes, res)
	return !bad
}

// firstBlocked walks up to 8 waypoints of the path sampling at map
// resolution; on the first occupied probe it returns the sample center so
// the caller can ban the offending planner cell.
//
// Probe points inside the ego zone around pos are exempt: the vehicle
// demonstrably occupies that space, and newly scanned surfaces inflate by
// up to a voxel beyond physical obstacles, so without the exemption a UAV
// that legally approached an obstacle gets trapped by its own map — every
// outgoing segment "starts blocked" and no plan ever validates.
func firstBlocked(m Mapper, pos geom.Vec3, path []geom.Vec3, probes []geom.Vec3, res float64) (bool, geom.Vec3) {
	ego := egoRadius(probes)
	prev := pos
	checked := 0
	for _, wp := range path {
		if bad, at := segmentBlocked(m, prev, wp, probes, res, pos, ego); bad {
			return true, at
		}
		prev = wp
		checked++
		if checked >= 8 { // validate a bounded horizon each cycle
			break
		}
	}
	return false, geom.Vec3{}
}

// egoRadius derives the exemption radius: exactly the vehicle hull (the
// largest probe offset). Anything beyond the hull is a real clearance
// violation — exempting more lets the vehicle plan through obstacles it
// is merely standing next to.
func egoRadius(probes []geom.Vec3) float64 {
	margin := 0.0
	for _, p := range probes {
		if n := p.Norm(); n > margin {
			margin = n
		}
	}
	return margin
}

func segmentBlocked(m Mapper, a, b geom.Vec3, probes []geom.Vec3, res float64, ego geom.Vec3, egoR float64) (bool, geom.Vec3) {
	dir := b.Sub(a)
	dist := dir.Norm()
	if dist == 0 {
		return false, geom.Vec3{}
	}
	dir = dir.Scale(1 / dist)
	steps := int(dist/res) + 1
	for i := 1; i <= steps; i++ {
		c := a.Add(dir.Scale(dist * float64(i) / float64(steps)))
		for _, off := range probes {
			p := c.Add(off)
			if p.Dist(ego) <= egoR {
				continue
			}
			if m.Occupied(p) {
				return true, c
			}
		}
	}
	return false, geom.Vec3{}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

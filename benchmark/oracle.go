package main

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"

	"octocache"
	"octocache/internal/dataset"
	"octocache/internal/geom"
)

const (
	// collisionPoints is one planner collision check, on purpose large:
	// over the service one batch is one RPC, and a batch this size makes
	// the map's answer time, not one loopback round trip, the signal.
	collisionPoints = 4096
	// fanRays is one local-planner visibility sweep.
	fanRays = 64
)

// rayAnswer is one CastRay result; hits are voxel centers, so equality
// is exact across backends, shard counts and the wire.
type rayAnswer struct {
	hit geom.Vec3
	ok  bool
}

// probeSet is the fixed question sheet every pass's map is graded on:
// collisionPoints points (sensor returns, ray midpoints, and uniform
// draws over the world — occupied, free and unknown space) and fanRays
// rays from poses along the trajectory.
type probeSet struct {
	points  []geom.Vec3
	origins []geom.Vec3
	dirs    []geom.Vec3
	rng     float64
}

func makeProbes(d *dataset.Dataset, seed int64) probeSet {
	rng := rand.New(rand.NewSource(seed ^ 0x0c7a))
	ps := probeSet{rng: d.Sensor.MaxRange}
	pick := func() (geom.Vec3, geom.Vec3) {
		for {
			s := d.Scans[rng.Intn(len(d.Scans))]
			if len(s.Points) > 0 {
				return s.Origin, s.Points[rng.Intn(len(s.Points))]
			}
		}
	}
	b := d.World.Bounds
	size := b.Size()
	for i := 0; i < collisionPoints; i++ {
		switch i % 4 {
		case 0, 1: // a measured surface point
			_, p := pick()
			ps.points = append(ps.points, p)
		case 2: // somewhere along a measured ray
			o, p := pick()
			ps.points = append(ps.points, o.Lerp(p, 0.1+0.8*rng.Float64()))
		default: // anywhere in the world
			ps.points = append(ps.points, b.Min.Add(geom.V(
				size.X*rng.Float64(), size.Y*rng.Float64(), size.Z*rng.Float64())))
		}
	}
	for i := 0; i < fanRays; i++ {
		o := d.Scans[(i/8)*(len(d.Scans)-1)/7].Origin
		ps.origins = append(ps.origins, o)
		ps.dirs = append(ps.dirs, fanDir(i%8, 8, 0))
	}
	return ps
}

// fanDir is ray i of an n-ray horizontal sweep starting at yaw, with a
// small alternating pitch so the fan is not confined to one voxel slab.
func fanDir(i, n int, yaw float64) geom.Vec3 {
	a := yaw + 2*math.Pi*float64(i)/float64(n)
	pitch := 0.15 * float64(i%3-1)
	return geom.V(math.Cos(a)*math.Cos(pitch), math.Sin(a)*math.Cos(pitch), math.Sin(pitch))
}

// answers is a map's graded sheet.
type answers struct {
	occupied []bool
	rays     []rayAnswer
}

// ask puts the probe set to a target. It returns the number of
// questions asked and how many of those failed outright (an error is a
// failed operation; a wrong answer is counted by the caller's compare).
func (ps probeSet) ask(t target) (a answers, asked, failed int) {
	occ, err := t.Occupied(ps.points, nil)
	asked++
	if err != nil {
		failed++
	}
	a.occupied = occ
	var rayFails int
	a.rays, rayFails = t.CastRays(ps.origins, ps.dirs, ps.rng, nil)
	return a, asked + len(ps.dirs), failed + rayFails
}

// mismatches counts the operations whose answers differ from the
// reference's: the collision batch is one operation, each ray is one.
func (a answers) mismatches(ref answers) int {
	n := 0
	if len(a.occupied) != len(ref.occupied) {
		n++
	} else {
		for i := range a.occupied {
			if a.occupied[i] != ref.occupied[i] {
				n++
				break
			}
		}
	}
	for i := range ref.rays {
		if i >= len(a.rays) || a.rays[i] != ref.rays[i] {
			n++
		}
	}
	return n
}

// reference is what a pass's map must equal once the stream is in: the
// hash of the canonical serialized bytes, and the probe answers.
type reference struct {
	sha     [sha256.Size]byte
	bytes   int64
	answers answers
}

// buildReference replays the stream into the cheapest equivalent
// configuration and grades it. The repo's bit-identity contract says
// every backend, mode, shard count, trace mode and transport converges
// to these bytes and these answers.
func buildReference(w *workload, d *dataset.Dataset, ps probeSet) (reference, error) {
	m, err := octocache.New(w.refOptions())
	if err != nil {
		return reference{}, err
	}
	defer m.Close()
	for i, s := range d.Scans {
		if err := m.Insert(s.Origin, s.Points); err != nil {
			return reference{}, fmt.Errorf("reference insert %d: %w", i, err)
		}
	}
	var ref reference
	var failed int
	ref.answers, _, failed = ps.ask(mapTarget{m})
	if failed > 0 {
		return reference{}, fmt.Errorf("reference probe failed")
	}
	h := sha256.New()
	if ref.bytes, err = m.WriteTo(h); err != nil {
		return reference{}, fmt.Errorf("reference snapshot: %w", err)
	}
	h.Sum(ref.sha[:0])
	return ref, nil
}

package core

import (
	"math"

	"octocache/internal/geom"
	"octocache/internal/voxel"
)

// CastRayKeys walks the voxel grid from origin along dir, querying each
// visited voxel through the supplied occupancy function until a
// known-occupied voxel is found or maxRange is exceeded. It is the
// pipeline-level equivalent of octree.CastRay, but consults the combined
// cache+octree state so visibility answers are as fresh as point queries.
// Exported so layered map services (internal/shard) can reuse the walk
// with their own per-voxel occupancy resolution.
func CastRayKeys(params voxel.Params, occ func(voxel.Key) (float32, bool),
	origin, dir geom.Vec3, maxRange float64, ignoreUnknown bool) (geom.Vec3, bool) {

	n := dir.Norm()
	if n == 0 {
		return geom.Vec3{}, false
	}
	dir = dir.Scale(1 / n)
	cur, ok := voxel.CoordToKey(origin, params.Resolution, params.Depth)
	if !ok {
		return geom.Vec3{}, false
	}
	if maxRange <= 0 {
		// An unbounded cast must cover the worst-case in-cube ray — the
		// cube diagonal, √3 × the edge — or a diagonal walk would stop
		// short of a reachable occupied voxel in the far corner. The
		// grid-bounds exit below terminates the walk before the budget
		// on every ray that leaves the cube.
		maxRange = math.Sqrt(3) * params.MapSize()
	}

	res := params.Resolution
	half := 1 << (params.Depth - 1)
	c := [3]int{int(cur.X), int(cur.Y), int(cur.Z)}
	o := [3]float64{origin.X, origin.Y, origin.Z}
	d := [3]float64{dir.X, dir.Y, dir.Z}
	var step [3]int
	var tMax, tDelta [3]float64
	for i := 0; i < 3; i++ {
		switch {
		case d[i] > 0:
			step[i] = 1
			boundary := float64(c[i]-half+1) * res
			tMax[i] = (boundary - o[i]) / d[i]
			tDelta[i] = res / d[i]
		case d[i] < 0:
			step[i] = -1
			boundary := float64(c[i]-half) * res
			tMax[i] = (boundary - o[i]) / d[i]
			tDelta[i] = -res / d[i]
		default:
			step[i] = 0
			tMax[i] = math.Inf(1)
			tDelta[i] = math.Inf(1)
		}
	}
	limit := 1 << params.Depth
	for dist := 0.0; dist <= maxRange; {
		k := voxel.Key{X: uint16(c[0]), Y: uint16(c[1]), Z: uint16(c[2])}
		l, known := occ(k)
		switch {
		case known && l >= params.OccupancyThreshold:
			return voxel.KeyToCoord(k, params.Resolution, params.Depth), true
		case !known && !ignoreUnknown:
			return geom.Vec3{}, false
		}
		axis := 0
		if tMax[1] < tMax[axis] {
			axis = 1
		}
		if tMax[2] < tMax[axis] {
			axis = 2
		}
		dist = tMax[axis]
		c[axis] += step[axis]
		tMax[axis] += tDelta[axis]
		if c[axis] < 0 || c[axis] >= limit {
			return geom.Vec3{}, false
		}
	}
	return geom.Vec3{}, false
}

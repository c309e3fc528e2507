package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"octocache/internal/geom"
)

func TestVoxelCacheBaselineQueryEquivalence(t *testing.T) {
	// The indexed baseline must return the same query *values* as vanilla
	// OctoMap (its tree is unpruned, so structure differs, but accumulated
	// occupancies must match exactly).
	cfg := testConfig()
	a := MustNew(KindOctoMap, cfg)
	b := MustNew(KindVoxelCache, cfg)
	rng := rand.New(rand.NewSource(4))
	probeRNG := rand.New(rand.NewSource(5))
	for i := 0; i < 15; i++ {
		origin := geom.V(float64(i)*0.2, 0, 1)
		pts := synthScan(rng, origin, 100)
		a.Insert(origin, pts)
		b.Insert(origin, pts)
		for probe := 0; probe < 40; probe++ {
			p := geom.V(probeRNG.Float64()*6-1, probeRNG.Float64()*4-2, probeRNG.Float64()*3)
			la, ka := a.Occupancy(p)
			lb, kb := b.Occupancy(p)
			if ka != kb || la != lb {
				t.Fatalf("batch %d: voxelcache disagrees at %v: (%v,%v) vs (%v,%v)",
					i, p, lb, kb, la, ka)
			}
		}
	}
	// The snapshot answers identically too — on the live baseline (it
	// used to be empty until Close) and after Close — and serializes to
	// the same bytes as OctoMap's.
	for _, phase := range []string{"live", "closed"} {
		sa, sb := a.Snapshot(), b.Snapshot()
		if sb.NumLeaves() == 0 {
			t.Fatalf("%s voxelcache snapshot is empty", phase)
		}
		for probe := 0; probe < 200; probe++ {
			p := geom.V(probeRNG.Float64()*6-1, probeRNG.Float64()*4-2, probeRNG.Float64()*3)
			la, ka := sa.Occupancy(p)
			lb, kb := sb.Occupancy(p)
			if ka != kb || la != lb {
				t.Fatalf("%s snapshot disagrees at %v", phase, p)
			}
		}
		var wa, wb bytes.Buffer
		if _, err := a.WriteTo(&wa); err != nil {
			t.Fatal(err)
		}
		if _, err := b.WriteTo(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(wa.Bytes(), wb.Bytes()) {
			t.Errorf("%s voxelcache serialized %d bytes, octomap %d: not identical", phase, wb.Len(), wa.Len())
		}
		a.Close()
		b.Close()
	}
}

func TestVoxelCacheUsesMoreMemory(t *testing.T) {
	// The paper's resource critique: index + no pruning => bigger footprint.
	cfg := testConfig()
	a := MustNew(KindOctoMap, cfg)
	b := MustNew(KindVoxelCache, cfg)
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10; i++ {
		origin := geom.V(float64(i)*0.2, 0, 1)
		pts := synthScan(rng, origin, 150)
		a.Insert(origin, pts)
		b.Insert(origin, pts)
	}
	if b.MemoryBytes() <= a.MemoryBytes() {
		t.Errorf("voxelcache memory %d should exceed octomap %d",
			b.MemoryBytes(), a.MemoryBytes())
	}
	a.Close()
	b.Close()
}

func TestNaiveParallelProducesUsableMap(t *testing.T) {
	cfg := testConfig()
	m := MustNew(KindNaive, cfg)
	target := geom.V(3, 0, 1)
	m.Insert(geom.V(0, 0, 1), []geom.Vec3{target})
	if !m.Occupied(target) {
		t.Error("naive-parallel lost the obstacle")
	}
	if _, known := m.Occupancy(geom.V(-2, -2, -2)); known {
		t.Error("unobserved voxel known")
	}
	m.Close()
	if m.Timings().Batches != 1 {
		t.Error("timings not recorded")
	}
}

func TestNaiveParallelApproximateConsistency(t *testing.T) {
	// Same scans through octomap and naive-parallel: thresholded occupancy
	// must agree except possibly at clamp boundaries (reordering effect).
	cfg := testConfig()
	a := MustNew(KindOctoMap, cfg)
	b := MustNew(KindNaive, cfg)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 10; i++ {
		origin := geom.V(float64(i)*0.25, 0, 1)
		pts := synthScan(rng, origin, 100)
		a.Insert(origin, pts)
		b.Insert(origin, pts)
	}
	a.Close()
	b.Close()
	disagreements := 0
	total := 0
	probeRNG := rand.New(rand.NewSource(8))
	for probe := 0; probe < 500; probe++ {
		p := geom.V(probeRNG.Float64()*6-1, probeRNG.Float64()*4-2, probeRNG.Float64()*3)
		total++
		if a.Occupied(p) != b.Occupied(p) {
			disagreements++
		}
	}
	if disagreements > total/50 {
		t.Errorf("naive-parallel diverged on %d/%d probes", disagreements, total)
	}
}

func TestBaselineNames(t *testing.T) {
	cfg := testConfig()
	if MustNew(KindVoxelCache, cfg).Name() != "voxelcache" {
		t.Error("voxelcache name wrong")
	}
	if MustNew(KindNaive, cfg).Name() != "naive-parallel" {
		t.Error("naive name wrong")
	}
	cfg.RT = true
	if MustNew(KindVoxelCache, cfg).Name() != "voxelcache-rt" {
		t.Error("voxelcache RT name wrong")
	}
	if MustNew(KindNaive, cfg).Name() != "naive-parallel-rt" {
		t.Error("naive RT name wrong")
	}
	if KindVoxelCache.String() != "voxelcache" || KindNaive.String() != "naive-parallel" {
		t.Error("kind strings wrong")
	}
}

func TestBaselineCloseTerminal(t *testing.T) {
	for _, kind := range []Kind{KindVoxelCache, KindNaive} {
		m := MustNew(kind, testConfig())
		if err := m.Insert(geom.V(0, 0, 1), []geom.Vec3{geom.V(2, 0, 1)}); err != nil {
			t.Fatalf("%v: Insert: %v", kind, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%v: Close: %v", kind, err)
		}
		if err := m.Close(); err != nil {
			t.Fatalf("%v: second Close: %v", kind, err)
		}
		if err := m.Insert(geom.V(0, 0, 1), []geom.Vec3{geom.V(2, 0, 1)}); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: Insert after Close = %v, want ErrClosed", kind, err)
		}
	}
}

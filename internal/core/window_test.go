package core

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"octocache/internal/geom"
)

// windowedConfig arms testConfig's 25.6 m cube with 0.8 m tiles.
func windowedConfig(t *testing.T, radius int) Config {
	t.Helper()
	cfg := testConfig()
	cfg.Window = Window{Radius: radius, TileDepth: 5, Dir: t.TempDir()}
	return cfg
}

// walkPath yields a deterministic diagonal traverse long enough to push
// early tiles far outside a small window.
func walkPath(n int) []geom.Vec3 {
	path := make([]geom.Vec3, 0, n)
	for i := 0; i < n; i++ {
		c := 2 + 18*float64(i)/float64(n-1)
		path = append(path, geom.V(c, c, c))
	}
	return path
}

func TestWindowValidate(t *testing.T) {
	depth := 8
	cases := []struct {
		name string
		w    Window
		ok   bool
	}{
		{"disabled", Window{}, true},
		{"negative radius", Window{Radius: -1}, false},
		{"good", Window{Radius: 2, TileDepth: 5, Dir: "x"}, true},
		{"default tile depth", Window{Radius: 1, Dir: "x"}, true},
		{"no dir", Window{Radius: 1}, false},
		{"tile too fine", Window{Radius: 1, TileDepth: 6, Dir: "x"}, false},
		{"tile depth negative", Window{Radius: 1, TileDepth: -1, Dir: "x"}, false},
		{"negative cap", Window{Radius: 1, TileDepth: 5, Dir: "x", MaxResidentTiles: -1}, false},
		{"negative cycle bound", Window{Radius: 1, TileDepth: 5, Dir: "x", MaxEvictPerCycle: -1}, false},
	}
	for _, c := range cases {
		if err := c.w.Validate(depth); (err == nil) != c.ok {
			t.Errorf("%s: Validate = %v, want ok=%v", c.name, err, c.ok)
		}
	}

	// The Table 1 baselines do not window.
	cfg := windowedConfig(t, 2)
	for _, k := range []Kind{KindVoxelCache, KindNaive} {
		if _, err := New(k, cfg); err == nil {
			t.Errorf("%v accepted a windowed config", k)
		}
	}
}

// TestWindowedMatchesUnwindowed is the transparency gate at the engine
// level: a small-window map driven across the whole key space must spill
// aggressively, yet answer every probe — including revisits to long-
// evicted regions — exactly like an unbounded reference, and serialize
// to byte-identical .bt output.
func TestWindowedMatchesUnwindowed(t *testing.T) {
	for _, backend := range []BackendKind{BackendOctree, BackendGrid} {
		for _, kind := range allKinds() {
			t.Run(backend.String()+"/"+kind.String(), func(t *testing.T) {
				cfg := windowedConfig(t, 2)
				cfg.Backend = backend
				ref := mustEngine(t, kind, testConfigBackend(backend))
				win := mustEngine(t, kind, cfg)
				defer ref.Close()
				defer win.Close()

				rng := rand.New(rand.NewSource(41))
				probeRNG := rand.New(rand.NewSource(42))
				var visited []geom.Vec3
				for _, origin := range walkPath(10) {
					scan := synthScan(rng, origin, 150)
					if err := ref.Insert(origin, scan); err != nil {
						t.Fatal(err)
					}
					if err := win.Insert(origin, scan); err != nil {
						t.Fatal(err)
					}
					visited = append(visited, scan[:5]...)
					// Probe fresh points, old (likely spilled) points, and
					// random space after every batch.
					probes := append([]geom.Vec3{}, scan[:5]...)
					probes = append(probes, visited[:min(len(visited), 10)]...)
					for i := 0; i < 10; i++ {
						probes = append(probes, geom.V(probeRNG.Float64()*25, probeRNG.Float64()*25, probeRNG.Float64()*25))
					}
					for _, p := range probes {
						rl, rk := ref.Occupancy(p)
						wl, wk := win.Occupancy(p)
						if rl != wl || rk != wk {
							t.Fatalf("Occupancy(%v) diverged: ref (%v,%v) windowed (%v,%v)", p, rl, rk, wl, wk)
						}
					}
					rh, rok := ref.CastRay(origin, geom.V(1, 0, 0), 10, true)
					wh, wok := win.CastRay(origin, geom.V(1, 0, 0), 10, true)
					if rh != wh || rok != wok {
						t.Fatalf("CastRay diverged: ref (%v,%v) windowed (%v,%v)", rh, rok, wh, wok)
					}
				}

				ws := win.WindowStats()
				if !ws.Enabled || ws.Evictions == 0 || ws.SpilledTiles == 0 {
					t.Fatalf("window never paged: %+v", ws)
				}
				if rs := ref.WindowStats(); rs.Enabled {
					t.Fatal("unwindowed map reports an enabled window")
				}

				var rb, wb bytes.Buffer
				if _, err := ref.WriteTo(&rb); err != nil {
					t.Fatal(err)
				}
				if _, err := win.WriteTo(&wb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rb.Bytes(), wb.Bytes()) {
					t.Fatal("windowed WriteTo bytes differ from unwindowed")
				}

				// Close flushes the cache but leaves the pager open: the
				// spilled portion must still fold into post-Close output.
				ref.Close()
				win.Close()
				rb.Reset()
				wb.Reset()
				if _, err := ref.WriteTo(&rb); err != nil {
					t.Fatal(err)
				}
				if _, err := win.WriteTo(&wb); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rb.Bytes(), wb.Bytes()) {
					t.Fatal("post-Close windowed WriteTo bytes differ")
				}
			})
		}
	}
}

func testConfigBackend(b BackendKind) Config {
	cfg := testConfig()
	cfg.Backend = b
	return cfg
}

// TestWindowBoundsMemory pins the point of the feature: the same
// traverse holds a windowed map's resident footprint strictly below the
// unbounded map's.
func TestWindowBoundsMemory(t *testing.T) {
	cfg := windowedConfig(t, 1)
	ref := mustEngine(t, KindSerial, testConfig())
	win := mustEngine(t, KindSerial, cfg)
	defer ref.Close()
	defer win.Close()

	rng := rand.New(rand.NewSource(9))
	for _, origin := range walkPath(16) {
		scan := synthScan(rng, origin, 250)
		if err := ref.Insert(origin, scan); err != nil {
			t.Fatal(err)
		}
		if err := win.Insert(origin, scan); err != nil {
			t.Fatal(err)
		}
	}
	refMem, winMem := ref.MemoryBytes(), win.MemoryBytes()
	if winMem >= refMem {
		t.Fatalf("windowed resident memory %d not below unbounded %d", winMem, refMem)
	}
	ws := win.WindowStats()
	if ws.SpilledTiles == 0 || ws.BytesOnDisk == 0 {
		t.Fatalf("bounded memory without spilling? %+v", ws)
	}
}

// TestRecenterExplicit drives the window by hand: recentering far away
// spills the mapped region, and queries transparently page it back.
func TestRecenterExplicit(t *testing.T) {
	cfg := windowedConfig(t, 1)
	m := mustEngine(t, KindSerial, cfg)
	defer m.Close()

	origin := geom.V(2, 2, 2)
	target := geom.V(4, 2, 2)
	if err := m.Insert(origin, []geom.Vec3{target}); err != nil {
		t.Fatal(err)
	}
	want, knownBefore := m.Occupancy(target)
	if !knownBefore {
		t.Fatal("endpoint unknown after insert")
	}

	// Drive the window to the far corner until the mapped tiles spill.
	for i := 0; i < 64; i++ {
		if err := m.Recenter(geom.V(23, 23, 23)); err != nil {
			t.Fatal(err)
		}
	}
	if ws := m.WindowStats(); ws.SpilledTiles == 0 {
		t.Fatalf("recenter spilled nothing: %+v", ws)
	}
	if got, known := m.Occupancy(target); !known || got != want {
		t.Fatalf("spilled region answered (%v,%v), want (%v,true)", got, known, want)
	}
	if ws := m.WindowStats(); ws.Reloads == 0 {
		t.Fatalf("query did not page the tile back: %+v", ws)
	}
	if err := m.WindowErr(); err != nil {
		t.Fatal(err)
	}
}

// TestMaxResidentTiles shows the cap evicting in-window tiles too.
func TestMaxResidentTiles(t *testing.T) {
	cfg := windowedConfig(t, 16) // window covers the whole cube
	cfg.Window.MaxResidentTiles = 4
	cfg.Window.MaxEvictPerCycle = 64
	m := mustEngine(t, KindSerial, cfg)
	defer m.Close()

	rng := rand.New(rand.NewSource(3))
	for _, origin := range walkPath(8) {
		if err := m.Insert(origin, synthScan(rng, origin, 200)); err != nil {
			t.Fatal(err)
		}
	}
	// Settle: each recenter evicts a bounded batch of LRU tiles.
	for i := 0; i < 32; i++ {
		if err := m.Recenter(geom.V(20, 20, 20)); err != nil {
			t.Fatal(err)
		}
	}
	if ws := m.WindowStats(); ws.ResidentTiles > cfg.Window.MaxResidentTiles {
		t.Fatalf("resident tiles %d exceed cap %d", ws.ResidentTiles, cfg.Window.MaxResidentTiles)
	}
}

// TestWindowPagerErrorSticky corrupts the tile file under a live map and
// checks the error contract: reads fall back to resident state, and the
// first mutator call after the failure surfaces a wrapped ErrPager that
// then sticks — distinct from ErrClosed.
func TestWindowPagerErrorSticky(t *testing.T) {
	cfg := windowedConfig(t, 1)
	m := mustEngine(t, KindSerial, cfg)
	defer m.Close()

	rng := rand.New(rand.NewSource(5))
	firstOrigin := walkPath(8)[0]
	firstScan := synthScan(rng, firstOrigin, 150)
	if err := m.Insert(firstOrigin, firstScan); err != nil {
		t.Fatal(err)
	}
	for _, origin := range walkPath(8)[1:] {
		if err := m.Insert(origin, synthScan(rng, origin, 150)); err != nil {
			t.Fatal(err)
		}
	}
	if ws := m.WindowStats(); ws.SpilledTiles == 0 {
		t.Fatalf("traverse spilled nothing: %+v", ws)
	}

	// Chop the tile file down to its magic: every frame becomes
	// unreadable, so the next page-in must fail.
	if err := os.Truncate(filepath.Join(cfg.Window.Dir, "map.log"), 8); err != nil {
		t.Fatal(err)
	}
	for _, p := range firstScan {
		m.Occupancy(p) // queries must not panic; they answer from resident state
	}
	err := m.WindowErr()
	if err == nil {
		t.Fatal("reload from a truncated file left no sticky error")
	}
	if !errors.Is(err, ErrPager) {
		t.Fatalf("sticky error %v does not wrap ErrPager", err)
	}
	if errors.Is(err, ErrClosed) {
		t.Fatal("pager error must not alias ErrClosed")
	}
	if ierr := m.Insert(firstOrigin, firstScan); !errors.Is(ierr, ErrPager) {
		t.Fatalf("Insert after pager failure = %v, want ErrPager", ierr)
	}
	if rerr := m.Recenter(firstOrigin); !errors.Is(rerr, ErrPager) {
		t.Fatalf("Recenter after pager failure = %v, want ErrPager", rerr)
	}
	var buf bytes.Buffer
	if _, werr := m.WriteTo(&buf); !errors.Is(werr, ErrPager) {
		t.Fatalf("WriteTo after pager failure = %v, want ErrPager", werr)
	}
	// Close still wins: the closed check precedes the sticky error.
	m.Close()
	if cerr := m.Insert(firstOrigin, firstScan); !errors.Is(cerr, ErrClosed) {
		t.Fatalf("Insert after Close = %v, want ErrClosed", cerr)
	}
}

func TestWindowStatsAdd(t *testing.T) {
	a := WindowStats{Enabled: true, ResidentTiles: 2, SpilledTiles: 3, Evictions: 4, Reloads: 5, BytesOnDisk: 6, MaxPause: 7}
	b := WindowStats{ResidentTiles: 10, SpilledTiles: 10, Evictions: 10, Reloads: 10, BytesOnDisk: 10, MaxPause: 2}
	got := a.Add(b)
	want := WindowStats{Enabled: true, ResidentTiles: 12, SpilledTiles: 13, Evictions: 14, Reloads: 15, BytesOnDisk: 16, MaxPause: 7}
	if got != want {
		t.Fatalf("Add = %+v, want %+v", got, want)
	}
}

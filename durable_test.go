package octocache

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// durableScans builds n small deterministic scans around a fixed origin.
func durableScans(n, points int) (Vec3, [][]Vec3) {
	origin := V(0, 0, 0.5)
	rng := rand.New(rand.NewSource(41))
	scans := make([][]Vec3, n)
	for i := range scans {
		pts := make([]Vec3, 0, points)
		for j := 0; j < points; j++ {
			ang := rng.Float64() * 2 * math.Pi
			r := 1 + rng.Float64()*2
			pts = append(pts, origin.Add(V(r*math.Cos(ang), r*math.Sin(ang), rng.Float64()-0.5)))
		}
		scans[i] = pts
	}
	return origin, scans
}

// prefixReference serializes the canonical map content after the first k
// scans: the surviving-prefix replay every recovery is compared against.
// Serialization is backend-, mode-, shard-, and window-invariant, so one
// serial reference serves the whole matrix.
func prefixReference(t *testing.T, origin Vec3, scans [][]Vec3, k int) []byte {
	t.Helper()
	ref := MustNew(Options{Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 10})
	for _, pts := range scans[:k] {
		if err := ref.Insert(origin, pts); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if _, err := ref.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	ref.Close()
	return buf.Bytes()
}

// copyDurableDir snapshots a durable store directory into a fresh temp
// directory — the crash injector's "surviving disk image".
func copyDurableDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func mapBytes(t *testing.T, m *Map) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := m.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDurableMatrixCrashRecovery is the crash-injection matrix: every
// backend × mode × shard-count combination runs with the WAL armed, the
// disk image is captured after every admitted batch (a process kill at a
// batch boundary — no Close, no final snapshot), and each image must
// Recover to a map bit-identical (probe queries and serialized bytes) to
// replaying exactly the batches that survived. A mid-stream Checkpoint
// exercises replay-over-snapshot, and the last recovery keeps ingesting
// to prove a recovered map is fully live.
func TestDurableMatrixCrashRecovery(t *testing.T) {
	const batches = 5
	origin, scans := durableScans(batches+1, 60)
	refs := make([][]byte, batches+2)
	for k := 1; k <= batches+1; k++ {
		refs[k] = prefixReference(t, origin, scans, k)
	}

	for _, backend := range []Backend{BackendOctree, BackendGrid} {
		for _, mode := range []Mode{ModeSerial, ModeParallel, ModeOctoMap} {
			for _, shards := range []int{0, 1, 8} {
				name := fmt.Sprintf("%v/mode=%d/shards=%d", backend, mode, shards)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					opts := Options{
						Resolution: 0.1, Mode: mode, Shards: shards,
						Backend: backend, CacheBuckets: 1 << 10,
						Durable: Durable{Dir: dir},
					}
					m := MustNew(opts)
					cuts := make([]string, batches)
					for i := 0; i < batches; i++ {
						if err := m.Insert(origin, scans[i]); err != nil {
							t.Fatalf("insert %d: %v", i, err)
						}
						if i == 2 {
							if err := m.Checkpoint(); err != nil {
								t.Fatalf("checkpoint: %v", err)
							}
						}
						cuts[i] = copyDurableDir(t, dir)
					}
					if ds := m.Stats().Durable; !ds.Enabled || ds.WALBatches == 0 {
						t.Fatalf("durable stats not accruing: %+v", ds)
					}
					m.Close()

					recOpts := opts
					recOpts.Durable.Dir = "" // inherit the recovery dir
					for i, cut := range cuts {
						r, err := Recover(cut, recOpts)
						if err != nil {
							t.Fatalf("cut %d: Recover: %v", i, err)
						}
						if got := mapBytes(t, r); !bytes.Equal(got, refs[i+1]) {
							t.Fatalf("cut %d: recovered bytes differ from %d-batch prefix replay", i, i+1)
						}
						// The aggregate LastSnapshotSeq is the minimum over
						// shards (a shard that saw no voxels pins it at 0),
						// so only the single-driver layout makes the
						// snapshot-cut recovery observable here.
						ds := r.Stats().Durable
						if shards == 0 && i >= 3 && ds.LastSnapshotSeq == 0 {
							t.Fatalf("cut %d: snapshot cut not recovered: %+v", i, ds)
						}
						if i == batches-1 {
							// A recovered map must remain fully live.
							if err := r.Insert(origin, scans[batches]); err != nil {
								t.Fatalf("post-recovery insert: %v", err)
							}
							if got := mapBytes(t, r); !bytes.Equal(got, refs[batches+1]) {
								t.Fatal("post-recovery insert diverged from reference")
							}
						}
						r.Close()
					}
				})
			}
		}
	}
}

// TestDurableTruncationSweep kills the log at arbitrary byte offsets —
// including mid-record, mid-header, and mid-CRC — and asserts recovery
// is always the longest surviving prefix of admitted batches: the
// recovered sequence number K is read back from Stats().Durable and the
// map's bytes must equal the K-batch replay exactly. A committed
// snapshot at batch 3 floors K at 3 no matter how short the log is cut.
func TestDurableTruncationSweep(t *testing.T) {
	const batches = 7
	origin, scans := durableScans(batches, 20)
	refs := make(map[uint64][]byte)
	for k := 1; k <= batches; k++ {
		refs[uint64(k)] = prefixReference(t, origin, scans, k)
	}

	for _, backend := range []Backend{BackendOctree, BackendGrid} {
		t.Run(fmt.Sprint(backend), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{
				Resolution: 0.1, Mode: ModeSerial, Backend: backend,
				CacheBuckets: 1 << 10, Durable: Durable{Dir: dir},
			}
			m := MustNew(opts)
			for i, pts := range scans {
				if err := m.Insert(origin, pts); err != nil {
					t.Fatal(err)
				}
				if i == 2 {
					if err := m.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// No Close: the crash image keeps its live WAL tail.
			base := copyDurableDir(t, dir)
			m.Close()

			logRaw, err := os.ReadFile(filepath.Join(base, "map.log"))
			if err != nil {
				t.Fatal(err)
			}
			snapRaw, err := os.ReadFile(filepath.Join(base, "map.snap"))
			if err != nil {
				t.Fatal(err)
			}

			recOpts := opts
			recOpts.Durable.Dir = ""
			work := t.TempDir()
			recoverAt := func(off int) *Map {
				t.Helper()
				if err := os.WriteFile(filepath.Join(work, "map.log"), logRaw[:off], 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(work, "map.snap"), snapRaw, 0o644); err != nil {
					t.Fatal(err)
				}
				r, err := Recover(work, recOpts)
				if err != nil {
					t.Fatalf("offset %d: Recover: %v", off, err)
				}
				return r
			}

			// Every byte offset across the last two frames, a coarse stride
			// across the rest (every offset is valid; the stride only bounds
			// runtime). Offsets below the 8-byte file magic are rejected as
			// a foreign file rather than recovered — separate test below.
			offsets := map[int]bool{8: true, len(logRaw): true}
			for off := 8; off < len(logRaw); off += 131 {
				offsets[off] = true
			}
			tail := len(logRaw) - 350
			if tail < 8 {
				tail = 8
			}
			for off := tail; off <= len(logRaw); off++ {
				offsets[off] = true
			}
			for off := range offsets {
				r := recoverAt(off)
				ds := r.Stats().Durable
				if ds.Seq < 3 || ds.Seq > batches {
					t.Fatalf("offset %d: recovered seq %d outside [3, %d]", off, ds.Seq, batches)
				}
				if got := mapBytes(t, r); !bytes.Equal(got, refs[ds.Seq]) {
					t.Fatalf("offset %d: recovered map differs from %d-batch prefix replay", off, ds.Seq)
				}
				r.Close()
			}

			// A flipped byte mid-frame ends the replayable prefix at the
			// corrupted frame, exactly like a truncation there.
			corrupt := make([]byte, len(logRaw))
			copy(corrupt, logRaw)
			corrupt[len(corrupt)-100] ^= 0xff
			if err := os.WriteFile(filepath.Join(work, "map.log"), corrupt, 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(work, "map.snap"), snapRaw, 0o644); err != nil {
				t.Fatal(err)
			}
			r, err := Recover(work, recOpts)
			if err != nil {
				t.Fatalf("corrupt frame: Recover: %v", err)
			}
			ds := r.Stats().Durable
			if got := mapBytes(t, r); !bytes.Equal(got, refs[ds.Seq]) {
				t.Fatalf("corrupt frame: recovered map differs from %d-batch prefix replay", ds.Seq)
			}
			r.Close()
		})
	}
}

// TestDurableCleanShutdownRecovery: Close commits a final consistent-cut
// snapshot, so a cleanly closed map recovers with zero batches to replay
// and identical bytes.
func TestDurableCleanShutdownRecovery(t *testing.T) {
	origin, scans := durableScans(4, 40)
	want := prefixReference(t, origin, scans, 4)

	for _, shards := range []int{0, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{
				Resolution: 0.1, Shards: shards, CacheBuckets: 1 << 10,
				Durable: Durable{Dir: dir},
			}
			m := MustNew(opts)
			for _, pts := range scans {
				if err := m.Insert(origin, pts); err != nil {
					t.Fatal(err)
				}
			}
			m.Close()

			recOpts := opts
			recOpts.Durable.Dir = ""
			r, err := Recover(dir, recOpts)
			if err != nil {
				t.Fatal(err)
			}
			ds := r.Stats().Durable
			if ds.ReplayedBatches != 0 {
				t.Errorf("clean shutdown replayed %d batches; want 0", ds.ReplayedBatches)
			}
			if shards == 0 && ds.LastSnapshotSeq == 0 {
				t.Errorf("clean shutdown left no snapshot: %+v", ds)
			}
			if got := mapBytes(t, r); !bytes.Equal(got, want) {
				t.Error("clean-shutdown recovery diverged from reference")
			}
			r.Close()
		})
	}
}

// TestDurableWindowSharedLog arms Window and Durable together: the spill
// frames and the WAL share one log per pipeline, recovery must still be
// bit-identical, and the two stats views must agree on the shared file.
func TestDurableWindowSharedLog(t *testing.T) {
	origin, scans := durableScans(5, 60)
	want := prefixReference(t, origin, scans, 5)

	dir := t.TempDir()
	opts := Options{
		Resolution: 0.1, Mode: ModeSerial, CacheBuckets: 1 << 10,
		Durable: Durable{Dir: dir, SnapshotEvery: 2},
		// Tight window + cap forces spills into the same log the WAL
		// writes to. Window.Dir stays empty: it inherits Durable.Dir.
		Window: Window{Radius: 2, TileDepth: 13, MaxResidentTiles: 4},
	}
	m := MustNew(opts)
	for _, pts := range scans {
		if err := m.Insert(origin, pts); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if !st.Window.Enabled || !st.Durable.Enabled {
		t.Fatalf("both policies should be live: %+v", st)
	}
	if st.Window.BytesOnDisk != st.Durable.BytesOnDisk {
		t.Errorf("window (%d) and durable (%d) disagree on the shared log size",
			st.Window.BytesOnDisk, st.Durable.BytesOnDisk)
	}
	if entries, err := os.ReadDir(dir); err == nil {
		logs := 0
		for _, e := range entries {
			if filepath.Ext(e.Name()) == ".log" {
				logs++
			}
		}
		if logs != 1 {
			t.Errorf("expected one shared log, found %d", logs)
		}
	}
	base := copyDurableDir(t, dir)
	m.Close()

	recOpts := opts
	recOpts.Durable.Dir = ""
	recOpts.Window.Dir = ""
	r, err := Recover(base, recOpts)
	if err != nil {
		t.Fatal(err)
	}
	if got := mapBytes(t, r); !bytes.Equal(got, want) {
		t.Error("windowed durable recovery diverged from reference")
	}
	r.Close()
}

// TestRecoverLayoutValidation: Recover checks the requested shape
// against the on-disk layout before opening any log, so a mismatched
// Shards option fails loudly instead of silently starting a fresh map.
func TestRecoverLayoutValidation(t *testing.T) {
	origin, scans := durableScans(1, 20)

	single := t.TempDir()
	m := MustNew(Options{Resolution: 0.1, CacheBuckets: 1 << 10, Durable: Durable{Dir: single}})
	m.Insert(origin, scans[0])
	m.Close()
	if _, err := Recover(single, Options{Resolution: 0.1, Shards: 4, CacheBuckets: 1 << 10}); err == nil {
		t.Error("recovering a single-driver dir with Shards=4 should fail")
	}

	sharded := t.TempDir()
	m = MustNew(Options{Resolution: 0.1, Shards: 4, CacheBuckets: 1 << 10, Durable: Durable{Dir: sharded}})
	m.Insert(origin, scans[0])
	m.Close()
	if _, err := Recover(sharded, Options{Resolution: 0.1, CacheBuckets: 1 << 10}); err == nil {
		t.Error("recovering a sharded dir with Shards=0 should fail")
	}
	if _, err := Recover(sharded, Options{Resolution: 0.1, Shards: 8, CacheBuckets: 1 << 10}); err == nil {
		t.Error("recovering a 4-shard dir with Shards=8 should fail")
	}
	if _, err := Recover(sharded, Options{Resolution: 0.1, Shards: 3, CacheBuckets: 1 << 10}); err != nil {
		t.Errorf("Shards=3 rounds up to the on-disk 4: %v", err)
	}

	// An empty directory is a fresh map, so services can Recover
	// unconditionally at startup.
	fresh, err := Recover(t.TempDir(), Options{Resolution: 0.1, CacheBuckets: 1 << 10})
	if err != nil {
		t.Fatalf("recovering an empty dir should start fresh: %v", err)
	}
	fresh.Close()
}

// TestDurableStickyError: a failed WAL append wears ErrDurable, stops
// further ingestion, and keeps the map queryable.
func TestDurableStickyError(t *testing.T) {
	origin, scans := durableScans(2, 30)
	dir := t.TempDir()
	m := MustNew(Options{Resolution: 0.1, CacheBuckets: 1 << 10, Durable: Durable{Dir: dir}})
	if err := m.Insert(origin, scans[0]); err != nil {
		t.Fatal(err)
	}
	probe := scans[0][0]
	occBefore, knownBefore := m.Occupancy(probe)

	// Yank the log out from under the store: the next append must fail.
	if err := os.Remove(filepath.Join(dir, "map.log")); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "map.log"), 0o755); err != nil {
		t.Fatal(err)
	}
	// Appends write through the already-open fd, so force the failure
	// via checkpoint (snapshot install renames into the directory).
	err := m.Checkpoint()
	if err == nil {
		t.Skip("filesystem allowed the snapshot install; cannot inject failure")
	}
	if !errors.Is(err, ErrDurable) {
		t.Fatalf("checkpoint error %v is not ErrDurable", err)
	}
	if err := m.Insert(origin, scans[1]); !errors.Is(err, ErrDurable) {
		t.Fatalf("insert after durable failure = %v; want ErrDurable", err)
	}
	if occ, known := m.Occupancy(probe); occ != occBefore || known != knownBefore {
		t.Error("map stopped answering queries after durable failure")
	}
}

// openFilesUnder counts this process's open descriptors on files under
// dir, or -1 where /proc/self/fd is unavailable.
func openFilesUnder(dir string) int {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return -1
	}
	n := 0
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			n++
		}
	}
	return n
}

// TestRecoverOpenFailuresReleaseEverything drives the three constructor
// error paths that used to leak — a later shard failing in shard.New, a
// recovery failing after the engine opened its log, and Open failing
// after the map was built — and demands that each returns with no
// descriptor left open under the directory (the per-engine logs) and no
// new goroutine (the ModeParallel appliers), then that the same
// directory opens cleanly once the cause is removed.
func TestRecoverOpenFailuresReleaseEverything(t *testing.T) {
	if openFilesUnder(os.TempDir()) < 0 {
		t.Skip("no /proc/self/fd: cannot observe leaked descriptors")
	}
	origin, scans := durableScans(3, 60)
	want := prefixReference(t, origin, scans, 3)
	// image returns a cleanly closed durable map's directory, copied so
	// this process holds nothing open under it.
	image := func(t *testing.T, opts Options) string {
		t.Helper()
		opts.Durable = Durable{Dir: t.TempDir()}
		m := MustNew(opts)
		for _, pts := range scans {
			if err := m.Insert(origin, pts); err != nil {
				t.Fatal(err)
			}
		}
		m.Close()
		return copyDurableDir(t, opts.Durable.Dir)
	}
	single := Options{Resolution: 0.1, CacheBuckets: 1 << 10}
	sharded := Options{Resolution: 0.1, Shards: 4, CacheBuckets: 1 << 10}

	for _, tc := range []struct {
		name string
		// setup prepares dir so that fail's constructor errors, and
		// returns the repair after which reopen must succeed.
		setup  func(t *testing.T) (dir string, repair func())
		fail   func(dir string) (*Map, error)
		reopen func(dir string) (*Map, error)
	}{
		{
			name: "shard.New/later-shard-fails",
			setup: func(t *testing.T) (string, func()) {
				dir := image(t, sharded)
				log := filepath.Join(dir, "shard-003.log")
				good, err := os.ReadFile(log)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(log, []byte("not an octocache log"), 0o644); err != nil {
					t.Fatal(err)
				}
				return dir, func() { os.WriteFile(log, good, 0o644) }
			},
			fail:   func(dir string) (*Map, error) { return Recover(dir, sharded) },
			reopen: func(dir string) (*Map, error) { return Recover(dir, sharded) },
		},
		{
			name:  "newEngine/recovery-fails-after-open",
			setup: func(t *testing.T) (string, func()) { return image(t, single), func() {} },
			fail: func(dir string) (*Map, error) {
				// The snapshot on disk was cut at 0.1 m: loading it into a
				// 0.2 m engine fails once the log is already open.
				wrong := single
				wrong.Resolution = 0.2
				return Recover(dir, wrong)
			},
			reopen: func(dir string) (*Map, error) { return Recover(dir, single) },
		},
		{
			name: "Open/checkpoint-fails-after-build",
			setup: func(t *testing.T) (string, func()) {
				// Open's first checkpoint writes map.snap.tmp; a directory
				// squatting on the name fails it.
				dir := t.TempDir()
				block := filepath.Join(dir, "map.snap.tmp")
				if err := os.MkdirAll(filepath.Join(block, "x"), 0o755); err != nil {
					t.Fatal(err)
				}
				return dir, func() { os.RemoveAll(block) }
			},
			fail: func(dir string) (*Map, error) {
				opts := single
				opts.Durable = Durable{Dir: dir}
				return Open(bytes.NewReader(want), opts)
			},
			reopen: func(dir string) (*Map, error) {
				opts := single
				opts.Durable = Durable{Dir: dir}
				return Open(bytes.NewReader(want), opts)
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir, repair := tc.setup(t)
			goroutines := runtime.NumGoroutine()
			if m, err := tc.fail(dir); err == nil {
				m.Close()
				t.Fatal("sabotaged constructor succeeded; the test exercises nothing")
			}
			if n := openFilesUnder(dir); n > 0 {
				t.Errorf("failed constructor left %d file(s) open under %s", n, dir)
			}
			// Stopped appliers exit asynchronously once their channel
			// closes; a leaked one never does.
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > goroutines {
				t.Errorf("failed constructor left %d goroutine(s) running", n-goroutines)
			}

			repair()
			m, err := tc.reopen(dir)
			if err != nil {
				t.Fatalf("same directory after repair: %v", err)
			}
			defer m.Close()
			if got := mapBytes(t, m); !bytes.Equal(got, want) {
				t.Errorf("reopened map serializes %d bytes, want the reference's %d", len(got), len(want))
			}
		})
	}
}

package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"

	"octocache/internal/durable"
	"octocache/internal/raytrace"
)

// ErrDurable marks failures of a durable map's log or snapshot store:
// errors wrapping it surface on Insert, Checkpoint, and map recovery
// when a WAL append, snapshot write, or recovery read hits an I/O error
// or on-disk corruption. Like ErrPager the error is sticky — the on-disk
// history is incomplete, so the map keeps answering queries but stops
// accepting observations rather than diverging from its log.
var ErrDurable = errors.New("octocache: durable store failure")

// SyncPolicy selects when WAL appends reach stable storage; see the
// constants.
type SyncPolicy = durable.SyncPolicy

const (
	// SyncNone (the default) leaves WAL durability to the OS page cache:
	// a process crash loses nothing, a power loss may lose the most
	// recent batches. Snapshot and log-compaction commits always fsync.
	SyncNone = durable.SyncNone
	// SyncEveryBatch fsyncs the log after every admitted batch, bounding
	// power-loss data loss to the batch in flight at the cost of one
	// device flush per scan.
	SyncEveryBatch = durable.SyncEveryBatch
)

// Durable is the persistence policy: every admitted observation batch is
// appended to a per-pipeline write-ahead log before it is applied, and
// consistent-cut snapshots bound replay length. A map constructed with
// DurableRecover set replays the log over the last snapshot, restoring
// exactly the admitted prefix that survived on disk. The zero value
// disables durability.
type Durable struct {
	// Dir is the directory holding the log and snapshot files. Non-empty
	// enables durability; created if absent. A windowed map shares this
	// store with its spill frames (one log carries both record kinds), so
	// when both policies are set Window.Dir must be empty or equal.
	Dir string
	// Sync selects the WAL fsync cadence. The zero value is SyncNone.
	Sync SyncPolicy
	// SnapshotEvery takes a background consistent-cut snapshot after
	// every N admitted batches, retiring the WAL frames it covers. 0
	// disables automatic snapshots; explicit Checkpoint calls always run.
	SnapshotEvery int
}

// Enabled reports whether the policy actually makes the map durable.
func (d Durable) Enabled() bool { return d.Dir != "" }

// Validate checks the policy.
func (d Durable) Validate() error {
	if !d.Enabled() {
		return nil
	}
	if d.Sync != SyncNone && d.Sync != SyncEveryBatch {
		return fmt.Errorf("core: unknown Durable.Sync policy %v", d.Sync)
	}
	if d.SnapshotEvery < 0 {
		return fmt.Errorf("core: Durable.SnapshotEvery must be >= 0, got %d", d.SnapshotEvery)
	}
	return nil
}

// DurableStats reports a durable map's logging activity. The sharded
// service aggregates per-shard stats with Add.
type DurableStats struct {
	// Enabled mirrors the policy: false means the map is not durable and
	// every other field is zero.
	Enabled bool `json:"enabled"`
	// Seq is the sequence number of the last admitted-and-logged batch.
	// For a sharded map Add reports the minimum across shards — the
	// sequence the whole map is guaranteed durable through.
	Seq uint64 `json:"seq"`
	// LastSnapshotSeq is the cut the last committed snapshot covers (0
	// before the first); minimum across shards under Add.
	LastSnapshotSeq uint64 `json:"last_snapshot_seq"`
	// WALBytes is the log space held by batches not yet covered by a
	// snapshot — what recovery would replay.
	WALBytes int64 `json:"wal_bytes"`
	// WALBatches counts batches appended over the map's lifetime.
	WALBatches int64 `json:"wal_batches"`
	// Snapshots counts committed snapshots.
	Snapshots int64 `json:"snapshots"`
	// ReplayedBatches counts batches replayed when this map was
	// recovered (0 for a fresh map).
	ReplayedBatches int64 `json:"replayed_batches"`
	// BytesOnDisk is the log's file size. With a window armed the log
	// also carries spill frames, so this equals WindowStats.BytesOnDisk.
	BytesOnDisk int64 `json:"bytes_on_disk"`
}

// Add returns the aggregate of two snapshots: counters sum; the sequence
// fields take the minimum over enabled sides, because a sharded map is
// only durable (and snapshotted) through its furthest-behind shard.
func (s DurableStats) Add(o DurableStats) DurableStats {
	if !s.Enabled {
		return o
	}
	if !o.Enabled {
		return s
	}
	out := DurableStats{
		Enabled:         true,
		Seq:             s.Seq,
		LastSnapshotSeq: s.LastSnapshotSeq,
		WALBytes:        s.WALBytes + o.WALBytes,
		WALBatches:      s.WALBatches + o.WALBatches,
		Snapshots:       s.Snapshots + o.Snapshots,
		ReplayedBatches: s.ReplayedBatches + o.ReplayedBatches,
		BytesOnDisk:     s.BytesOnDisk + o.BytesOnDisk,
	}
	if o.Seq < out.Seq {
		out.Seq = o.Seq
	}
	if o.LastSnapshotSeq < out.LastSnapshotSeq {
		out.LastSnapshotSeq = o.LastSnapshotSeq
	}
	return out
}

// ScanDurableDir reports which logs a durable directory holds: whether
// the single-driver log ("map") exists, and how many per-shard logs
// ("shard-NNN") were found. The public Recover uses it to check the
// requested shape against the on-disk layout before any log is opened
// (opening with the wrong tag would silently start a fresh empty log).
// A missing directory reports none — callers decide whether that means
// "fresh map" or an error.
func ScanDurableDir(dir string) (single bool, shards int, err error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return false, 0, nil
	}
	if err != nil {
		return false, 0, err
	}
	for _, e := range entries {
		name := e.Name()
		if name == durable.LogName("map") {
			single = true
			continue
		}
		if strings.HasPrefix(name, "shard-") && strings.HasSuffix(name, ".log") {
			shards++
		}
	}
	return single, shards, nil
}

// durableState is an engine's durability machinery. The sequence counter
// and snapshot cadence mutate only in the mutator role; stats readers
// load the atomics. The sticky error mirrors windowState's: a background
// snapshot writer may set it concurrently with queries, so it has its
// own mutex behind an atomic fast-path guard.
type durableState struct {
	pol   Durable
	store *durable.Store

	seq       atomic.Uint64 // last appended batch sequence
	sinceSnap int           // batches since the last snapshot cut (mutator-side)
	replayed  atomic.Int64  // batches replayed at recovery

	// snapBusy + snapWG bound background snapshot writes to one in
	// flight: a cadence trigger while busy is skipped (the next batch
	// retries), and Close/Checkpoint wait before writing their own.
	snapBusy atomic.Bool
	snapWG   sync.WaitGroup

	hasErr atomic.Bool
	errMu  sync.Mutex
	err    error
}

// setErr records the first durable-store failure; later ones are
// dropped.
func (d *durableState) setErr(err error) {
	d.errMu.Lock()
	if d.err == nil {
		d.err = fmt.Errorf("%w: %v", ErrDurable, err)
		d.hasErr.Store(true)
	}
	d.errMu.Unlock()
}

// loadErr returns the sticky error; the atomic guard keeps the healthy
// fast path lock-free.
func (d *durableState) loadErr() error {
	if !d.hasErr.Load() {
		return nil
	}
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.err
}

// appendWAL logs one admitted batch under the next sequence number —
// called in the mutator role after the batch's tiles are resident and
// BEFORE the batch reaches the cache or store, so the log never lags
// applied state. An append failure is sticky: the batch is not admitted
// and the map stops accepting observations.
func (d *durableState) appendWAL(batch []raytrace.Voxel) error {
	seq := d.seq.Load() + 1
	if err := d.store.AppendBatch(seq, batch); err != nil {
		d.setErr(err)
		return d.loadErr()
	}
	d.seq.Store(seq)
	d.sinceSnap++
	return nil
}

// maybeCheckpoint starts a background snapshot when the cadence is due
// and no snapshot write is in flight. Mutator role.
func (e *Engine) maybeCheckpoint() {
	d := e.dur
	if d == nil || d.pol.SnapshotEvery <= 0 || d.sinceSnap < d.pol.SnapshotEvery || d.snapBusy.Load() {
		return
	}
	// The cut: the applier has applied every announced batch after
	// admit's handshake, and Snapshot folds store + cache + spilled tiles
	// under the read lock — a consistent image of exactly seq batches.
	cut := d.seq.Load()
	snap := e.Snapshot()
	d.sinceSnap = 0
	d.snapBusy.Store(true)
	d.snapWG.Add(1)
	go func() {
		defer d.snapWG.Done()
		defer d.snapBusy.Store(false)
		if err := d.store.WriteSnapshot(cut, snap); err != nil {
			d.setErr(err)
		}
	}()
}

// Checkpoint takes a consistent-cut snapshot now and waits for it to
// commit, retiring the WAL it covers. A mutator call; a no-op without a
// Durable policy. Returns ErrClosed after Close and any sticky durable
// error.
func (e *Engine) Checkpoint() error {
	if e.closed {
		return ErrClosed
	}
	d := e.dur
	if d == nil {
		return nil
	}
	if err := d.loadErr(); err != nil {
		return err
	}
	d.snapWG.Wait() // one snapshot writer at a time
	cut := d.seq.Load()
	snap := e.Snapshot()
	d.sinceSnap = 0
	if err := d.store.WriteSnapshot(cut, snap); err != nil {
		d.setErr(err)
		return d.loadErr()
	}
	return nil
}

// DurableStats snapshots logging activity; zero without a Durable policy.
func (e *Engine) DurableStats() DurableStats {
	d := e.dur
	if d == nil {
		return DurableStats{}
	}
	st := d.store.Stats()
	return DurableStats{
		Enabled:         true,
		Seq:             d.seq.Load(),
		LastSnapshotSeq: st.SnapshotSeq,
		WALBytes:        st.WALBytes,
		WALBatches:      st.WALBatches,
		Snapshots:       st.Snapshots,
		ReplayedBatches: d.replayed.Load(),
		BytesOnDisk:     st.BytesOnDisk,
	}
}

// recoverFrom restores the engine from what Recover found on disk: the
// last snapshot is loaded leaf-by-leaf, then the surviving WAL batches
// replay through the normal admit path — the same cache/applier/backend
// route live batches take, so the recovered map is bit-identical (query
// answers and serialized bytes) to one that ingested only the surviving
// prefix. Runs once during construction, before the engine is visible to
// any other goroutine.
func (e *Engine) recoverFrom(rec *durable.Recovered) error {
	d := e.dur
	if rec.HasSnapshot {
		snap, err := ReadSnapshot(bytes.NewReader(rec.Snapshot))
		if err != nil {
			return fmt.Errorf("%w: recovering snapshot: %v", ErrDurable, err)
		}
		if err := e.loadSnapshot(snap); err != nil {
			return err
		}
	}
	// ReplayBatches holds the store lock across the callback; the admit
	// path never touches the durable store here — nothing is spilled on a
	// freshly recovered map (Recover retires tile frames) and replay does
	// not recenter, so no reload or spill can occur mid-replay.
	err := d.store.ReplayBatches(func(seq uint64, batch []raytrace.Voxel) error {
		e.evictAndHandOff()
		if e.win != nil {
			if rerr := e.ensureResident(batch); rerr != nil {
				return rerr
			}
		}
		e.admit(batch)
		d.replayed.Add(1)
		return nil
	})
	if err != nil {
		return fmt.Errorf("%w: replaying log: %v", ErrDurable, err)
	}
	d.seq.Store(rec.MaxSeq)
	return nil
}

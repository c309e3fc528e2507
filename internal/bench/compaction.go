package bench

import (
	"fmt"
	"time"

	"octocache/internal/core"
	"octocache/internal/dataset"
)

func init() {
	register(Experiment{
		ID:    "abl-compact",
		Title: "Ablation: arena compaction — fragmentation and insert latency before/after on a prune-heavy stream",
		Run:   runAblCompact,
	})
}

// runAblCompact measures what online compaction buys. The map is built
// from the dataset, then pushed through a prune-heavy phase: every scan
// is replayed several more times, so free-space voxels saturate to the
// clamp minimum and whole octants collapse, loading the arena free
// lists. We then time a fixed probe slice of re-inserted scans against
// the fragmented arena, compact, and time the same slice against the
// dense Morton-ordered arena.
func runAblCompact(opt Options) ([]*Table, error) {
	t := &Table{
		Title: "Ablation: arena compaction on a prune-heavy stream",
		Note: "'frag' is the free fraction of arena slots (pruning churn). Compact rewrites the\n" +
			"arena into a dense DFS/Morton-ordered prefix: capacity drops by the free share and\n" +
			"subsequent inserts walk a denser, locality-ordered node layout.",
		Header: []string{"dataset", "frag before", "frag after", "capacity", "compacted", "pause", "insert/scan pre", "insert/scan post"},
	}
	for _, name := range dataset.Names() {
		ds, err := loadDataset(name, opt.scale())
		if err != nil {
			return nil, err
		}
		opt.logf("abl-compact: %s", name)
		res := referenceResolution(name)
		cfg := constructionConfig(ds, res, false, opt)
		m, err := core.NewEngine(core.KindSerial, cfg)
		if err != nil {
			return nil, err
		}
		// First pass builds the map; the repeats are the prune-heavy
		// phase: re-observation saturates free space and collapses
		// octants into the free lists.
		for rep := 0; rep < 4; rep++ {
			for _, s := range ds.Scans {
				m.Insert(s.Origin, s.Points)
			}
		}

		probe := ds.Scans
		if len(probe) > 30 {
			probe = probe[:30]
		}
		before := m.ArenaStats()
		pre := timeScans(m, probe)
		if err := m.Compact(); err != nil {
			return nil, err
		}
		after := m.ArenaStats()
		post := timeScans(m, probe)
		cs := m.CompactionStats()
		m.Close()

		t.AddRow(
			name,
			fmtPct(before.Fragmentation()),
			fmtPct(after.Fragmentation()),
			fmt.Sprintf("%d -> %d", before.Capacity, after.Capacity),
			fmt.Sprintf("%d slots", cs.SlotsReclaimed),
			fmtDur(cs.LastDuration.Seconds()),
			fmtDur(pre.Seconds()/float64(len(probe))),
			fmtDur(post.Seconds()/float64(len(probe))),
		)
	}
	return []*Table{t}, nil
}

// timeScans re-inserts the probe scans once and returns the wall time.
// The scans are already mapped, so the work is the steady-state path:
// cache hits plus τ-bounded evictions into the octree.
func timeScans(m core.Mapper, scans []dataset.Scan) time.Duration {
	start := time.Now()
	for _, s := range scans {
		m.Insert(s.Origin, s.Points)
	}
	return time.Since(start)
}

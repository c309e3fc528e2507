package core

import "time"

// CompactionStats accumulates a pipeline's arena-compaction activity:
// how often the octree arenas were rebuilt into a dense prefix, how many
// slots that released, and how long the last (stop-the-shard) rebuild
// took. The sharded service sums these per shard; the public API
// surfaces them as Stats.Compaction.
type CompactionStats struct {
	// Runs counts completed compactions (automatic and explicit).
	Runs int64
	// SlotsReclaimed totals the free-listed arena slots released across
	// all runs (node slots plus 8-handle child blocks).
	SlotsReclaimed int64
	// LastDuration is the wall time of the most recent run — the pause
	// producers on the compacted shard experienced.
	LastDuration time.Duration
}

// Add merges two snapshots: counts sum, LastDuration keeps the larger
// value so a multi-shard aggregate reports the worst recent pause.
func (c CompactionStats) Add(o CompactionStats) CompactionStats {
	last := c.LastDuration
	if o.LastDuration > last {
		last = o.LastDuration
	}
	return CompactionStats{
		Runs:           c.Runs + o.Runs,
		SlotsReclaimed: c.SlotsReclaimed + o.SlotsReclaimed,
		LastDuration:   last,
	}
}

// ArenaStats snapshots an octree's arena occupancy — the quantity a
// CompactionPolicy watches and a compaction improves.
type ArenaStats struct {
	// LiveNodes is the number of reachable octree nodes.
	LiveNodes int
	// FreeSlots counts recycled arena slots awaiting reuse.
	FreeSlots int
	// Capacity is the arena's total node slots: LiveNodes + FreeSlots.
	Capacity int
	// Bytes estimates the arena's heap footprint.
	Bytes int64
}

// Occupancy is the live fraction of the arena, 1 for a dense (or empty)
// arena.
func (a ArenaStats) Occupancy() float64 {
	if a.Capacity == 0 {
		return 1
	}
	return float64(a.LiveNodes) / float64(a.Capacity)
}

// Fragmentation is the free fraction of the arena — the value compared
// against CompactionPolicy.MinFreeFraction.
func (a ArenaStats) Fragmentation() float64 {
	if a.Capacity == 0 {
		return 0
	}
	return float64(a.FreeSlots) / float64(a.Capacity)
}

// Add sums two snapshots, for multi-shard aggregation.
func (a ArenaStats) Add(o ArenaStats) ArenaStats {
	return ArenaStats{
		LiveNodes: a.LiveNodes + o.LiveNodes,
		FreeSlots: a.FreeSlots + o.FreeSlots,
		Capacity:  a.Capacity + o.Capacity,
		Bytes:     a.Bytes + o.Bytes,
	}
}

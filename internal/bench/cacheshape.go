package bench

import (
	"fmt"
	"time"

	"octocache/internal/cache"
	"octocache/internal/core"
	"octocache/internal/dataset"
)

func init() {
	register(Experiment{
		ID:    "fig23",
		Title: "Figure 23: cache hit ratio vs cache size — hit rate plateaus once duplication is exhausted",
		Run:   runFig23,
	})
	register(Experiment{
		ID:    "fig24",
		Title: "Figure 24: construction time and hit ratio vs bucket depth τ at fixed capacity",
		Run:   runFig24,
	})
	register(Experiment{
		ID:    "abl-order",
		Title: "Ablation: eviction ordering (bucket-scan vs full Morton sort) and bucket indexing (hash vs Morton)",
		Run:   runAblOrder,
	})
}

func runFig23(opt Options) ([]*Table, error) {
	t := &Table{
		Title: "Figure 23: hit ratio rises to a limit as cache size grows",
		Note: "Cache memory uses the paper's 7-byte cell accounting; octree memory is the final tree.\n" +
			"The paper observes >93% hit rate at 0.23% of the octree size on dataset 3.",
		Header: []string{"dataset", "buckets(w)", "cache cap", "hit rate", "cache mem", "octree mem", "cache/octree"},
	}
	for _, name := range dataset.Names() {
		ds, err := loadDataset(name, opt.scale())
		if err != nil {
			return nil, err
		}
		res := referenceResolution(name)
		ref := bucketsFor(ds, res, 4)
		for _, mult := range []float64{0.03125, 0.125, 0.5, 1, 4, 16} {
			w := int(float64(ref) * mult)
			if w < 16 {
				w = 16
			}
			opt.logf("fig23: %s w=%d", name, w)
			cfg := constructionConfig(ds, res, false, opt)
			cfg.CacheBuckets = w
			m := core.MustNew(core.KindSerial, cfg)
			_, cs := replay(m, ds)
			treeMem := m.MemoryBytes()
			cacheMem := int64(cfg.CacheBuckets) * int64(cfg.CacheTau) * cache.NominalBytes
			frac := 0.0
			if treeMem > 0 {
				frac = float64(cacheMem) / float64(treeMem)
			}
			t.AddRow(
				name,
				fmt.Sprint(roundPow2(w)),
				fmt.Sprint(roundPow2(w)*cfg.CacheTau),
				fmtPct(cs.HitRate()),
				fmtBytes(cacheMem),
				fmtBytes(treeMem),
				fmtPct(frac),
			)
		}
	}
	return []*Table{t}, nil
}

func runFig24(opt Options) ([]*Table, error) {
	t := &Table{
		Title: "Figure 24: map construction time and hit ratio vs τ (fixed capacity M = w·τ)",
		Note: "Small τ forces early evictions via collisions; large τ lengthens in-bucket searches.\n" +
			"The paper finds τ between 2 and 4 optimal.",
		Header: []string{"dataset", "tau", "buckets(w)", "construction", "hit rate"},
	}
	for _, name := range dataset.Names() {
		ds, err := loadDataset(name, opt.scale())
		if err != nil {
			return nil, err
		}
		res := referenceResolution(name)
		capacity := roundPow2(bucketsFor(ds, res, 4)) * 4 // cells at the τ=4 reference shape
		for _, tau := range []int{1, 2, 4, 8, 16} {
			w := capacity / tau
			if w < 16 {
				w = 16
			}
			opt.logf("fig24: %s tau=%d", name, tau)
			cfg := constructionConfig(ds, res, false, opt)
			cfg.CacheTau = tau
			cfg.CacheBuckets = w
			dur := timeReplay(core.KindSerial, cfg, ds)
			m := core.MustNew(core.KindSerial, cfg)
			_, cs := replay(m, ds)
			t.AddRow(
				name,
				fmt.Sprint(tau),
				fmt.Sprint(roundPow2(w)),
				fmtDur(dur.Seconds()),
				fmtPct(cs.HitRate()),
			)
		}
	}
	return []*Table{t}, nil
}

func runAblOrder(opt Options) ([]*Table, error) {
	t := &Table{
		Title: "Ablation: bucket indexing and eviction ordering",
		Note: "morton/bucket-scan is the paper's design; hash indexing scrambles eviction locality, and\n" +
			"a full Morton sort recovers it at O(n log n) eviction cost.",
		Header: []string{"dataset", "index", "evict order", "construction", "hit rate"},
	}
	variants := []struct {
		index cache.IndexMode
		order cache.EvictOrder
	}{
		{cache.MortonIndex, cache.OrderBucketScan},
		{cache.MortonIndex, cache.OrderMorton},
		{cache.HashIndex, cache.OrderBucketScan},
		{cache.HashIndex, cache.OrderMorton},
	}
	for _, name := range dataset.Names() {
		ds, err := loadDataset(name, opt.scale())
		if err != nil {
			return nil, err
		}
		res := referenceResolution(name)
		for _, v := range variants {
			opt.logf("abl-order: %s %v/%v", name, v.index, v.order)
			cfg := constructionConfig(ds, res, false, opt)
			cfg.CacheIndex = v.index
			cfg.EvictOrder = v.order
			dur := timeReplay(core.KindSerial, cfg, ds)
			m := core.MustNew(core.KindSerial, cfg)
			_, cs := replay(m, ds)
			t.AddRow(name, v.index.String(), v.order.String(), fmtDur(dur.Seconds()), fmtPct(cs.HitRate()))
		}
	}
	return []*Table{t}, nil
}

func roundPow2(w int) int {
	n := 1
	for n < w {
		n <<= 1
	}
	return n
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

func init() {
	register(Experiment{
		ID:    "abl-arena",
		Title: "Ablation: octree arena occupancy and footprint after construction",
		Run:   runAblArena,
	})
}

func runAblArena(opt Options) ([]*Table, error) {
	t := &Table{
		Title: "Ablation: octree arena occupancy after dataset construction",
		Note: "Nodes live in contiguous handle-addressed arenas; pruning recycles slots through\n" +
			"free lists instead of the GC. 'free' slots are pruning churn awaiting reuse, so\n" +
			"live/capacity is the arena's steady-state occupancy.",
		Header: []string{"dataset", "pipeline", "construction", "live", "free", "capacity", "bytes"},
	}
	for _, name := range dataset.Names() {
		ds, err := loadDataset(name, opt.scale())
		if err != nil {
			return nil, err
		}
		res := referenceResolution(name)
		for _, kind := range []core.Kind{core.KindOctoMap, core.KindSerial} {
			opt.logf("abl-arena: %s/%v", name, kind)
			cfg := constructionConfig(ds, res, false, opt)
			m, err := core.NewEngine(kind, cfg)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for _, s := range ds.Scans {
				m.Insert(s.Origin, s.Points)
			}
			m.Close()
			dur := time.Since(start)
			as := m.ArenaStats()
			t.AddRow(name, kind.String(), fmtDur(dur.Seconds()),
				fmt.Sprint(as.LiveNodes), fmt.Sprint(as.FreeSlots), fmt.Sprint(as.Capacity),
				fmtBytes(as.Bytes))
		}
	}
	return []*Table{t}, nil
}

package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"octocache"
	"octocache/internal/core"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, because that is what the
// acceptance driver judges a metric's spread with.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !near(q1, 2.75) || !near(q3, 8.25) {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 30})
	if !near(q1, 5) || !near(q3, 35) {
		t.Errorf("quartiles(10,30) = %v, %v; want 5, 35", q1, q3)
	}
	if s := spread([]float64{98, 100, 102, 100, 100}); !near(s, 0.02) {
		t.Errorf("spread = %v, want 0.02", s)
	}
}

func TestSelfTimes(t *testing.T) {
	got := selfTimes([]float64{10, 20, 30}, []float64{4, 25, 30})
	want := []float64{6, -5, 0} // a faster parent than child is reported, not hidden
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("selfTimes = %v, want %v", got, want)
		}
	}
	if ratio(1, 0) != 0 || ratio(6, 3) != 2 {
		t.Error("ratio")
	}
}

func TestVerdict(t *testing.T) {
	steady := func(m float64) []float64 { return []float64{m * 0.99, m, m * 1.01, m, m} }
	for _, c := range []struct {
		name     string
		old, new []float64
		higher   bool
		want     string
	}{
		{"within bound", steady(100), steady(105), false, "ok"},
		{"slower latency", steady(100), steady(115), false, "REGRESSION"},
		{"faster latency", steady(100), steady(80), false, "better"},
		{"lower throughput", steady(100), steady(85), true, "REGRESSION"},
		{"higher throughput", steady(100), steady(120), true, "better"},
		{"noisy side", []float64{60, 100, 140, 100, 100}, steady(150), false, "unresolved"},
		{"one run a side", []float64{100}, []float64{130}, false, "unresolved"},
		{"one run on one side", steady(100), []float64{70}, false, "unresolved"},
		{"every op failed", steady(100), []float64{0, 0, 0}, false, "unresolved"},
	} {
		if _, got := verdict(c.old, c.new, c.higher, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareFiles covers what -compare decides from whole files: a
// workload or metric that vanished is a regression, single runs settle
// nothing, and files of different shapes are refused.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, results ...result) string {
		path := filepath.Join(dir, name)
		if err := writeResultFile(path, resultFile{Results: results}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	run := func(wl string, passes int, metrics map[string]float64) result {
		r := result{Workload: wl, Passes: passes, Scans: 264, Attempted: 10, Metrics: map[string]metricValue{}}
		for n, v := range metrics {
			r.Metrics[n] = metricValue{Value: v}
		}
		return r
	}
	both := map[string]float64{"setup_s": 1, "recover_s": 0.05}
	old := write("old.json", run("a", 9, both), run("a", 9, both), run("b", 9, both), run("b", 9, both))
	spec := filepath.Join("..", "BENCHMARK.json")
	for _, c := range []struct {
		name          string
		new           string
		regressed, ok bool
	}{
		{"same", old, false, true},
		{"workload gone", write("gone.json", run("a", 9, both), run("a", 9, both)), true, true},
		{"metric gone", write("metric.json",
			run("a", 9, map[string]float64{"setup_s": 1}), run("a", 9, map[string]float64{"setup_s": 1}),
			run("b", 9, both), run("b", 9, both)), true, true},
		{"one slow run settles nothing", write("single.json",
			run("a", 9, map[string]float64{"setup_s": 2, "recover_s": 0.1}), run("b", 9, both)), false, true},
		{"other shape", write("shape.json", run("a", 1, both), run("b", 9, both)), false, false},
	} {
		regressed, err := compareFiles(io.Discard, spec, old, c.new)
		if (err == nil) != c.ok || regressed != c.regressed {
			t.Errorf("%s: regressed=%v err=%v, want regressed=%v ok=%v", c.name, regressed, err, c.regressed, c.ok)
		}
	}
}

// TestReplayMatchesSerialPipeline is the layer replay's licence to
// attribute: on a 20-scan stream its final store, flushed and
// serialized, is byte-identical to core's KindSerial pipeline, for both
// stores and both tracers.
func TestReplayMatchesSerialPipeline(t *testing.T) {
	ws := workloads()
	for _, c := range []struct {
		name    string
		w       *workload
		backend core.BackendKind
		trace   core.TraceMode
	}{
		{"octree-dda", ws[0], core.BackendOctree, core.TraceDDA},
		{"grid-boundary", ws[2], core.BackendGrid, core.TraceBoundary},
		{"octree-evicting", ws[1], core.BackendOctree, core.TraceDDA},
	} {
		t.Run(c.name, func(t *testing.T) {
			w := c.w.smoke()
			d := w.generate(7, 20)
			cfg := coreConfig(w.opts)
			cfg.Backend, cfg.Trace = c.backend, c.trace
			cfg.CacheBuckets = 1 << 8 // small enough that the stream evicts

			ser, err := core.New(core.KindSerial, cfg)
			if err != nil {
				t.Fatal(err)
			}
			rp := newReplay(cfg)
			for i, sc := range d.Scans {
				if err := ser.Insert(sc.Origin, sc.Points); err != nil {
					t.Fatal(err)
				}
				rp.insert(i, sc.Origin, sc.Points)
			}
			ser.Close()
			rp.flush()
			if rp.evicted == 0 || rp.cache.Stats().Evicted == 0 {
				t.Fatal("stream never evicted; the test would not cover the apply stage")
			}
			var want, got bytes.Buffer
			if _, err := ser.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			if _, err := writeStore(rp.store, cfg.Octree, &got); err != nil {
				t.Fatal(err)
			}
			if want.Len() == 0 || !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Errorf("replay serialized %d bytes, serial pipeline %d: not identical", got.Len(), want.Len())
			}
		})
	}
}

// TestSpecMatchesTables keeps BENCHMARK.json and the program's own
// tables in step: the workloads, the end-to-end metrics with their
// units, and the run length.
func TestSpecMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		RunSeconds int                           `json:"run_seconds"`
		Workloads  []struct{ Name string }       `json:"workloads"`
		EndToEnd   []struct{ Name, Unit string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, program calibrated for %d", spec.RunSeconds, runSeconds)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads in spec, %d in program", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: spec %q, program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in spec, %d in program", len(spec.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		if s := spec.EndToEnd[i]; s.Name != d.name || s.Unit != d.unit {
			t.Errorf("end-to-end metric %d: spec %+v, program %+v", i, s, d)
		}
	}
}

// TestSmoke drives all four workloads end to end and through the traced
// run at tiny counts: every phase, every twin, every verification step,
// and the agreement between what the traced run emits and what
// BENCHMARK.json promises.
func TestSmoke(t *testing.T) {
	start := time.Now()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	cfg := config{seconds: runSeconds, outDir: t.TempDir()}
	for _, w := range workloads() {
		w := w.smoke()
		res, err := runWorkload(w, cfg, 3)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", w.name, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			if v, ok := res.Metrics[d.name]; !ok || !(v.Value > 0) || v.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v", w.name, d.name, v)
			}
		}
		if !strings.Contains(res.driverLine(), `"correct":true`) {
			t.Errorf("%s: driver line %s", w.name, res.driverLine())
		}

		tcfg := cfg
		tcfg.trace = true
		tres, err := runWorkload(w, tcfg, 3)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if tres.Failed != 0 {
			t.Errorf("%s traced: %d of %d operations failed", w.name, tres.Failed, tres.Attempted)
		}
		if len(tres.Metrics) != len(spec.PerLayer) {
			t.Errorf("%s traced: %d metrics, spec lists %d", w.name, len(tres.Metrics), len(spec.PerLayer))
		}
		for _, p := range spec.PerLayer {
			if v, ok := tres.Metrics[p.Name]; !ok || v.Unit != p.Unit {
				t.Errorf("%s traced: per-layer metric %s (%s) = %+v", w.name, p.Name, p.Unit, v)
			}
		}
		var spans []span
		raw, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(raw, &spans); err != nil || len(spans) == 0 {
			t.Errorf("%s: span file: %d spans, %v", w.name, len(spans), err)
		}
		for i, s := range spans {
			if s.End < s.Start || s.Parent >= i {
				t.Errorf("%s: span %d malformed: %+v", w.name, i, s)
				break
			}
		}
	}
	// Budget: under 10 s on an idle 2-core box. Logged, not asserted: a
	// wall-clock assertion fails on a loaded machine, not on a bug.
	t.Logf("smoke took %v", time.Since(start))
}

// TestWrongAnswerIsCounted shows the oracle has teeth: a map that
// missed half the stream answers the probe sheet differently from the
// reference, and the difference is counted, not passed over.
func TestWrongAnswerIsCounted(t *testing.T) {
	w := workloads()[0].smoke()
	d := w.generate(5, w.scans)
	ps := makeProbes(d, 5)
	ref, err := buildReference(w, d, ps)
	if err != nil {
		t.Fatal(err)
	}
	m := octocache.MustNew(w.opts)
	defer m.Close()
	for _, sc := range d.Scans[len(d.Scans)/2:] {
		if err := m.Insert(sc.Origin, sc.Points); err != nil {
			t.Fatal(err)
		}
	}
	got, _, failed := ps.ask(mapTarget{m})
	if failed != 0 {
		t.Fatalf("%d probes errored", failed)
	}
	if got.mismatches(ref.answers) == 0 {
		t.Error("a map missing half its scans answered every probe like the reference")
	}
	if got.mismatches(got) != 0 {
		t.Error("a sheet mismatches itself")
	}
}

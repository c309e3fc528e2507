package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics in print order with their
// units. Direction and regression bound live in BENCHMARK.json alone —
// it is what the acceptance driver and -compare read — and a test keeps
// these names and units in step with it.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ingest_scans_per_s", "scans/s"},
	{"scan_visible_ms_p50", "ms"},
	{"scan_visible_ms_p95", "ms"},
	{"collision_batch_us_p50", "us"},
	{"ray_fan_us_p50", "us"},
	{"snapshot_mb_per_s", "MB/s"},
	{"heap_mb", "MB"},
	{"cpu_ms_per_scan", "ms"},
	{"recover_s", "s"},
}

// scrub keeps a metric JSON-encodable: a figure with no samples behind
// it (every operation failed) reads 0, and the failures are counted.
func scrub(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

// metricValue is one reported number. Samples is how many measurements
// the value summarizes (0 for a derived figure).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// result is one run of one workload.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Trace     bool                   `json:"trace"`
	Passes    int                    `json:"passes"`
	Scans     int                    `json:"scans_per_pass"`
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	WallS     float64                `json:"wall_s"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// header records where and on what a result file was measured: a
// parallel or sharded number means nothing without the core count, and
// a durable number nothing without the filesystem.
type header struct {
	Nproc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Revision   string `json:"git_revision"`
	DataDir    string `json:"data_dir"`
	DataDirFS  string `json:"data_dir_fs"`
	Time       string `json:"time"`
}

type resultFile struct {
	Header  header   `json:"header"`
	Results []result `json:"results"`
}

// gitRevision reads the revision the toolchain stamped into the binary;
// a checkout that is not a repository has none.
func gitRevision() string {
	rev, dirty := "unknown", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

func newHeader(outDir string) header {
	data := filepath.Join(outDir, "data")
	return header{
		Nproc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Revision:   gitRevision(),
		DataDir:    data,
		DataDirFS:  fsType(outDir),
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
}

func (h header) print(w io.Writer) {
	fmt.Fprintf(w, "# octoperf  nproc=%d GOMAXPROCS=%d %s rev=%s data_dir=%s (%s)\n",
		h.Nproc, h.GOMAXPROCS, h.GoVersion, h.Revision, h.DataDir, h.DataDirFS)
}

// endToEndMetrics reduces the pooled samples to the end-to-end table.
// A metric whose every operation failed reads 0 and the failures are
// in ops_failed.
func (s *samples) endToEndMetrics() map[string]metricValue {
	m := make(map[string]metricValue, len(endToEnd))
	put := func(name string, v float64, n int) {
		for _, d := range endToEnd {
			if d.name == name {
				m[name] = metricValue{Value: scrub(v), Unit: d.unit, Samples: n}
				return
			}
		}
		panic("undeclared end-to-end metric " + name)
	}
	put("setup_s", median(s.setupS), len(s.setupS))
	put("ingest_scans_per_s", median(s.ingestRate), len(s.ingestRate))
	put("scan_visible_ms_p50", median(s.visibleMs), len(s.visibleMs))
	put("scan_visible_ms_p95", percentile(s.visibleMs, 0.95), len(s.visibleMs))
	put("collision_batch_us_p50", median(s.collisionUs), len(s.collisionUs))
	put("ray_fan_us_p50", median(s.fanUs), len(s.fanUs))
	put("snapshot_mb_per_s", median(s.snapshotMBs), len(s.snapshotMBs))
	put("heap_mb", median(s.heapMB), len(s.heapMB))
	put("cpu_ms_per_scan", median(s.cpuMs), len(s.cpuMs))
	put("recover_s", median(s.recoverS), len(s.recoverS))
	return m
}

// metricOrder is the order metrics print in: end-to-end metrics in
// their declared order; per-layer metrics (the names present) sorted,
// which groups them by layer.
func metricOrder[V any](present map[string]V, trace bool) []string {
	names := make([]string, 0, len(present))
	if !trace {
		for _, d := range endToEnd {
			names = append(names, d.name)
		}
		return names
	}
	for n := range present {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// print writes the result as one line per metric: name, value, unit,
// sample count.
func (r result) print(w io.Writer) {
	kind := "end-to-end"
	if r.Trace {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n== %s  seed=%d  %s  passes=%d scans/pass=%d  wall=%.1fs\n",
		r.Workload, r.Seed, kind, r.Passes, r.Scans, r.WallS)
	for _, n := range metricOrder(r.Metrics, r.Trace) {
		v := r.Metrics[n]
		line := fmt.Sprintf("%-36s %14.4f %-8s", n, v.Value, v.Unit)
		if v.Samples > 0 {
			line += fmt.Sprintf(" n=%d", v.Samples)
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "%-36s %14d\n%-36s %14d\n", "ops_attempted", r.Attempted, "ops_failed", r.Failed)
}

// driverLine is the one-object summary the acceptance driver reads off
// the last line of standard output.
func (r result) driverLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, make(map[string]mv, len(r.Metrics))}
	for n, v := range r.Metrics {
		out.Metrics[n] = mv{v.Value, v.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // only NaN/Inf can fail, and metrics are scrubbed of both
	}
	return string(b)
}

func writeResultFile(path string, rf resultFile) error {
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResultFile(path string) (resultFile, error) {
	var rf resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

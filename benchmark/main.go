// Command benchmark is octoperf: the repository's end-to-end benchmark.
// Four workloads replay seeded scan streams through the system the way
// a robot loop and a map service use it — in-process and over loopback
// TCP, cache-resident and eviction-bound, volatile and durable — and
// report what a user of the map would see: how long until a scan is
// queryable, what a collision check and a ray fan cost, how fast the
// map ingests, serializes and comes back after a restart, and what it
// holds in memory and burns in CPU doing so. A separate traced run
// attributes one scan's cost to each layer by replaying the stream
// through a ladder of twins, one layer deeper each. See README.md.
//
//	go run ./benchmark                              every workload, end to end
//	go run ./benchmark -workload uav-corridor       one workload
//	go run ./benchmark -trace 1                     per-layer attribution
//	go run ./benchmark -repeat 5 -out new.json      five sets, medians + quartiles
//	go run ./benchmark -compare old.json new.json   regression verdict per metric
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	repeat   int
	out      string
	outDir   string
	spec     string
}

func main() {
	var cfg config
	var trace int
	var compare bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run (default: all four)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed: the same seed generates the same scans")
	flag.IntVar(&cfg.seconds, "seconds", runSeconds, "run length the pass counts are scaled to (load is count-bound)")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer attribution instead of the end-to-end measurement")
	flag.BoolVar(&cfg.smoke, "smoke", false, "tiny scan counts: exercises every path in seconds, measures nothing")
	flag.IntVar(&cfg.repeat, "repeat", 1, "run this many sets (seed, seed+1, ...) and print each metric's median and quartiles")
	flag.StringVar(&cfg.out, "out", "", "write every run's results to this JSON file")
	flag.StringVar(&cfg.outDir, "outdir", filepath.Join("benchmark", "out"), "directory for span files and durable tenants' data (must not be tmpfs)")
	flag.StringVar(&cfg.spec, "spec", "BENCHMARK.json", "benchmark contract holding the regression bounds -compare applies")
	flag.BoolVar(&compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.Parse()
	cfg.trace = trace != 0

	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare old.json new.json")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, cfg.spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	failed, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

// run executes the configured sets and reports whether any operation
// failed. The driver's one-object summary is printed last, and only
// when a single run of a single workload was asked for.
func run(cfg config) (failed bool, err error) {
	if cfg.seconds < 1 || cfg.repeat < 1 {
		return false, fmt.Errorf("-seconds and -repeat must be at least 1")
	}
	all := workloads()
	selected := all
	if cfg.workload != "" {
		w, err := findWorkload(all, cfg.workload)
		if err != nil {
			return false, err
		}
		selected = []*workload{w}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return false, err
	}
	rf := resultFile{Header: newHeader(cfg.outDir)}
	rf.Header.print(os.Stdout)

	for rep := 0; rep < cfg.repeat; rep++ {
		for _, w := range selected {
			if cfg.smoke {
				w = w.smoke()
			}
			res, err := runWorkload(w, cfg, cfg.seed+int64(rep))
			if err != nil {
				return false, fmt.Errorf("%s: %w", w.name, err)
			}
			res.print(os.Stdout)
			rf.Results = append(rf.Results, res)
			failed = failed || res.Failed > 0
		}
	}
	if cfg.repeat > 1 {
		printRepeatSummary(os.Stdout, rf.Results)
	}
	if cfg.out != "" {
		if err := writeResultFile(cfg.out, rf); err != nil {
			return failed, err
		}
	}
	if len(rf.Results) == 1 {
		fmt.Println(rf.Results[0].driverLine())
	}
	return failed, nil
}

// runWorkload measures one workload once: the end-to-end passes, or
// the traced attribution.
func runWorkload(w *workload, cfg config, seed int64) (result, error) {
	start := time.Now()
	res := result{Workload: w.name, Seed: seed, Trace: cfg.trace}
	if cfg.trace {
		tr, err := traceWorkload(w, cfg, seed)
		if err != nil {
			return res, err
		}
		res.Passes, res.Scans = 1, tr.scans
		res.Attempted, res.Failed = tr.attempted, tr.failed
		res.Metrics = tr.metrics
	} else {
		r := &runner{w: w, outDir: cfg.outDir}
		for p := 0; p < w.passesFor(cfg.seconds); p++ {
			if err := r.pass(passSeed(seed, p), p); err != nil {
				return res, fmt.Errorf("pass %d: %w", p, err)
			}
		}
		res.Passes, res.Scans = r.s.passes, r.s.scans
		res.Attempted, res.Failed = r.s.attempted, r.s.failed
		res.Metrics = r.s.endToEndMetrics()
	}
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

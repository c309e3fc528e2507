package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json -compare needs: each
// end-to-end metric's direction and regression bound.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readSpec(path string) (benchSpec, error) {
	var s benchSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 {
		return s, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return s, nil
}

// series is every run's value of one (workload, metric) pair.
type series map[string]map[string][]float64

// collect groups a file's runs by workload and metric, keeping the
// measured (untraced) and traced runs apart, and totals each
// workload's attempted and failed operations.
func collect(results []result, trace bool) (vals series, order []string, attempted, failed map[string]int) {
	vals = series{}
	attempted, failed = map[string]int{}, map[string]int{}
	for _, r := range results {
		if r.Trace != trace {
			continue
		}
		if vals[r.Workload] == nil {
			vals[r.Workload] = map[string][]float64{}
			order = append(order, r.Workload)
		}
		for name, v := range r.Metrics {
			vals[r.Workload][name] = append(vals[r.Workload][name], v.Value)
		}
		attempted[r.Workload] += r.Attempted
		failed[r.Workload] += r.Failed
	}
	return vals, order, attempted, failed
}

// shapes maps each measured workload to its (passes, scans per pass).
// Medians pooled over different amounts of work are not comparable, so
// a file that mixes shapes for one workload is refused.
func shapes(path string, results []result) (map[string][2]int, error) {
	out := map[string][2]int{}
	for _, r := range results {
		if r.Trace {
			continue
		}
		sh := [2]int{r.Passes, r.Scans}
		if prev, ok := out[r.Workload]; ok && prev != sh {
			return nil, fmt.Errorf("%s: %s was run at %dx%d and at %dx%d passes x scans",
				path, r.Workload, prev[0], prev[1], sh[0], sh[1])
		}
		out[r.Workload] = sh
	}
	return out, nil
}

// verdict judges one metric: change is the new median's distance from
// the old one as a share of the old one, signed so that positive is
// worse. The pair is unresolved, never "unchanged", where the medians
// cannot be told apart: either side has fewer than two runs (one run
// has no spread to judge by), a spread that cannot be computed (a median
// of 0: every operation failed), or a spread wider than the bound.
func verdict(old, new []float64, higherIsBetter bool, bound float64) (change float64, word string) {
	mo, mn := median(old), median(new)
	change = ratio(mn-mo, mo)
	if higherIsBetter {
		change = -change
	}
	so, sn := spread(old), spread(new)
	switch {
	case len(old) < 2 || len(new) < 2 || !(so <= bound) || !(sn <= bound):
		word = "unresolved"
	case change > bound:
		word = "REGRESSION"
	case change < -bound:
		word = "better"
	default:
		word = "ok"
	}
	return change, word
}

// spreadCell prints a side's spread, or why it has none.
func spreadCell(xs []float64) string {
	if len(xs) < 2 {
		return fmt.Sprintf("n=%d", len(xs))
	}
	return fmt.Sprintf("%.1f%%", 100*spread(xs))
}

// compareFiles prints, per workload and end-to-end metric, the relative
// change from old to new against the bound in the spec, and reports
// whether anything regressed: a metric worse by more than its bound, a
// workload or metric that old reports and new does not, or a workload
// with a higher share of failed operations. Files whose runs did
// different amounts of work (-smoke against a full run, different
// -seconds) are refused.
func compareFiles(w io.Writer, specPath, oldPath, newPath string) (regressed bool, err error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	oldF, err := readResultFile(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readResultFile(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprint(w, "old: ")
	oldF.Header.print(w)
	fmt.Fprint(w, "new: ")
	newF.Header.print(w)

	oShape, err := shapes(oldPath, oldF.Results)
	if err != nil {
		return false, err
	}
	nShape, err := shapes(newPath, newF.Results)
	if err != nil {
		return false, err
	}
	for wl, o := range oShape {
		if n, ok := nShape[wl]; ok && n != o {
			return false, fmt.Errorf("%s: old ran %dx%d passes x scans, new %dx%d: not comparable",
				wl, o[0], o[1], n[0], n[1])
		}
	}

	ov, order, oAtt, oFail := collect(oldF.Results, false)
	nv, _, nAtt, nFail := collect(newF.Results, false)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tworse by\tbound\tspread old/new\tverdict")
	for _, wl := range order {
		if nv[wl] == nil {
			fmt.Fprintf(tw, "%s\t(every metric)\t\t\t\t\t\tREGRESSION: missing from new\n", wl)
			regressed = true
			continue
		}
		for _, m := range spec.EndToEnd {
			o, n := ov[wl][m.Name], nv[wl][m.Name]
			if len(o) == 0 {
				continue // old predates the metric: nothing to hold new to
			}
			if len(n) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t\t\t\t\tREGRESSION: missing from new\n", wl, m.Name, median(o), m.Unit)
				regressed = true
				continue
			}
			change, word := verdict(o, n, m.Better == "higher", m.Bound)
			regressed = regressed || word == "REGRESSION"
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%s / %s\t%s\n",
				wl, m.Name, median(o), m.Unit, median(n), m.Unit, 100*change, 100*m.Bound,
				spreadCell(o), spreadCell(n), word)
		}
		oShare := ratio(float64(oFail[wl]), float64(oAtt[wl]))
		nShare := ratio(float64(nFail[wl]), float64(nAtt[wl]))
		word := "ok"
		if nShare > oShare {
			word, regressed = "REGRESSION", true
		}
		fmt.Fprintf(tw, "%s\tops_failed share\t%.3g\t%.3g\t\t\t\t%s\n", wl, oShare, nShare, word)
	}
	if err := tw.Flush(); err != nil {
		return regressed, err
	}

	// Per-layer metrics carry no bound; list how they moved so a
	// regression above can be traced to its layer.
	otv, torder, _, _ := collect(oldF.Results, true)
	ntv, _, _, _ := collect(newF.Results, true)
	for _, wl := range torder {
		if ntv[wl] == nil {
			continue
		}
		fmt.Fprintf(w, "\nper-layer, %s (no bounds; median old -> new):\n", wl)
		tw = tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
		for _, n := range metricOrder(otv[wl], true) {
			if len(ntv[wl][n]) == 0 {
				continue
			}
			mo, mn := median(otv[wl][n]), median(ntv[wl][n])
			fmt.Fprintf(tw, "  %s\t%.4g\t%.4g\t%+.1f%%\n", n, mo, mn, 100*ratio(mn-mo, mo))
		}
		if err := tw.Flush(); err != nil {
			return regressed, err
		}
	}
	return regressed, nil
}

// printRepeatSummary prints each metric's median and quartiles over the
// sets of a -repeat run, with the spread a bound has to beat.
func printRepeatSummary(w io.Writer, results []result) {
	for _, trace := range []bool{false, true} {
		vals, order, att, fail := collect(results, trace)
		for _, wl := range order {
			names := metricOrder(vals[wl], trace)
			fmt.Fprintf(w, "\n== %s over %d sets (median [q1, q3] spread)\n", wl, len(vals[wl][names[0]]))
			tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
			for _, n := range names {
				xs := vals[wl][n]
				q1, q3 := quartiles(xs)
				fmt.Fprintf(tw, "%s\t%.4f\t[%.4f, %.4f]\t%.1f%%\n", n, median(xs), q1, q3, 100*spread(xs))
			}
			tw.Flush()
			fmt.Fprintf(w, "ops_failed %d of %d\n", fail[wl], att[wl])
		}
	}
}

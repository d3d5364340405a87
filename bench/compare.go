package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRecords reads an -out file, one record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// verdict applies the comparison rules to one (workload, metric):
//
//   - improved: the new side wins at least 9 of every 10 pairs (ties
//     count for neither side) and the medians differ, in the better
//     direction, by more than the base side's quartile spread;
//   - worse: the new median is worse than the base median by more than
//     the metric's bound (for a metric without a bound: the mirror
//     image of improved);
//   - unresolved: the base side's own spread is wider than the bound,
//     unless every new run reads better than every base run, or, for a
//     metric without a bound, anything neither improved nor worse;
//   - within bound: otherwise.
//
// Pairs are the i-th base run with the i-th new run.
func verdict(base, next []float64, better string, bound *float64) (string, float64) {
	pairs := min(len(base), len(next))
	lowerBetter := better != "higher"
	beats := func(a, b float64) bool {
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case beats(next[i], base[i]):
			wins++
		case beats(base[i], next[i]):
			losses++
		}
	}
	winFrac := float64(wins) / float64(pairs)
	bq1, bmed, bq3, ok := quartiles(base)
	if !ok {
		bmed = median(base)
	}
	nmed := median(next)
	spread := bq3 - bq1
	// worsening is the new median's relative change in the worse direction.
	worsening := (nmed - bmed) / math.Abs(bmed)
	if !lowerBetter {
		worsening = -worsening
	}
	if bmed == 0 {
		worsening = 0
	}
	gap := math.Abs(nmed - bmed)
	switch {
	case 10*wins >= 9*pairs && gap > spread && beats(nmed, bmed):
		return "improved", winFrac
	case bound == nil && 10*losses >= 9*pairs && gap > spread && beats(bmed, nmed):
		return "worse", winFrac
	case bound == nil:
		return "unresolved", winFrac
	case worsening > *bound:
		return "worse", winFrac
	case bmed != 0 && spread/math.Abs(bmed) > *bound && !allBetter(next, base, beats):
		return "unresolved", winFrac
	}
	return "within bound", winFrac
}

func allBetter(next, base []float64, beats func(a, b float64) bool) bool {
	for _, n := range next {
		for _, b := range base {
			if !beats(n, b) {
				return false
			}
		}
	}
	return true
}

// runCompare prints, per workload and metric, each side's median and
// quartiles, the share of pairs the new side won, and the verdict.
func runCompare(w io.Writer, specPath, basePath, newPath string) error {
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	base, err := loadRecords(basePath)
	if err != nil {
		return err
	}
	next, err := loadRecords(newPath)
	if err != nil {
		return err
	}
	values := func(recs []record, workload, metric string) (vals []float64, wrong int) {
		for _, r := range recs {
			if r.Workload != workload {
				continue
			}
			if !r.Correct {
				wrong++
			}
			if m, ok := r.Metrics[metric]; ok {
				vals = append(vals, m.Value)
			}
		}
		return vals, wrong
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbase q1/med/q3\tnew q1/med/q3\tpairs\tnew won\tbound\tverdict")
	for _, wl := range allWorkloads {
		for _, list := range [][]specMetric{spec.EndToEnd, spec.PerLayer} {
			for _, m := range list {
				b, bw := values(base, wl.name, m.Name)
				n, nw := values(next, wl.name, m.Name)
				if len(b) == 0 || len(n) == 0 {
					continue
				}
				v, won := verdict(b, n, m.Better, m.Bound)
				if bw > 0 || nw > 0 {
					v += fmt.Sprintf(" (wrong outputs: base %d, new %d)", bw, nw)
				}
				bound := "-"
				if m.Bound != nil {
					bound = fmt.Sprintf("%.0f%%", *m.Bound*100)
				}
				fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%d\t%.0f%%\t%s\t%s\n",
					wl.name, m.Name, m.Unit, spreadString(b), spreadString(n), min(len(b), len(n)), won*100, bound, v)
			}
		}
	}
	return tw.Flush()
}

func spreadString(xs []float64) string {
	q1, q2, q3, ok := quartiles(xs)
	if !ok {
		return fmt.Sprintf("%.4g", median(xs))
	}
	return fmt.Sprintf("%.4g/%.4g/%.4g", q1, q2, q3)
}

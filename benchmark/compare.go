package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// loadRecords reads a record file written by -out: one JSON record per line.
func loadRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
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

// series collects, per workload and metric, the values of the untraced
// records in file order.
func series(recs []record) map[string]map[string][]float64 {
	s := map[string]map[string][]float64{}
	for _, r := range recs {
		if r.Traced {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			s[r.Workload][name] = append(s[r.Workload][name], v.Value)
		}
	}
	return s
}

// bySeed collects, per workload and metric, the value of the untraced
// record of each seed.
func bySeed(recs []record) map[string]map[string]map[int64]float64 {
	s := map[string]map[string]map[int64]float64{}
	for _, r := range recs {
		if r.Traced {
			continue
		}
		if s[r.Workload] == nil {
			s[r.Workload] = map[string]map[int64]float64{}
		}
		for name, v := range r.Metrics {
			if s[r.Workload][name] == nil {
				s[r.Workload][name] = map[int64]float64{}
			}
			s[r.Workload][name][r.Seed] = v.Value
		}
	}
	return s
}

// Verdicts of the pair rule.
const (
	verdictGain       = "gain"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictSlower     = "slower"
	verdictWithin     = "within-bound"
	verdictIdentical  = "identical"
	verdictFewPairs   = "too-few-pairs"
)

// minPairs is the least number of parent/change pairs a verdict needs.
const minPairs = 10

// comparison is one (workload, metric) row of a paired comparison.
type comparison struct {
	Workload, Metric              string
	Pairs, Wins                   int
	ParentQ1, ParentMed, ParentQ3 float64
	ChangeQ1, ChangeMed, ChangeQ3 float64
	Verdict                       string
}

// comparePairs applies the pair rule to one metric. parent[i] and change[i]
// are the i-th runs of each side, made alternately with the same settings.
//   - A gain needs the change to win at least 9 of 10 pairs (ties count for
//     neither) and the medians to differ by more than the parent's
//     interquartile range.
//   - Otherwise, when the parent's spread exceeds the bound, the row is
//     unresolved unless every change run beats every parent run.
//   - Otherwise a change median worse than the parent's by more than the
//     bound is a regression.
//   - Otherwise a change that loses at least 9 of 10 pairs by more than the
//     parent's interquartile range is slower, though within the bound.
func comparePairs(d metricDef, workload string, parent, change []float64) comparison {
	n := min(len(parent), len(change))
	parent, change = parent[:n], change[:n]
	c := comparison{Workload: workload, Metric: d.name, Pairs: n}
	c.ParentQ1, c.ParentMed, c.ParentQ3 = quartiles(parent)
	c.ChangeQ1, c.ChangeMed, c.ChangeQ3 = quartiles(change)
	better := d.better
	losses := 0
	for i := range parent {
		if better(change[i], parent[i]) {
			c.Wins++
		} else if better(parent[i], change[i]) {
			losses++
		}
	}
	iqr := c.ParentQ3 - c.ParentQ1
	gap := math.Abs(c.ChangeMed - c.ParentMed)
	base := math.Abs(c.ParentMed)
	worse := ratio(c.ChangeMed-c.ParentMed, base)
	if !d.lower {
		worse = -worse
	}
	allBetter := n > 0
	for _, x := range change {
		for _, y := range parent {
			allBetter = allBetter && better(x, y)
		}
	}
	switch {
	case n < minPairs:
		c.Verdict = verdictFewPairs
	case 10*c.Wins >= 9*n && better(c.ChangeMed, c.ParentMed) && gap > iqr:
		c.Verdict = verdictGain
	case ratio(iqr, base) > d.bound && !allBetter:
		c.Verdict = verdictUnresolved
	case worse > d.bound:
		c.Verdict = verdictRegression
	case 10*losses >= 9*n && better(c.ParentMed, c.ChangeMed) && gap > iqr:
		c.Verdict = verdictSlower
	default:
		c.Verdict = verdictWithin
	}
	return c
}

// compareExact compares a deterministic metric seed by seed. Its value
// repeats bit for bit for a seed, so it has no noise to allow for: any change
// run that differs from the parent run of its seed without being better is a
// regression, whatever the metric's bound, and one better run is a gain.
func compareExact(d metricDef, workload string, parent, change map[int64]float64) comparison {
	c := comparison{Workload: workload, Metric: d.name}
	var pv, cv []float64
	losses := 0
	for seed, p := range parent {
		ch, ok := change[seed]
		if !ok {
			continue
		}
		c.Pairs++
		pv, cv = append(pv, p), append(cv, ch)
		if d.better(ch, p) {
			c.Wins++
		} else if math.Float64bits(ch) != math.Float64bits(p) {
			losses++
		}
	}
	c.ParentQ1, c.ParentMed, c.ParentQ3 = quartiles(pv)
	c.ChangeQ1, c.ChangeMed, c.ChangeQ3 = quartiles(cv)
	switch {
	case c.Pairs == 0:
		c.Verdict = verdictFewPairs
	case losses > 0:
		c.Verdict = verdictRegression
	case c.Wins > 0:
		c.Verdict = verdictGain
	default:
		c.Verdict = verdictIdentical
	}
	return c
}

// compareSets compares every end-to-end metric of every workload the two
// record sets share, one row per (metric, workload). Deterministic metrics
// are compared seed by seed, the others by the pair rule.
func compareSets(parent, change []record) []comparison {
	ps, cs := series(parent), series(change)
	pSeed, cSeed := bySeed(parent), bySeed(change)
	var rows []comparison
	for _, w := range workloads {
		for _, d := range endToEnd {
			if d.deterministic {
				p, c := pSeed[w.name][d.name], cSeed[w.name][d.name]
				if len(p) > 0 && len(c) > 0 {
					rows = append(rows, compareExact(d, w.name, p, c))
				}
				continue
			}
			p, c := ps[w.name][d.name], cs[w.name][d.name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			rows = append(rows, comparePairs(d, w.name, p, c))
		}
	}
	return rows
}

// runCompare prints the paired comparison of each change file against the
// parent file. It fails when a row regresses or has too few pairs.
func runCompare(parentPath string, changePaths []string, stdout, stderr io.Writer) int {
	if len(changePaths) == 0 {
		fmt.Fprintln(stderr, "northup-benchmark: -compare needs at least one change record file")
		return 2
	}
	parent, err := loadRecords(parentPath)
	if err != nil {
		fmt.Fprintf(stderr, "northup-benchmark: %v\n", err)
		return 1
	}
	status := 0
	for _, path := range changePaths {
		change, err := loadRecords(path)
		if err != nil {
			fmt.Fprintf(stderr, "northup-benchmark: %v\n", err)
			return 1
		}
		rows := compareSets(parent, change)
		fmt.Fprintf(stdout, "%s vs %s: %d row(s)\n", path, parentPath, len(rows))
		fmt.Fprintf(stdout, "  %-18s %-18s %5s %5s %12s %12s %12s %12s  %s\n", "workload", "metric",
			"pairs", "wins", "parent_med", "parent_iqr", "change_med", "change_iqr", "verdict")
		for _, r := range rows {
			fmt.Fprintf(stdout, "  %-18s %-18s %5d %5d %12.6g %12.6g %12.6g %12.6g  %s\n", r.Workload, r.Metric,
				r.Pairs, r.Wins, r.ParentMed, r.ParentQ3-r.ParentQ1, r.ChangeMed, r.ChangeQ3-r.ChangeQ1, r.Verdict)
			if r.Verdict == verdictRegression || r.Verdict == verdictFewPairs {
				status = 1
			}
		}
	}
	return status
}

// summaryRow is the median and quartiles of one metric over a record set.
type summaryRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Traced   bool    `json:"traced"`
	N        int     `json:"n"`
	Q1       float64 `json:"q1"`
	Median   float64 `json:"median"`
	Q3       float64 `json:"q3"`
}

// summarySet summarizes one record file.
type summarySet struct {
	File string       `json:"file"`
	Runs int          `json:"runs"`
	Rows []summaryRow `json:"rows"`
}

// agreement compares the medians of the first two sets' untraced runs.
type agreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	MedianA  float64 `json:"median_a"`
	MedianB  float64 `json:"median_b"`
	RelDiff  float64 `json:"rel_diff"`
	Bound    float64 `json:"bound"`
	Within   bool    `json:"within_bound"`
}

type summary struct {
	Sets      []summarySet `json:"sets"`
	Agreement []agreement  `json:"agreement,omitempty"`
}

// summarize computes per-set medians and quartiles and, given two or more
// sets, whether the first two agree within each end-to-end metric's bound.
func summarize(files []string, sets [][]record) summary {
	var doc summary
	for i, recs := range sets {
		set := summarySet{File: filepath.Base(files[i]), Runs: len(recs)}
		for _, traced := range []bool{false, true} {
			vals := map[string]map[string][]float64{}
			units := map[string]string{}
			for _, r := range recs {
				if r.Traced != traced {
					continue
				}
				if vals[r.Workload] == nil {
					vals[r.Workload] = map[string][]float64{}
				}
				for name, v := range r.Metrics {
					vals[r.Workload][name] = append(vals[r.Workload][name], v.Value)
					units[name] = v.Unit
				}
			}
			for _, w := range workloads {
				names := make([]string, 0, len(vals[w.name]))
				for name := range vals[w.name] {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					v := vals[w.name][name]
					q1, med, q3 := quartiles(v)
					set.Rows = append(set.Rows, summaryRow{Workload: w.name, Metric: name, Unit: units[name],
						Traced: traced, N: len(v), Q1: q1, Median: med, Q3: q3})
				}
			}
		}
		doc.Sets = append(doc.Sets, set)
	}
	if len(sets) < 2 {
		return doc
	}
	a, b := series(sets[0]), series(sets[1])
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a[w.name][d.name], b[w.name][d.name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			rel := ratio(mb-ma, math.Abs(ma))
			doc.Agreement = append(doc.Agreement, agreement{Workload: w.name, Metric: d.name,
				MedianA: ma, MedianB: mb, RelDiff: rel, Bound: d.bound, Within: math.Abs(rel) <= d.bound})
		}
	}
	return doc
}

// runSummarize prints the summary of the record files as JSON.
func runSummarize(paths []string, stdout, stderr io.Writer) int {
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "northup-benchmark: -summarize needs record files")
		return 2
	}
	var sets [][]record
	for _, p := range paths {
		recs, err := loadRecords(p)
		if err != nil {
			fmt.Fprintf(stderr, "northup-benchmark: %v\n", err)
			return 1
		}
		sets = append(sets, recs)
	}
	b, err := json.MarshalIndent(summarize(paths, sets), "", "  ")
	if err != nil {
		fmt.Fprintf(stderr, "northup-benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// compare is for later changes: given pairs of result files (written by
// -json, parent then change, one pair per paired run), it prints for every
// workload x end-to-end metric each side's median and quartiles, the bound,
// and a verdict by the choosing-metrics guide's rule:
//
//	better      the change wins at least 9/10 of the pairs and the medians
//	            differ by more than the parent's inter-quartile distance
//	worse       the change's median is worse than the parent's by more than
//	            the bound
//	unresolved  a side's inter-quartile distance is wider than the bound, and
//	            not every run of the change beats every run of the parent
//	same        otherwise
//
// The counts on the fixed instruction stream (metricDef.exact) repeat exactly
// and are compared as counts. Fewer than ten pairs give indicative verdicts
// only.

type resultFile map[string]report // workload -> report

func readResults(path string) (resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultFile
	if err := json.Unmarshal(b, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func compareMain(args []string, w io.Writer) int {
	if len(args) < 2 || len(args)%2 != 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare parent.json change.json [parent2.json change2.json ...]")
		return 2
	}
	sides := [2][]resultFile{} // parents, changes
	for i, path := range args {
		rf, err := readResults(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark compare: %v\n", err)
			return 2
		}
		sides[i%2] = append(sides[i%2], rf)
	}
	if compareResults(w, sides[0], sides[1]) {
		return 1
	}
	return 0
}

// compareResults prints the table and reports whether any cell is worse.
func compareResults(w io.Writer, parents, changes []resultFile) (anyWorse bool) {
	fmt.Fprintf(w, "%d pairs", len(parents))
	if len(parents) < 10 {
		fmt.Fprintf(w, " (the rule asks for at least 10: verdicts are indicative only)")
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%-10s %-20s %14s %14s %14s | %14s %14s %14s | %6s %5s  %s\n",
		"workload", "metric", "parent q1", "median", "q3", "change q1", "median", "q3", "bound", "wins", "verdict")
	for _, sp := range specs {
		for _, d := range endToEnd {
			var p, c []float64
			for i := range parents {
				pv, ok1 := parents[i][sp.name].Metrics[d.name]
				cv, ok2 := changes[i][sp.name].Metrics[d.name]
				if ok1 && ok2 {
					p, c = append(p, pv.Value), append(c, cv.Value)
				}
			}
			if len(p) == 0 {
				continue
			}
			v := judge(p, c, d.better == "higher", d.bound, d.exact)
			anyWorse = anyWorse || strings.HasPrefix(v.verdict, "worse")
			fmt.Fprintf(w, "%-10s %-20s %14.6g %14.6g %14.6g | %14.6g %14.6g %14.6g | %5.1f%% %2d/%-2d  %s\n",
				sp.name, d.name, v.pq[0], v.pq[1], v.pq[2], v.cq[0], v.cq[1], v.cq[2], 100*d.bound, v.wins, len(p), v.verdict)
		}
	}
	return anyWorse
}

type judgement struct {
	pq, cq  [3]float64 // quartiles of parent and change
	wins    int
	verdict string
}

// judge applies the rule above to paired samples p[i], c[i].
func judge(p, c []float64, higherBetter bool, bound float64, exact bool) judgement {
	better := func(a, b float64) bool { // a better than b
		if higherBetter {
			return a > b
		}
		return a < b
	}
	j := judgement{pq: quartiles(p), cq: quartiles(c)}
	for i := range p {
		if better(c[i], p[i]) {
			j.wins++
		}
	}
	pm, cm := j.pq[1], j.cq[1]
	// An exact metric that did not repeat exactly is judged like a timing.
	exact = exact && slices.Min(p) == slices.Max(p) && slices.Min(c) == slices.Max(c)
	switch {
	case exact && pm == cm:
		j.verdict = "same (exact count)"
	case exact && better(cm, pm):
		j.verdict = "better (exact count)"
	case exact && worseBy(pm, cm, higherBetter) > bound:
		j.verdict = "worse (exact count)"
	case exact:
		j.verdict = "same (exact count, within bound)"
	default:
		j.verdict = judgeTimed(j, p, c, better, worseBy(pm, cm, higherBetter), bound)
	}
	return j
}

func judgeTimed(j judgement, p, c []float64, better func(a, b float64) bool, worse, bound float64) string {
	pm, cm := j.pq[1], j.cq[1]
	iqrP, iqrC := j.pq[2]-j.pq[0], j.cq[2]-j.cq[0]
	gap := math.Abs(cm - pm)
	allBeat := true
	for _, cv := range c {
		for _, pv := range p {
			allBeat = allBeat && better(cv, pv)
		}
	}
	switch {
	case better(cm, pm) && 10*j.wins >= 9*len(p) && gap > iqrP:
		return "better"
	case worse > bound:
		return "worse"
	case (iqrP > bound*pm || iqrC > bound*cm) && !allBeat:
		return "unresolved"
	default:
		return "same"
	}
}

// worseBy is how far the change's median is on the wrong side of the
// parent's, as a share of the parent's (negative: it is better).
func worseBy(pm, cm float64, higherBetter bool) float64 {
	if higherBetter {
		return (pm - cm) / pm
	}
	return (cm - pm) / pm
}

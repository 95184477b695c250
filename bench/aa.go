package main

import (
	"fmt"
	"io"
)

// compareRuns is the A/A table of -repeat: the same binary ran the same
// workloads several times, so any difference is noise, and it must fit
// inside the bound a later change will be judged by. For each end-to-end
// metric and workload it prints the median and quartiles over the runs,
// the widest difference between any two runs as a share of the median,
// and OK or EXCEEDED against the metric's bound. It reports whether every
// row was OK.
func compareRuns(w io.Writer, runs [][]*report) bool {
	ok := true
	fmt.Fprintf(w, "== A/A over %d runs: widest pairwise difference against each bound\n", len(runs[0]))
	fmt.Fprintf(w, "  %-14s %-34s %12s %12s %12s %8s %7s\n", "workload", "metric", "median", "q1", "q3", "maxdiff", "bound")
	for _, reps := range runs {
		for _, d := range endToEnd {
			vals := make([]float64, len(reps))
			for i, r := range reps {
				vals[i] = r.Metrics[d.Name].Value
			}
			q1, med, q3 := quartiles(vals)
			lo, hi := vals[0], vals[0]
			for _, v := range vals {
				lo, hi = min(lo, v), max(hi, v)
			}
			diff := ratio(hi-lo, med)
			verdict := "OK"
			if diff > d.Bound {
				verdict = "EXCEEDED"
				ok = false
			}
			fmt.Fprintf(w, "  %-14s %-34s %12.6g %12.6g %12.6g %7.2f%% %6.0f%%  %s\n",
				reps[0].Workload, d.Name, med, q1, q3, diff*100, d.Bound*100, verdict)
		}
	}
	return ok
}

package main

import (
	"fmt"
	"os"
)

// aaMain runs two sets of n untraced runs of each workload on the same
// code and prints, per end-to-end metric, each set's median, how far the
// second is from the first in the metric's worse direction, and the
// metric's bound. A metric whose A/A difference exceeds its own bound
// cannot gate anything and belongs among the ungated per-layer metrics.
func aaMain(names []string, seed uint64, seconds float64, n int) int {
	status := 0
	for _, name := range names {
		sets := [2]map[string][]float64{{}, {}}
		// The sets alternate run by run, so slow drift of the machine
		// lands on both alike; run i of either set uses seed+i.
		for i := 0; i < n; i++ {
			for s := range sets {
				res, err := measure(job{name, seed + uint64(i), seconds, untracedSetups, false, ""})
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
					return 1
				}
				if !res.Correct {
					fmt.Fprintf(os.Stderr, "bench: %s: checks failed: %v\n", name, res.Problems)
					status = 1
				}
				for _, d := range endToEnd {
					sets[s][d.name] = append(sets[s][d.name], res.Metrics[d.name].Value)
				}
			}
		}
		fmt.Printf("\n%s  A/A, 2 sets of %d runs (seeds %d..%d)\n", name, n, seed, seed+uint64(n)-1)
		fmt.Printf("  %-26s %14s %14s %9s %7s\n", "metric", "median A", "median B", "B worse", "bound")
		for _, d := range endToEnd {
			a, b := median(sets[0][d.name]), median(sets[1][d.name])
			worse := ratio(b-a, a)
			if d.better == "higher" {
				worse = -worse
			}
			flag := ""
			if worse > d.bound {
				flag = "  EXCEEDS BOUND"
			}
			fmt.Printf("  %-26s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", d.name, a, b, 100*worse, 100*d.bound, flag)
		}
	}
	return status
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// quartiles are the three cut points Python's statistics.quantiles(v, n=4)
// returns (its default "exclusive" method), which is what the acceptance
// rule for this benchmark is written in. It needs two values or more.
func quartiles(vals []float64) (q [3]float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	for i := 1; i <= 3; i++ {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the inter-quartile range as a share of the median.
func spread(vals []float64) float64 {
	q, med := quartiles(vals), median(vals)
	if med == 0 {
		return 0
	}
	return (q[2] - q[0]) / med
}

// worsening is how far b is worse than a, as a share of a, in the metric's
// own direction; negative when b is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runSelf runs one benchmark run in a fresh process, the way the driver
// does, and returns the metrics of its last output line.
func runSelf(name string, seed int64, seconds float64) (map[string]metricValue, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var rep report
	if err := json.Unmarshal(lines[len(lines)-1], &rep); err != nil {
		return nil, fmt.Errorf("%s seed %d: last output line is not a report: %w", name, seed, err)
	}
	if !rep.Correct {
		return nil, fmt.Errorf("%s seed %d: run reported %d failed ops", name, seed, rep.Failed)
	}
	return rep.Metrics, nil
}

// agree is the tool behind the benchmark's acceptance rule. For each
// workload it makes two sets of n runs, interleaved so that both see the
// same drift of the machine, run i of either set with seed+i, and prints per
// end-to-end metric both medians, both spreads and a verdict: each set's
// spread must stay within the metric's bound (setup_s excepted) and the
// second median may not be worse than the first by more than the bound.
// "quiet" marks a metric whose spreads are below a third of its bound.
func agree(w io.Writer, n int, only string, seed int64, seconds float64) (bool, error) {
	if n < 2 {
		return false, fmt.Errorf("-agree needs at least 2 runs a set to have quartiles")
	}
	allOK := true
	for _, wd := range workloadDefs {
		if only != "" && only != wd.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < n; i++ {
			for s := range sets {
				metrics, err := runSelf(wd.Name, seed+int64(i), seconds)
				if err != nil {
					return false, err
				}
				for k, v := range metrics {
					sets[s][k] = append(sets[s][k], v.Value)
				}
			}
		}
		fmt.Fprintf(w, "%s: two sets of %d runs, seeds %d..%d, %gs each\n", wd.Name, n, seed, seed+int64(n)-1, seconds)
		fmt.Fprintf(w, "  %-16s %-6s %12s %12s %8s %8s %9s %6s  %s\n",
			"metric", "unit", "median A", "median B", "IQR A", "IQR B", "B worse", "bound", "verdict")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			sa, sb, worse := spread(a), spread(b), worsening(d, median(a), median(b))
			verdict := "ok"
			switch widest := max(sa, sb); {
			case worse > d.Bound, d.Name != "setup_s" && widest > d.Bound:
				verdict = "FAIL"
				allOK = false
			case widest <= d.Bound/3:
				verdict = "ok quiet"
			}
			fmt.Fprintf(w, "  %-16s %-6s %12.5g %12.5g %7.2f%% %7.2f%% %8.2f%% %5.1f%%  %s\n",
				d.Name, d.Unit, median(a), median(b), 100*sa, 100*sb, 100*worse, 100*d.Bound, verdict)
		}
	}
	return allOK, nil
}

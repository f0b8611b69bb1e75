// Command bench is the repository benchmark: four deterministic replayed
// workloads, floor-timed, with exact count metrics and a per-layer traced
// run. See README.md in this directory.
//
//	bench -workload NAME -seed N -seconds S -trace 0|1|FILE
//	bench -agree N [-workload NAME]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics of
// BENCHMARK.json with -trace 0, the per-layer ones otherwise. A failed
// correctness gate exits non-zero.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the line the driver reads.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: mobile-street, mobile-orbit, offload-rtt or edge-burst")
		seed    = flag.Int64("seed", 42, "seed of the socket workloads' replay schedule and edge noise")
		seconds = flag.Float64("seconds", runSeconds, "how long the measured passes run")
		trace   = flag.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics from a traced run; FILE: the same, and write the spans there")
		agreeN  = flag.Int("agree", 0, "run two interleaved sets of N runs per workload and compare them against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fail(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *agreeN > 0 {
		ok, err := agree(os.Stdout, *agreeN, *name, *seed, *seconds)
		if err != nil {
			fail(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	// One P: the machine's two virtual CPUs share a core, so a collector or
	// server goroutine running beside the measured one slows it by up to half
	// at moments that differ from pass to pass. Measured over 150 s per
	// setting, floors repeated 1.6 to 6 times closer on one P than on two on
	// three workloads of four (README.md has the numbers).
	runtime.GOMAXPROCS(1)
	traced := *trace != "0"
	res, err := run(*name, *seed, *seconds, traced, fullSize)
	if err != nil {
		fail(err)
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := report{
		Correct:   res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	fmt.Printf("%s seed=%d\n", *name, *seed)
	for _, d := range defs {
		v := res.metrics[d.Name]
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-32s %14.4f %s\n", d.Name, v, d.Unit)
	}
	if traced && *trace != "1" {
		tf := traceFile{Workload: *name, Seed: *seed, Passes: res.spans.passes, Spans: res.spans.spans, PerLayer: res.metrics}
		if err := writeTrace(*trace, tf); err != nil {
			fail(err)
		}
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

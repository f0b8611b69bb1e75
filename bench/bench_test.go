package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

func TestFloorsScaleToReferenceClockAndIgnoreSlowSamples(t *testing.T) {
	base := []time.Duration{100_000, 200_000, 300_000, 400_000}
	var s series
	for pass := 0; pass < 7; pass++ {
		// Every pass runs at its own clock: items and probes stretch together.
		stretch := 1 + 0.1*float64(pass)
		dur, probes := make([]time.Duration, len(base)), make([]time.Duration, len(base))
		for i, d := range base {
			dur[i] = time.Duration(float64(d) * stretch)
			probes[i] = time.Duration(float64(probeNominal) * stretch)
		}
		// ...is disturbed somewhere, by a different amount, and one of its
		// probes is hit too.
		dur[pass%len(dur)] += time.Duration(1_000_000 * (pass + 1))
		probes[(pass+1)%len(probes)] *= 3
		if err := s.add(dur, probes); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range base {
		if diff := s.min[i] - want; diff < -2 || diff > 2 {
			t.Errorf("floor[%d] = %v, want the undisturbed reference-clock %v", i, s.min[i], want)
		}
	}
	if diff := s.floor() - total(base); diff < -8 || diff > 8 {
		t.Errorf("floor of a pass = %v, want %v", s.floor(), total(base))
	}
	if n := s.noise(); n <= 1 {
		t.Errorf("noise ratio = %v, want above 1 for disturbed passes", n)
	}
	if err := s.add(base[:3], base[:3]); err == nil {
		t.Error("a pass with a different item count was accepted")
	}
}

func TestQuantileAndQuartiles(t *testing.T) {
	vals := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0, 1}, {1, 10}} {
		if got := quantile(vals, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if vals[0] != 9 {
		t.Error("quantile sorted its argument in place")
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got, want := quartiles(vals), [3]float64{2.75, 5.5, 8.25}; got != want {
		t.Errorf("quartiles = %v, want %v", got, want)
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got, want := spread(vals), 5.5/5.5; got != want {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestTraceSelfTime(t *testing.T) {
	var tf traceFloors
	for _, stretch := range []time.Duration{5, 0, 9} {
		pass := []span{
			{Name: "item", Start: 0, End: 100 + stretch, Parent: -1},
			{Name: "core.process_frame", Start: 10, End: 70 + stretch, Parent: 0},
			{Name: "core.mamt.predict", Start: 20, End: 50, Parent: 1},
		}
		if err := tf.add(pass, 1); err != nil {
			t.Fatal(err)
		}
	}
	agg := tf.aggregate()
	if pf := agg["core.process_frame"]; pf.total != 60 || pf.self != 30 || pf.calls != 1 {
		t.Errorf("process_frame aggregate = %+v, want floor 60 with 30 self", pf)
	}
	if err := tf.add([]span{{Name: "item", Parent: -1}}, 1); err == nil {
		t.Error("a traced pass with a different span list was accepted")
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"` // no bounds: Bound stays zero
}

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if file.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", file.RunSeconds, runSeconds)
	}
	if !reflect.DeepEqual(file.Workloads, workloadDefs) {
		t.Errorf("workloads differ:\n file    %+v\n program %+v", file.Workloads, workloadDefs)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n file    %+v\n program %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n file    %+v\n program %+v", file.PerLayer, perLayer)
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, w := range workloadDefs {
		if !name.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 {
			t.Errorf("workload %q: bad or repeated name, or a why of %d characters", w.Name, len(w.Why))
		}
		seen[w.Name] = true
	}
	hasSetup := false
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] || !unit.MatchString(d.Unit) {
			t.Errorf("metric %q (%q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside [0, 0.25]", d.Name, d.Bound)
		}
		seen[d.Name] = true
		hasSetup = hasSetup || d == metricDef{"setup_s", "s", "lower", d.Bound}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
}

// tinySize keeps the four smoke runs within a few seconds: clips just long
// enough for tracking to start and ship guided frames, one measured pass.
var tinySize = sizing{
	streetFrames: 75, orbitFrames: 60,
	rttOps: 12, bursts: 2,
	setupReps: 1, minPasses: 1,
	probeReps: 1,
	minIoU:    map[string]float64{"mobile-street": 0.2, "mobile-orbit": 0.2, "offload-rtt": 0.85, "edge-burst": 0.95},
}

// countMetrics are the end-to-end metrics that must repeat exactly.
var countMetrics = []string{"ok_share", "wire_kb_per_op", "mask_iou"}

func TestWorkloadsSmoke(t *testing.T) {
	for _, wd := range workloadDefs {
		wd := wd
		t.Run(wd.Name, func(t *testing.T) {
			t.Parallel()
			runs := make([]*result, 3)
			for i, seed := range []int64{42, 42, 43} {
				res, err := run(wd.Name, seed, 0, false, tinySize)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("seed %d: %d of %d ops failed", seed, res.failed, res.attempted)
				}
				if len(res.metrics) != len(endToEnd) {
					t.Fatalf("seed %d: %d metrics, want the %d end-to-end ones", seed, len(res.metrics), len(endToEnd))
				}
				for _, d := range endToEnd {
					if v, ok := res.metrics[d.Name]; !ok || v <= 0 {
						t.Errorf("seed %d: %s = %v, want a positive value", seed, d.Name, v)
					}
				}
				runs[i] = res
			}
			// What is replayed is the same for every seed, so the count
			// metrics are; the seed decides the order the socket workloads
			// replay it in, which the digest of the replies shows.
			for _, k := range countMetrics {
				for _, other := range runs[1:] {
					// On edge-burst which frame of a session is warped is a
					// race; it moves box jitter, so IoU, by a hair.
					if a, b := runs[0].metrics[k], other.metrics[k]; a != b && (wd.Name != "edge-burst" || k != "mask_iou") {
						t.Errorf("%s differs between runs: %v and %v", k, a, b)
					}
				}
			}
			if runs[0].replayed != runs[1].replayed {
				t.Error("two runs of seed 42 replayed different work")
			}
			seeded := wd.Name == "offload-rtt" || wd.Name == "edge-burst"
			if differs := runs[0].replayed != runs[2].replayed; differs != seeded {
				t.Errorf("seeds 42 and 43 replay different work: %v, want %v", differs, seeded)
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	res, err := run("offload-rtt", 42, 0, true, tinySize)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.metrics) != len(perLayer) {
		t.Errorf("traced run printed %d metrics, want the %d per-layer ones", len(res.metrics), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := res.metrics[d.Name]; !ok {
			t.Errorf("traced run did not report %s", d.Name)
		}
	}
	if res.metrics["transport.from_detection_us"] <= 0 {
		t.Error("transport.from_detection_us is not reported as its own line")
	}
	if res.spans == nil || res.spans.passes == 0 {
		t.Error("traced run kept no spans")
	}
}

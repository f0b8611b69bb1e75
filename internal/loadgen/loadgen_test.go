package loadgen

import (
	"encoding/json"
	"math/rand"
	"testing"
)

// testRng builds a seeded generator for arrival-process tests.
func testRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestRunDeterministic is the baseline property BENCH_serving.json relies
// on: two consecutive runs of the same profile produce byte-identical SLO
// reports — identical counts and identical quantiles.
func TestRunDeterministic(t *testing.T) {
	p, err := ProfileByName("ci-smoke")
	if err != nil {
		t.Fatal(err)
	}
	a, b := Run(p), Run(p)
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Fatalf("two runs of %s differ:\n%s\n%s", p.Name, ja, jb)
	}
	if a.Served == 0 {
		t.Fatal("smoke profile served nothing")
	}
}

// TestRunConservationAcrossSuite pins the no-silent-loss law on every named
// profile: offered == served + rejected + dropped, with nothing negative.
func TestRunConservationAcrossSuite(t *testing.T) {
	for _, p := range Profiles() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			if testing.Short() && p.Sessions > 300 {
				t.Skip("large fleet profile skipped in -short")
			}
			slo := Run(p)
			if err := slo.Check(); err != nil {
				t.Fatal(err)
			}
			if slo.Offered == 0 || slo.Served == 0 {
				t.Fatalf("%s: degenerate run: %+v", p.Name, slo)
			}
		})
	}
}

// TestRunThousandSessions is the scale demonstration: >=1000 concurrent
// sessions complete against the in-process target with exact accounting.
func TestRunThousandSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet-scale run skipped in -short")
	}
	p, err := ProfileByName("fleet-1k")
	if err != nil {
		t.Fatal(err)
	}
	if p.Sessions < 1000 {
		t.Fatalf("fleet profile has %d sessions, want >= 1000", p.Sessions)
	}
	slo := Run(p)
	if err := slo.Check(); err != nil {
		t.Fatal(err)
	}
	if slo.Offered < p.Sessions {
		t.Errorf("offered %d < %d sessions", slo.Offered, p.Sessions)
	}
	// The fleet oversubscribes 4 accelerators on purpose; the report must
	// still show real service and explicit shedding, never silent loss.
	if slo.Served == 0 || slo.Rejected+slo.Dropped == 0 {
		t.Errorf("oversubscribed fleet: served=%d rejected=%d dropped=%d", slo.Served, slo.Rejected, slo.Dropped)
	}
	t.Logf("fleet-1k: %s", slo)
}

// TestMoreAcceleratorsImproveTailLatency pins the scheduler-lever story:
// on the contention-bound profile, going 1 -> 4 accelerators must improve
// reported p95 offload latency and serve at least as many frames.
func TestMoreAcceleratorsImproveTailLatency(t *testing.T) {
	one, err := ProfileByName("burst-contention-x1")
	if err != nil {
		t.Fatal(err)
	}
	four, err := ProfileByName("burst-contention-x4")
	if err != nil {
		t.Fatal(err)
	}
	if one.Accelerators != 1 || four.Accelerators != 4 || one.Seed != four.Seed {
		t.Fatalf("contention pair misconfigured: %+v vs %+v", one, four)
	}
	a, b := Run(one), Run(four)
	t.Logf("x1: p95=%.1fms served=%d; x4: p95=%.1fms served=%d", a.LatP95Ms, a.Served, b.LatP95Ms, b.Served)
	if b.LatP95Ms >= a.LatP95Ms {
		t.Errorf("4 accelerators did not improve p95: %0.1f -> %0.1f ms", a.LatP95Ms, b.LatP95Ms)
	}
	if b.Served < a.Served {
		t.Errorf("4 accelerators served fewer frames: %d -> %d", a.Served, b.Served)
	}
}

// TestBatchingImprovesThroughputInSim reads the batch arm against its
// single-dequeue twin: with the gather-window former enabled, the same
// contended fleet on the same seed must form real multi-frame launches and
// convert the amortization into strictly more served frames at no worse
// tail latency.
func TestBatchingImprovesThroughputInSim(t *testing.T) {
	single, err := ProfileByName("burst-contention-x4")
	if err != nil {
		t.Fatal(err)
	}
	batched, err := ProfileByName("burst-batch-x4")
	if err != nil {
		t.Fatal(err)
	}
	if batched.MaxBatch <= 1 || batched.Seed != single.Seed || batched.Accelerators != single.Accelerators {
		t.Fatalf("batch pair misconfigured: %+v vs %+v", single, batched)
	}
	a, b := Run(single), Run(batched)
	t.Logf("single: served=%d p95=%.1f; batched: served=%d p95=%.1f batches=%d mean=%.2f",
		a.Served, a.LatP95Ms, b.Served, b.LatP95Ms, b.Batches, b.MeanBatchSize)
	if a.Batches != 0 || a.Shed != 0 {
		t.Errorf("single-dequeue arm must report no batches or sheds: %+v", a)
	}
	if b.Batches == 0 || b.MeanBatchSize <= 1.5 {
		t.Errorf("batch former idle: %d batches, mean size %.2f", b.Batches, b.MeanBatchSize)
	}
	if b.Served <= a.Served {
		t.Errorf("batching did not raise throughput: served %d -> %d", a.Served, b.Served)
	}
	if b.LatP95Ms > a.LatP95Ms {
		t.Errorf("batching worsened p95: %.1f -> %.1f ms", a.LatP95Ms, b.LatP95Ms)
	}
}

// TestLatestWinsServesFresherFramesInSim reads the shed arm against its
// reject twin: latest-wins must actually shed (stale frames displaced by
// their own session's fresh ones) and the frames it does serve must be
// fresher — lower median end-to-end latency — than under reject-when-full,
// which serves the oldest queued frames to completion.
func TestLatestWinsServesFresherFramesInSim(t *testing.T) {
	reject, err := ProfileByName("burst-contention-x1")
	if err != nil {
		t.Fatal(err)
	}
	shed, err := ProfileByName("burst-shed-x1")
	if err != nil {
		t.Fatal(err)
	}
	if shed.ShedPolicy != "latest-wins" || shed.Seed != reject.Seed {
		t.Fatalf("shed pair misconfigured: %+v vs %+v", reject, shed)
	}
	a, b := Run(reject), Run(shed)
	t.Logf("reject: served=%d p50=%.1f; latest-wins: served=%d shed=%d p50=%.1f",
		a.Served, a.LatP50Ms, b.Served, b.Shed, b.LatP50Ms)
	if a.Shed != 0 {
		t.Errorf("reject arm must not shed, got %d", a.Shed)
	}
	if b.Shed == 0 {
		t.Error("latest-wins arm shed nothing under sustained contention")
	}
	if b.LatP50Ms >= a.LatP50Ms {
		t.Errorf("latest-wins did not serve fresher frames: p50 %.1f -> %.1f ms", a.LatP50Ms, b.LatP50Ms)
	}
}

// TestRoundRobinKeepsFairSpreadInSim checks the fairness surface of the
// report on a symmetric steady fleet: with identical sessions, round-robin
// dequeue keeps the served-count spread small relative to the per-session
// served mean.
func TestRoundRobinKeepsFairSpreadInSim(t *testing.T) {
	p := Profile{
		Name: "fair", Sessions: 40, Accelerators: 2, QueueDepth: 16,
		DurationMs: 8000, FPS: 2, Arrival: Steady, Seed: 11,
		Links: []LinkShape{Fast}, Clips: []ClipClass{ClipIndoor},
	}
	slo := Run(p)
	if err := slo.Check(); err != nil {
		t.Fatal(err)
	}
	if slo.ServedMin == 0 {
		t.Fatal("symmetric fleet starved a session")
	}
	mean := float64(slo.Served) / float64(p.Sessions)
	if spread := float64(slo.FairnessSpread); spread > mean {
		t.Errorf("served spread %v exceeds per-session mean %v (min %d max %d)",
			spread, mean, slo.ServedMin, slo.ServedMax)
	}
}

// TestArrivalProcessShapes pins the three arrival generators' shapes.
func TestArrivalProcessShapes(t *testing.T) {
	base := Profile{FPS: 2, DurationMs: 10000}.withDefaults()

	steady := newArrivalGen(base, testRng(1))
	if iv := steady.next(0); iv != 500 {
		t.Errorf("steady interval = %v, want 500", iv)
	}

	b := base
	b.Arrival = Bursty
	bursty := newArrivalGen(b, testRng(2))
	var gaps, dense int
	now := 0.0
	for i := 0; i < 64; i++ {
		iv := bursty.next(now)
		now += iv
		if iv > bursty.burstGapMs/4 {
			gaps++
		} else if iv == 125 { // periodMs/4
			dense++
		}
	}
	if gaps == 0 || dense == 0 {
		t.Errorf("bursty produced gaps=%d dense=%d, want both > 0", gaps, dense)
	}

	r := base
	r.Arrival = Ramp
	r.RampFactor = 5
	ramp := newArrivalGen(r, testRng(3))
	early := ramp.next(0)
	late := ramp.next(r.DurationMs)
	if late >= early {
		t.Errorf("ramp intervals must shrink: early %v late %v", early, late)
	}
	if want := 500.0 / 5; late != want {
		t.Errorf("ramp final interval = %v, want %v", late, want)
	}
}

// TestLinkShapesMapToProfiles checks every named shape resolves and that
// the shapes are ordered as advertised (fast < slow in base RTT, lossy the
// lossiest).
func TestLinkShapesMapToProfiles(t *testing.T) {
	fast, slow, lossy := Fast.NetProfile(), Slow.NetProfile(), Lossy.NetProfile()
	if fast.BaseRTTMs >= slow.BaseRTTMs {
		t.Errorf("fast RTT %v >= slow RTT %v", fast.BaseRTTMs, slow.BaseRTTMs)
	}
	if lossy.LossRate <= fast.LossRate || lossy.LossRate <= slow.LossRate {
		t.Errorf("lossy loss rate %v not the highest", lossy.LossRate)
	}
}

// TestProfileByNameUnknown returns a useful error.
func TestProfileByNameUnknown(t *testing.T) {
	if _, err := ProfileByName("nope"); err == nil {
		t.Fatal("unknown profile must error")
	}
}

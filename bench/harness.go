package main

import (
	"errors"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"edgeis/internal/mask"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

// passOut is what one replay of a workload's item list produced.
type passOut struct {
	// items holds the as-run duration of every item, ops the latency of
	// every op. They are the same slice when an item is a single op (a
	// camera frame, a round trip); a burst item carries sixteen ops. probes
	// are the speed probes taken between items, one before each.
	items, ops, probes []time.Duration
	sum                digest
	// Allocation deltas cover the replay loop only, not the per-pass
	// construction around it.
	mallocs, allocBytes, maskAllocs uint64
}

// allocMark is the allocation counters at the start of a replay loop.
type allocMark struct {
	ms    runtime.MemStats
	masks uint64
}

func markAllocs() *allocMark {
	a := &allocMark{masks: mask.Allocs()}
	runtime.ReadMemStats(&a.ms)
	return a
}

// since stores what was allocated after the mark in out.
func (a *allocMark) since(out *passOut) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	out.mallocs, out.allocBytes = now.Mallocs-a.ms.Mallocs, now.TotalAlloc-a.ms.TotalAlloc
	out.maskAllocs = mask.Allocs() - a.masks
}

// tally is the exact outcome of one pass. Every pass does identical work
// (the digests prove it), so it is taken once, on the warm-up pass, where
// the checking it needs is not timed.
type tally struct {
	attempted, ok int
	wireBytes     int
	iouSum        float64
	iouN          int
}

// addReply counts one verified reply of a socket workload: up uplink bytes
// went out for it and ious scores its detections.
func (t *tally) addReply(up int, res *transport.ResultMsg, ious []float64) {
	t.ok++
	t.wireBytes += up + len(transport.MarshalResult(res))
	for _, iou := range ious {
		t.iouSum += iou
		t.iouN++
	}
}

func (t tally) iou() float64 {
	if t.iouN == 0 {
		return 0
	}
	return t.iouSum / float64(t.iouN)
}

// workload is one replayed item list. setup builds everything the passes
// need (and is what setup_s times); pass replays the list once, verifying
// results and filling the tally when verify is set; check runs the
// conservation laws after the last of n passes and returns the workload's
// own layer counts.
type workload interface {
	setup() error
	pass(tr *tracer, verify bool) (*passOut, error)
	tally() tally
	check(n int) (map[string]float64, error)
	// probeInput is what the single-threaded layer probes replay.
	probeInput() (segmodel.Kind, []*transport.FrameMsg)
	close() error
}

// sizing scales a workload; the full size is the benchmark, the tiny one
// keeps the package tests fast.
type sizing struct {
	streetFrames, orbitFrames int
	rttOps                    int
	bursts                    int
	setupReps, minPasses      int
	// setupFor keeps repeating a set-up that takes milliseconds (the mobile
	// ones) until this much time has gone by.
	setupFor  time.Duration
	probeReps int
	// minIoU is, per workload, the accuracy below which a run is wrong, not
	// slow. A clip cut short spends most of its frames initializing, so the
	// mobile floors scale with the size.
	minIoU map[string]float64
}

var fullSize = sizing{
	streetFrames: 300, orbitFrames: 200,
	rttOps: 200, bursts: 25,
	setupReps: 5, minPasses: 2, setupFor: time.Second,
	probeReps: 5,
	minIoU:    map[string]float64{"mobile-street": 0.45, "mobile-orbit": 0.65, "offload-rtt": 0.85, "edge-burst": 0.95},
}

func newWorkload(name string, seed int64, sz sizing) (workload, error) {
	switch name {
	case "mobile-street":
		return newMobile(streetClip, sz.streetFrames), nil
	case "mobile-orbit":
		return newMobile(orbitClip, sz.orbitFrames), nil
	case "offload-rtt":
		return newRTT(seed, sz), nil
	case "edge-burst":
		return newBurst(seed, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// result is one run's report.
type result struct {
	attempted, failed int
	metrics           map[string]float64
	spans             *traceFloors
	replayed          digest // of what every pass produced, in replay order
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // diagnostic only; a missing reading shows as zero CPU time
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// run sets a workload up, replays it for the given time and reports either
// the end-to-end metrics (traced false) or the per-layer ones (traced true).
// An error means a correctness gate failed and there is nothing to report.
func run(name string, seed int64, seconds float64, traced bool, sz sizing) (*result, error) {
	w, err := newWorkload(name, seed, sz)
	if err != nil {
		return nil, err
	}
	// Set-up is timed like an item: several times over, smallest kept, scaled
	// to the reference clock by the median of the probes taken between the
	// repetitions. The traced run does not report it and sets up once.
	reps, repeatFor := sz.setupReps, sz.setupFor
	if traced {
		reps, repeatFor = 1, 0
	}
	var (
		setup  time.Duration
		probes []time.Duration
	)
	for rep, began := 0, clock(); rep < reps || clock()-began < repeatFor; rep++ {
		if rep > 0 {
			if err := w.close(); err != nil {
				return nil, fmt.Errorf("%s: close between set-ups: %w", name, err)
			}
		}
		probes = append(probes, speedProbe())
		t0 := clock()
		if err := w.setup(); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		if d := clock() - t0; rep == 0 || d < setup {
			setup = d
		}
	}
	setup = time.Duration(float64(setup) * clockScale(probes))
	res, err := measure(name, w, seconds, traced, sz)
	if cerr := w.close(); err == nil && cerr != nil {
		err = fmt.Errorf("%s: close: %w", name, cerr)
	}
	if err != nil {
		return nil, err
	}
	if !traced {
		res.metrics["setup_s"] = setup.Seconds()
	}
	return res, nil
}

// measured is what the replay loop hands to the two reports.
type measured struct {
	t                          tally
	ops                        float64 // ops a pass
	passes                     int     // measured passes, traced ones included
	plain, plainOps, withSpans series
	spans                      traceFloors
	layers                     *layerProbe // traced run only
	asRunOps                   []float64   // every untraced op latency of a traced run, ms
	mallocs, bytes, maskAllocs uint64
	wall, cpu                  time.Duration // spent in the workload's passes
	before, after              runtime.MemStats
	counts                     map[string]float64
}

func measure(name string, w workload, seconds float64, traced bool, sz sizing) (*result, error) {
	warm, err := w.pass(nil, true)
	if err != nil {
		return nil, fmt.Errorf("%s: warm-up pass: %w", name, err)
	}
	m := measured{t: w.tally(), ops: float64(len(warm.ops))}
	if len(warm.ops) == 0 || m.t.attempted < len(warm.ops) {
		return nil, fmt.Errorf("%s: tally counts %d ops, the pass timed %d", name, m.t.attempted, len(warm.ops))
	}

	if traced {
		m.layers = newLayerProbe(w.probeInput())
	}

	runtime.ReadMemStats(&m.before)
	began := clock()
	budget := time.Duration(seconds * float64(time.Second))
	minPasses := sz.minPasses
	if traced {
		minPasses *= 2
	}
	for ; m.passes < minPasses || clock()-began < budget; m.passes++ {
		var tr *tracer
		if traced && m.passes%2 == 1 {
			tr = &tracer{}
		}
		cpu0, wall0 := cpuTime(), clock()
		out, err := w.pass(tr, false)
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", name, m.passes+1, err)
		}
		m.wall, m.cpu = m.wall+clock()-wall0, m.cpu+cpuTime()-cpu0
		if out.sum != warm.sum {
			return nil, fmt.Errorf("%s: pass %d produced digest %x, the warm-up pass %x: passes are not replaying identical work",
				name, m.passes+1, out.sum, warm.sum)
		}
		if tr != nil {
			err = errors.Join(m.withSpans.add(out.items, out.probes), m.spans.add(tr.spans, clockScale(out.probes)), m.layers.pass())
		} else {
			err = errors.Join(m.plain.add(out.items, out.probes), m.plainOps.add(out.ops, out.probes))
			if traced {
				m.asRunOps = append(m.asRunOps, millis(out.ops)...)
			}
			m.mallocs += out.mallocs
			m.bytes += out.allocBytes
			m.maskAllocs += out.maskAllocs
		}
		if err != nil {
			return nil, fmt.Errorf("%s: pass %d: %w", name, m.passes+1, err)
		}
	}
	runtime.ReadMemStats(&m.after)

	if m.counts, err = w.check(m.passes + 1); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	if iou := m.t.iou(); iou < sz.minIoU[name] {
		return nil, fmt.Errorf("%s: mask_iou %.4f is below the workload's floor %.2f", name, iou, sz.minIoU[name])
	}
	res := &result{
		attempted: m.t.attempted * (m.passes + 1),
		failed:    (m.t.attempted - m.t.ok) * (m.passes + 1),
		replayed:  warm.sum,
	}
	if !traced {
		res.metrics = m.endToEnd()
		return res, nil
	}
	res.spans = &m.spans
	if res.metrics, err = m.perLayer(name, sz.probeReps); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return res, nil
}

func (m *measured) endToEnd() map[string]float64 {
	opMs := millis(m.plainOps.min)
	measuredOps := m.ops * float64(m.plain.passes)
	return map[string]float64{
		"ops_per_s":       m.ops / m.plain.floor().Seconds(),
		"lat_ms_p50":      quantile(opMs, 0.50),
		"lat_ms_p90":      quantile(opMs, 0.90),
		"ok_share":        float64(m.t.ok) / float64(m.t.attempted),
		"allocs_per_op":   float64(m.mallocs) / measuredOps,
		"alloc_kb_per_op": float64(m.bytes) / 1000 / measuredOps,
		"wire_kb_per_op":  float64(m.t.wireBytes) / 1000 / m.ops,
		"mask_iou":        m.t.iou(),
	}
}

func (m *measured) perLayer(name string, probeReps int) (map[string]float64, error) {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = 0 // layers a workload does not exercise report zero
	}
	for k, v := range m.counts {
		out[k] = v
	}
	layerTimes(out, m.spans.aggregate(), micros(m.withSpans.floor())/float64(len(m.withSpans.min)))
	m.layers.report(out)
	var err error
	if out["edge.infer_overhead_us"], err = probeInferOverhead(probeReps); err != nil {
		return nil, fmt.Errorf("scheduler probe: %w", err)
	}
	if out["transport.rtt_empty_us"], err = probeEmptyRTT(probeReps); err != nil {
		return nil, fmt.Errorf("empty round-trip probe: %w", err)
	}
	if name == "offload-rtt" || name == "edge-burst" {
		// What the single-threaded probes do not explain: sockets, goroutine
		// hand-offs, framing. On edge-burst three ops in four are warped.
		run := out["segmodel.run_us"]
		if name == "edge-burst" {
			run = 0.25*run + 0.75*out["segmodel.run_warped_us"]
		}
		out["transport.io_other_us"] = micros(m.plain.floor())/m.ops - run - out["edge.infer_overhead_us"] -
			out["transport.marshal_frame_us"] - out["transport.unmarshal_frame_us"] -
			out["transport.from_detection_us"] - out["transport.marshal_result_us"] -
			out["transport.unmarshal_result_us"]
		if name == "offload-rtt" {
			out["transport.io_other_us"] -= out["live.to_edge_result_us"]
		}
	}
	allOps := m.ops * float64(m.passes)
	out["mask.pool_allocs_per_op"] = float64(m.maskAllocs) / (m.ops * float64(m.plain.passes))
	out["proc.wall_ops_per_s"] = allOps / m.wall.Seconds()
	out["proc.lat_ms_p99_asrun"] = quantile(m.asRunOps, 0.99)
	out["proc.noise_ratio"] = m.plain.noise()
	out["proc.cpu_ms_per_op"] = ms(m.cpu) / allOps
	out["proc.gc_cycles"] = float64(m.after.NumGC - m.before.NumGC)
	out["proc.gc_pause_ms"] = float64(m.after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
	out["proc.heap_peak_mb"] = float64(m.after.HeapSys) / 1e6
	out["proc.trace_overhead_share"] = 1 - float64(m.plain.floor())/float64(m.withSpans.floor())
	return out, nil
}

// layerTimes turns the floor-timed spans of the traced passes into the
// per-call layer metrics.
func layerTimes(m map[string]float64, agg map[string]spanAgg, perItemUs float64) {
	for span, metric := range map[string]string{
		"core.process_frame":      "core.process_frame_us",
		"core.mamt.predict":       "core.mamt_predict_us",
		"core.mamt.zclip":         "core.mamt_zclip_us",
		"core.cfrs.newareas":      "core.cfrs_newareas_us",
		"core.cfrs.decide":        "core.cfrs_decide_us",
		"core.cfrs.encode":        "core.cfrs_encode_us",
		"core.ciia.plan":          "core.ciia_plan_us",
		"core.handle_edge_result": "core.handle_result_us",
		"pipeline.backend_submit": "pipeline.backend_submit_us",
	} {
		m[metric] = agg[span].perCall()
	}
	// Visual odometry runs inside ProcessFrame but outside the observed
	// stages, so it is ProcessFrame's self time.
	m["core.vo_us"] = agg["core.process_frame"].selfPerCall()
	if pf := agg["core.process_frame"]; pf.calls > 0 {
		// Everything in an item that is neither strategy nor backend: frame
		// rendering hand-off, feature extraction, scoring.
		known := pf.total + agg["core.handle_edge_result"].total +
			agg["pipeline.backend_submit"].total + agg["pipeline.backend_advance"].total
		m["pipeline.engine_other_us"] = perItemUs - micros(known)/float64(pf.calls)
	}
}

package main

// metricDef is one row of BENCHMARK.json; Bound is only set on end-to-end
// metrics. bench_test.go keeps these tables and the file equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"mobile-street", "Engine+core.System+SimBackend over the 300-frame street clip: MAMT transfer and mask kernels are ~85% of a frame, the wire and the edge almost nothing"},
	{"mobile-orbit", "same stack over the 200-frame orbit clip: visual odometry is ~60% of a frame and MAMT ~40%, so a transfer gain that costs vo shows as one workload up, one down"},
	{"offload-rtt", "one guided Mask R-CNN frame in flight over a loopback socket, default server: transport (contour extraction, framing) and segmodel own the round trip, the scheduler is idle"},
	{"edge-burst", "2 connections x 8 pipelined box-only frames against 2 batching accelerators with keyframe skipping: contour work vanishes, so edge.Scheduler, framing and socket I/O dominate"},
}

// Count metrics repeat exactly, so their bounds are tight. Timing metrics
// come from floor timing at a reference clock; on the shared two-vCPU hosts
// this runs on, ten runs of identical code still spread by 5-15% (see
// README.md, "How steady it is"), so they take the widest bound the contract
// allows, as does setup_s, which is milliseconds on the mobile workloads.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"lat_ms_p50", "ms", "lower", 0.25},
	{"lat_ms_p90", "ms", "lower", 0.25},
	{"ok_share", "ratio", "higher", 0.001},
	{"allocs_per_op", "count", "lower", 0.01},
	{"alloc_kb_per_op", "KB", "lower", 0.01},
	{"wire_kb_per_op", "KB", "lower", 0.005},
	{"mask_iou", "ratio", "higher", 0.006},
}

func layer(name, unit, better string) metricDef {
	return metricDef{Name: name, Unit: unit, Better: better}
}

var perLayer = []metricDef{
	layer("core.process_frame_us", "us", "lower"),
	layer("core.vo_us", "us", "lower"),
	layer("core.mamt_predict_us", "us", "lower"),
	layer("core.mamt_zclip_us", "us", "lower"),
	layer("core.cfrs_newareas_us", "us", "lower"),
	layer("core.cfrs_decide_us", "us", "lower"),
	layer("core.cfrs_encode_us", "us", "lower"),
	layer("core.ciia_plan_us", "us", "lower"),
	layer("core.handle_result_us", "us", "lower"),
	layer("core.lost_events", "count", "lower"),
	layer("core.init_attempts", "count", "lower"),

	layer("pipeline.engine_other_us", "us", "lower"),
	layer("pipeline.backend_submit_us", "us", "lower"),
	layer("pipeline.offload_share", "ratio", "lower"),
	layer("pipeline.dropped_frames", "count", "lower"),
	layer("pipeline.dropped_offloads", "count", "lower"),

	layer("mask.pool_allocs_per_op", "count", "lower"),

	layer("transport.marshal_frame_us", "us", "lower"),
	layer("transport.unmarshal_frame_us", "us", "lower"),
	layer("transport.from_detection_us", "us", "lower"),
	layer("transport.marshal_result_us", "us", "lower"),
	layer("transport.unmarshal_result_us", "us", "lower"),
	layer("transport.to_detection_us", "us", "lower"),
	layer("transport.rtt_empty_us", "us", "lower"),
	layer("transport.io_other_us", "us", "lower"),

	layer("live.to_edge_result_us", "us", "lower"),

	layer("segmodel.run_us", "us", "lower"),
	layer("segmodel.run_warped_us", "us", "lower"),

	layer("edge.infer_overhead_us", "us", "lower"),
	layer("edge.wait_ms_mean", "ms", "lower"),
	layer("edge.queue_depth_mean", "count", "lower"),
	layer("edge.queue_depth_peak", "count", "lower"),
	layer("edge.batches", "count", "lower"),
	layer("edge.batch_size_mean", "count", "higher"),
	layer("edge.keyframe_share", "ratio", "lower"),
	layer("edge.rejected", "count", "lower"),
	layer("edge.shed", "count", "lower"),

	layer("proc.wall_ops_per_s", "1/s", "higher"),
	layer("proc.lat_ms_p99_asrun", "ms", "lower"),
	layer("proc.noise_ratio", "ratio", "lower"),
	layer("proc.cpu_ms_per_op", "ms", "lower"),
	layer("proc.gc_cycles", "count", "lower"),
	layer("proc.gc_pause_ms", "ms", "lower"),
	layer("proc.heap_peak_mb", "MB", "lower"),
	layer("proc.trace_overhead_share", "ratio", "lower"),
}

// runSeconds is how long one run measures (BENCHMARK.json run_seconds).
const runSeconds = 20

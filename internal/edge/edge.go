// Package edge implements the serving layer of the edge node: per-client
// Sessions and an accelerator Scheduler. The paper's testbed (§IV) pairs one
// mobile with one Jetson, so its server can treat the GPU as a mutex; a
// production edge node serves many mobiles from a pool of accelerators and
// needs the accelerator treated as a scheduled, admission-controlled shared
// resource instead (cf. YolactEdge's throughput-oriented edge serving).
//
// The layering is:
//
//   - transport (package transport): framing and socket IO only. One
//     goroutine per connection reads frames; each frame in flight submits
//     here and writes its result, reject or shed notice back.
//   - Session (this package): per-client state — identity, serving counters,
//     and the CIIA guidance context that must survive across requests so a
//     client's instructed areas keep accelerating its later frames.
//   - Scheduler (this package): a pool of N inference workers, each owning
//     one Accelerator, fed by a bounded admission queue with fair
//     round-robin per-session dequeue. A full queue rejects explicitly
//     (ErrQueueFull) or — under the latest-wins admission policy — sheds
//     the arriving session's own stale queued frame (ErrShed), never
//     silently; Close drains admitted work and then rejects everything
//     new, so shutdown cannot deadlock a waiter.
//   - Policies (policy.go): AdmissionPolicy decides the fate of requests
//     at a full queue; DequeuePolicy shapes accelerator launches, up to
//     cross-session batches of compatible jobs gathered within a window.
//
// With Workers=1 and the default policies the scheduler serializes
// inference exactly like the old GPU mutex, which keeps single-client runs
// deterministic; throughput scaling comes from raising Workers and, for
// Launchers, from cross-session batching.
//
// This package legitimately reads the wall clock (queue wait measurement,
// session uptime): it serves real sockets in real time, like package
// transport, and is allowlisted by the edgeis-lint walltime analyzer.
package edge

import "errors"

// Errors returned by Scheduler.Infer.
var (
	// ErrQueueFull reports an admission rejection: the bounded queue was at
	// capacity when the request arrived. The caller should tell its client
	// the frame was shed rather than fail the connection.
	ErrQueueFull = errors.New("edge: admission queue full")
	// ErrShed reports that a queued frame was displaced by a fresher frame
	// from the same session under the latest-wins admission policy. Like a
	// rejection it is a per-frame outcome, not a connection failure.
	ErrShed = errors.New("edge: stale frame shed by latest-wins admission")
	// ErrClosed reports a submission to a scheduler (or through a session)
	// that has shut down.
	ErrClosed = errors.New("edge: scheduler closed")
)

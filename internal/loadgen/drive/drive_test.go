package drive

import (
	"strings"
	"testing"
	"time"

	"edgeis/internal/loadgen"
	"edgeis/internal/segmodel"
	"edgeis/internal/transport"
)

// fastOpts compresses wall time so the suite stays quick while still
// exercising real goroutines, timers and (for TCP) sockets.
func fastOpts() Options {
	return Options{TimeScale: 0.2, Occupancy: 0.25, DrainTimeout: 10 * time.Second}
}

// raceProfile bounds a profile to a short smoke run under the race
// detector, whose ~10-20x slowdown would otherwise blow the suite budget.
// The conservation checks stay strict on the shortened run — the law must
// hold at any length — while timing-shape assertions (shed counts, batch
// means) are separately gated on raceEnabled because the detector's
// scheduling skew makes them flappy.
func raceProfile(p loadgen.Profile) loadgen.Profile {
	if raceEnabled {
		p.Name += "-race-smoke"
		p.DurationMs = 600
	}
	return p
}

// checkConservation asserts the no-silent-loss law and report sanity that
// every live run must satisfy regardless of host timing.
func checkConservation(t *testing.T, slo *loadgen.SLO) {
	t.Helper()
	if err := slo.Check(); err != nil {
		t.Fatal(err)
	}
	if slo.Offered == 0 || slo.Served == 0 {
		t.Fatalf("degenerate run: %s", slo)
	}
	t.Logf("%s", slo)
}

// TestRunSchedulerConservation drives the real edge.Scheduler with a paced
// fleet and checks that the driver's offered == served + rejected + dropped
// reconciles with the scheduler's own served/rejected/cancelled counters
// (RunScheduler errors on any mismatch).
func TestRunSchedulerConservation(t *testing.T) {
	p, err := loadgen.ProfileByName("ci-smoke")
	if err != nil {
		t.Fatal(err)
	}
	slo, err := RunScheduler(raceProfile(p), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if slo.Target != "scheduler" {
		t.Fatalf("target = %q, want scheduler", slo.Target)
	}
	checkConservation(t, slo)
}

// TestRunSchedulerUnderContention forces admission pressure (one
// accelerator, tiny queue, heavy occupancy) so the reject path is exercised
// and still accounted exactly.
func TestRunSchedulerUnderContention(t *testing.T) {
	p := loadgen.Profile{
		Name: "contention", Sessions: 24, Accelerators: 1, QueueDepth: 4,
		MaxOutstanding: 8, DurationMs: 2500, FPS: 8,
		Arrival: loadgen.Bursty, Seed: 9,
		Links: []loadgen.LinkShape{loadgen.Fast},
		Clips: []loadgen.ClipClass{loadgen.ClipIndustrial},
	}
	slo, err := RunScheduler(raceProfile(p), Options{TimeScale: 0.25, Occupancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, slo)
	if !raceEnabled && slo.Rejected+slo.Dropped == 0 {
		t.Error("contention profile shed nothing; occupancy too light to exercise rejects")
	}
}

// TestRunSchedulerBatchFormer drives the real scheduler with the
// gather-window batch former on a single-clip fleet: launches must actually
// gather (mean batch size above 1) and the driver's accounting must still
// reconcile against the scheduler's (RunScheduler errors on any mismatch).
func TestRunSchedulerBatchFormer(t *testing.T) {
	p := loadgen.Profile{
		Name: "batch-live", Sessions: 24, Accelerators: 2, QueueDepth: 16,
		MaxOutstanding: 8, DurationMs: 2500, FPS: 8,
		Arrival: loadgen.Bursty, Seed: 21,
		Links:    []loadgen.LinkShape{loadgen.Fast},
		Clips:    []loadgen.ClipClass{loadgen.ClipIndoor},
		MaxBatch: 8, BatchWindowMs: 2,
	}
	slo, err := RunScheduler(raceProfile(p), Options{TimeScale: 0.25, Occupancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, slo)
	if !raceEnabled && (slo.Batches == 0 || slo.MeanBatchSize <= 1.2) {
		t.Errorf("batch former gathered nothing: %d batches, mean size %.2f", slo.Batches, slo.MeanBatchSize)
	}
}

// TestRunSchedulerLatestWins drives the contention profile under the
// latest-wins admission policy: stale frames must be shed (not silently
// lost), the driver's shed tally must reconcile with the scheduler's, and
// the conservation law must extend to the new outcome class.
func TestRunSchedulerLatestWins(t *testing.T) {
	p := loadgen.Profile{
		Name: "shed-live", Sessions: 24, Accelerators: 1, QueueDepth: 4,
		MaxOutstanding: 8, DurationMs: 2500, FPS: 8,
		Arrival: loadgen.Bursty, Seed: 9,
		Links:      []loadgen.LinkShape{loadgen.Fast},
		Clips:      []loadgen.ClipClass{loadgen.ClipIndustrial},
		ShedPolicy: "latest-wins",
	}
	slo, err := RunScheduler(raceProfile(p), Options{TimeScale: 0.25, Occupancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, slo)
	if !raceEnabled && slo.Shed == 0 {
		t.Error("latest-wins shed nothing under sustained contention")
	}
}

// TestRunTCPLatestWins is the socket counterpart: shed notices cross the
// wire as TypeShed, the clients fold them into their outstanding windows,
// and the run reconciles client tallies against the in-process server.
func TestRunTCPLatestWins(t *testing.T) {
	if testing.Short() {
		t.Skip("socket run skipped in -short")
	}
	// Few sessions at a high rate against a tiny queue: latest-wins only
	// fires when the arriving session already has its own frame queued, so
	// the backlog must be per-session, not just fleet-wide.
	p := loadgen.Profile{
		Name: "tcp-shed", Sessions: 4, Accelerators: 1, QueueDepth: 3,
		MaxOutstanding: 8, DurationMs: 1000, FPS: 30,
		Arrival: loadgen.Steady, Seed: 13,
		Links:      []loadgen.LinkShape{loadgen.Fast},
		Clips:      []loadgen.ClipClass{loadgen.ClipStreet},
		ShedPolicy: "latest-wins",
	}
	slo, err := RunTCP(raceProfile(p), Options{TimeScale: 0.2, Occupancy: 2, DrainTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, slo)
	if !raceEnabled && slo.Shed == 0 {
		t.Error("latest-wins over TCP shed nothing; occupancy too light to exercise the policy")
	}
}

// TestRunTCPConservation is the transport-level conformance counterpart:
// the same profile over real loopback sockets, with client-side accounting
// (results and wire rejects) reconciled against the in-process server.
func TestRunTCPConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("socket run skipped in -short")
	}
	p, err := loadgen.ProfileByName("tcp-smoke")
	if err != nil {
		t.Fatal(err)
	}
	slo, err := RunTCP(raceProfile(p), fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if slo.Target != "tcp" {
		t.Fatalf("target = %q, want tcp", slo.Target)
	}
	checkConservation(t, slo)
}

// TestRunTCPExternalAddr points the TCP target at a server it did not start
// (the edgeis-loadgen -addr path): the run is a one-address fleet, every
// frame must still reach that server and come back, and a profile that
// shards or kills replicas is refused — the driver cannot kill a server it
// does not own.
func TestRunTCPExternalAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("socket run skipped in -short")
	}
	p, err := loadgen.ProfileByName("tcp-smoke")
	if err != nil {
		t.Fatal(err)
	}
	p = raceProfile(p)
	srv := transport.NewServer(segmodel.New(segmodel.YOLOv3),
		transport.WithAccelerators(p.Accelerators), transport.WithQueueDepth(p.QueueDepth))
	bound, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opts := fastOpts()
	opts.Addr = bound.String()

	slo, err := RunTCP(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, slo)
	if st := srv.Scheduler().Stats(); st.Served < slo.Served || st.PeakSessions != p.Sessions {
		t.Errorf("external server served %d frames over %d sessions, driver saw %d over %d",
			st.Served, st.PeakSessions, slo.Served, p.Sessions)
	}

	p.Kills = []loadgen.ReplicaKill{{Replica: 0, AtMs: 100}}
	if _, err := RunTCP(p, opts); err == nil || !strings.Contains(err.Error(), "-addr") {
		t.Errorf("kills with an external address: err = %v, want refusal", err)
	}
}

// TestRunSchedulerFleetKill drives a sharded scheduler fleet through a
// mid-run replica kill: the killed replica's frames must land in the
// migrated bucket (RunScheduler errors if any frame goes missing from the
// reconciliation), sessions must resume on survivors, and the keyframe
// partition law must hold fleet-wide despite the forced post-migration
// keyframes.
func TestRunSchedulerFleetKill(t *testing.T) {
	p := loadgen.Profile{
		Name: "sched-fleet", Sessions: 24, Accelerators: 1, QueueDepth: 8,
		MaxOutstanding: 8, DurationMs: 2500, FPS: 8,
		Arrival: loadgen.Steady, Seed: 17,
		Links:            []loadgen.LinkShape{loadgen.Fast},
		Clips:            []loadgen.ClipClass{loadgen.ClipIndustrial},
		KeyframeInterval: 4, Replicas: 3,
		Kills: []loadgen.ReplicaKill{{Replica: 1, AtMs: 1200}},
	}
	slo, err := RunScheduler(raceProfile(p), Options{TimeScale: 0.25, Occupancy: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, slo)
	if slo.Replicas != 3 {
		t.Fatalf("replicas = %d, want 3", slo.Replicas)
	}
	if !raceEnabled && slo.Migrated == 0 {
		t.Error("replica kill migrated nothing on the scheduler target")
	}
}

// TestRunTCPFleetFailover is the socket counterpart: one server per
// replica, fleet clients per session, a mid-run server kill. The clients
// must observe the socket loss, fail over with the resume handshake
// (RunTCP errors if migrated frames appear without any replica adopting a
// session) and keep the client-side conservation identity closed.
func TestRunTCPFleetFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("socket run skipped in -short")
	}
	p := loadgen.Profile{
		Name: "tcp-fleet", Sessions: 12, Accelerators: 1, QueueDepth: 8,
		MaxOutstanding: 4, DurationMs: 2000, FPS: 8,
		Arrival: loadgen.Steady, Seed: 19,
		Links:            []loadgen.LinkShape{loadgen.Fast},
		Clips:            []loadgen.ClipClass{loadgen.ClipStreet},
		KeyframeInterval: 4, Replicas: 3,
		Kills: []loadgen.ReplicaKill{{Replica: 0, AtMs: 1000}},
	}
	slo, err := RunTCP(raceProfile(p), Options{TimeScale: 0.2, Occupancy: 2, DrainTimeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, slo)
	if slo.Replicas != 3 {
		t.Fatalf("replicas = %d, want 3", slo.Replicas)
	}
	if !raceEnabled && slo.Migrated == 0 {
		t.Error("server kill migrated nothing through the fleet clients")
	}
}

// TestOfferedScheduleMatchesSimulator pins the cross-target contract: the
// wall-clock drivers replay Profile.SessionArrivals, so their offered count
// equals the simulator's for the same profile.
func TestOfferedScheduleMatchesSimulator(t *testing.T) {
	p, err := loadgen.ProfileByName("ci-smoke")
	if err != nil {
		t.Fatal(err)
	}
	// Both targets replay the same (possibly race-shortened) profile, so
	// the offered schedules must still agree exactly.
	p = raceProfile(p)
	simSLO := loadgen.Run(p)
	liveSLO, err := RunScheduler(p, fastOpts())
	if err != nil {
		t.Fatal(err)
	}
	if simSLO.Offered != liveSLO.Offered {
		t.Errorf("offered diverges across targets: sim %d, scheduler %d", simSLO.Offered, liveSLO.Offered)
	}
}

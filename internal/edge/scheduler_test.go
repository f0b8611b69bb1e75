package edge

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeis/internal/segmodel"
)

// gateAccel blocks each Run until released, recording the order in which
// requests reach the accelerator (identified by Input.Seed).
type gateAccel struct {
	gate chan struct{}

	mu    sync.Mutex
	order []int64
}

func (a *gateAccel) Run(in segmodel.Input, g segmodel.Guidance) (*segmodel.Result, float64) {
	a.mu.Lock()
	a.order = append(a.order, in.Seed)
	a.mu.Unlock()
	<-a.gate
	return &segmodel.Result{BackboneMs: 10}, 10
}

func (a *gateAccel) seen() []int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]int64(nil), a.order...)
}

// sleepAccel holds the accelerator for a fixed wall time per request, the
// occupancy model the throughput tests scale against.
type sleepAccel struct{ d time.Duration }

func (a sleepAccel) Run(segmodel.Input, segmodel.Guidance) (*segmodel.Result, float64) {
	time.Sleep(a.d)
	return &segmodel.Result{BackboneMs: 10}, 10
}

// waitFor polls until cond holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// inferAsync submits in a goroutine and returns a channel carrying the error.
func inferAsync(sess *Session, seed int64) <-chan error {
	errc := make(chan error, 1)
	go func() {
		_, _, err := sess.Infer(segmodel.Input{Seed: seed}, nil)
		errc <- err
	}()
	return errc
}

func TestSchedulerRejectsWhenQueueFull(t *testing.T) {
	acc := &gateAccel{gate: make(chan struct{})}
	s := NewScheduler(Config{Workers: 1, QueueDepth: 1,
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()
	sess := s.NewSession("test")
	defer sess.Close()

	// First request reaches the (blocked) accelerator, second fills the
	// depth-1 queue, third must be rejected explicitly.
	e1 := inferAsync(sess, 1)
	waitFor(t, "first request in flight", func() bool { return s.Stats().InFlight == 1 })
	e2 := inferAsync(sess, 2)
	waitFor(t, "second request queued", func() bool { return s.Stats().Queued == 1 })

	if _, _, err := sess.Infer(segmodel.Input{Seed: 3}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third request: err = %v, want ErrQueueFull", err)
	}

	close(acc.gate)
	if err := <-e1; err != nil {
		t.Errorf("first request: %v", err)
	}
	if err := <-e2; err != nil {
		t.Errorf("second request: %v", err)
	}

	st := s.Stats()
	if st.Served != 2 || st.Rejected != 1 {
		t.Errorf("served=%d rejected=%d, want 2/1", st.Served, st.Rejected)
	}
	if ss := sess.Stats(); ss.Rejected != 1 || ss.Served != 2 {
		t.Errorf("session served=%d rejected=%d, want 2/1", ss.Served, ss.Rejected)
	}
}

// TestSchedulerFairPerSessionDequeue pins the round-robin discipline: a
// session with a deep backlog cannot starve a session with one request.
func TestSchedulerFairPerSessionDequeue(t *testing.T) {
	acc := &gateAccel{gate: make(chan struct{}, 16)}
	s := NewScheduler(Config{Workers: 1, QueueDepth: 8,
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()
	a := s.NewSession("a")
	defer a.Close()
	b := s.NewSession("b")
	defer b.Close()

	// A1 occupies the worker; then A queues two more before B queues one.
	waits := []<-chan error{inferAsync(a, 101)}
	waitFor(t, "A1 in flight", func() bool { return s.Stats().InFlight == 1 })
	waits = append(waits, inferAsync(a, 102))
	waitFor(t, "A2 queued", func() bool { return s.Stats().Queued == 1 })
	waits = append(waits, inferAsync(a, 103))
	waitFor(t, "A3 queued", func() bool { return s.Stats().Queued == 2 })
	waits = append(waits, inferAsync(b, 201))
	waitFor(t, "B1 queued", func() bool { return s.Stats().Queued == 3 })

	for range waits {
		acc.gate <- struct{}{}
	}
	for i, w := range waits {
		if err := <-w; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	want := []int64{101, 102, 201, 103}
	got := acc.seen()
	if len(got) != len(want) {
		t.Fatalf("accelerator saw %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dequeue order %v, want %v (B starved behind A's backlog)", got, want)
		}
	}
}

// TestSchedulerBacklogNotStarvedBySessionChurn is the regression test for
// the round-robin rotation discipline. The old index-walk dequeue kept its
// cursor fixed while drained sessions were removed in front of it and fresh
// sessions appended behind it, so under a steady churn of new single-request
// sessions a backlogged session parked before the cursor was never reached
// again: its queued requests waited until the churn stopped. With rotation
// the backlog must be served exactly once per pass over the waiting
// sessions. The gate serializes the single worker, so the dequeue order is
// deterministic.
func TestSchedulerBacklogNotStarvedBySessionChurn(t *testing.T) {
	acc := &gateAccel{gate: make(chan struct{})}
	s := NewScheduler(Config{Workers: 1, QueueDepth: 32,
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()

	var waits []<-chan error
	queued := 0
	submit := func(sess *Session, seed int64) {
		t.Helper()
		waits = append(waits, inferAsync(sess, seed))
		queued++
		waitFor(t, "request queued", func() bool { return s.Stats().Queued == queued })
	}
	// release lets the worker finish its current request and pick the next;
	// it returns once the accelerator has recorded that next dequeue.
	release := func(n int) {
		t.Helper()
		acc.gate <- struct{}{}
		queued--
		waitFor(t, "next dequeue recorded", func() bool { return len(acc.seen()) == n })
	}

	hot := s.NewSession("hot")
	defer hot.Close()
	waits = append(waits, inferAsync(hot, 900))
	waitFor(t, "hot head in flight", func() bool { return s.Stats().InFlight == 1 })
	submit(hot, 901)
	submit(hot, 902)

	// Three churn sessions wait behind the hot backlog, and every completion
	// is replaced by a brand-new session, so the ring never runs dry while
	// the churn lasts — the exact pattern that used to starve seeds 901/902.
	var churn []*Session
	for i := int64(0); i < 3; i++ {
		c := s.NewSession("churn")
		churn = append(churn, c)
		submit(c, 1+i)
	}
	for i := int64(0); i < 6; i++ {
		release(int(i) + 2)
		c := s.NewSession("churn")
		churn = append(churn, c)
		submit(c, 10+i)
	}

	// Drain everything still queued and close the churn sessions.
	close(acc.gate)
	for i, w := range waits {
		if err := <-w; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	for _, c := range churn {
		c.Close()
	}

	order := acc.seen()
	pos := map[int64]int{}
	for i, seed := range order {
		pos[seed] = i
	}
	// One pass over the ring (hot + 3 churn + 1 replacement) must reach the
	// hot backlog: seed 902 within the first 7 dequeues. The pre-rotation
	// scheduler served it last, after the churn was exhausted.
	if p, ok := pos[902]; !ok || p > 6 {
		t.Errorf("hot backlog starved by churn: seed 902 at dequeue %d of %v", pos[902], order)
	}
	if pos[901] > pos[1] || pos[902] > pos[10] {
		t.Errorf("hot backlog lapped by later churn arrivals: order %v", order)
	}
	if st := s.Stats(); st.Served != len(waits) || st.Rejected != 0 || st.Shed != 0 || st.Cancelled != 0 {
		t.Errorf("accounting: served=%d rejected=%d shed=%d cancelled=%d, want %d/0/0/0",
			st.Served, st.Rejected, st.Shed, st.Cancelled, len(waits))
	}
}

// TestSchedulerColdSessionsProgressUnderHotFlood is the skewed-arrival
// stress test (run under -race via make check): four goroutines flood one
// hot session while six cold sessions each need a handful of successes.
// Fair dequeue must keep every cold session progressing, and the
// no-silent-loss law offered == served + rejected (+ cancelled) must hold
// per session and fleet-wide when the dust settles.
func TestSchedulerColdSessionsProgressUnderHotFlood(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, QueueDepth: 8,
		NewAccelerator: func(int) Accelerator { return sleepAccel{200 * time.Microsecond} }})
	defer func() { _ = s.Close() }()

	const coldSessions, coldTarget = 6, 5
	stop := make(chan struct{})
	var hotOffered, hotServed, hotRejected atomic.Int64
	hot := s.NewSession("hot")
	defer hot.Close()
	var hotWG sync.WaitGroup
	for g := 0; g < 4; g++ {
		hotWG.Add(1)
		go func() {
			defer hotWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				hotOffered.Add(1)
				_, _, err := hot.Infer(segmodel.Input{Seed: 1}, nil)
				switch {
				case err == nil:
					hotServed.Add(1)
				case errors.Is(err, ErrQueueFull):
					hotRejected.Add(1)
				default:
					t.Errorf("hot infer: %v", err)
					return
				}
			}
		}()
	}

	var coldOffered, coldServed, coldRejected atomic.Int64
	var coldWG sync.WaitGroup
	for i := 0; i < coldSessions; i++ {
		coldWG.Add(1)
		go func(i int) {
			defer coldWG.Done()
			sess := s.NewSession("cold")
			defer sess.Close()
			served, rejected := 0, 0
			deadline := time.Now().Add(10 * time.Second)
			for served < coldTarget && time.Now().Before(deadline) {
				coldOffered.Add(1)
				_, _, err := sess.Infer(segmodel.Input{Seed: int64(100 + i)}, nil)
				switch {
				case err == nil:
					served++
					coldServed.Add(1)
				case errors.Is(err, ErrQueueFull):
					rejected++
					coldRejected.Add(1)
					time.Sleep(200 * time.Microsecond)
				default:
					t.Errorf("cold %d infer: %v", i, err)
					return
				}
			}
			if served < coldTarget {
				t.Errorf("cold session %d starved: served %d of %d wanted (rejected %d) while hot flooded",
					i, served, coldTarget, rejected)
			}
			if st := sess.Stats(); st.Served != served || st.Rejected != rejected {
				t.Errorf("cold session %d accounting: stats served/rejected %d/%d, caller saw %d/%d",
					i, st.Served, st.Rejected, served, rejected)
			}
		}(i)
	}
	coldWG.Wait()
	close(stop)
	hotWG.Wait()

	if hs := hot.Stats(); int64(hs.Served) != hotServed.Load() || int64(hs.Rejected) != hotRejected.Load() {
		t.Errorf("hot session accounting: stats served/rejected %d/%d, caller saw %d/%d",
			hs.Served, hs.Rejected, hotServed.Load(), hotRejected.Load())
	}
	offered := hotOffered.Load() + coldOffered.Load()
	st := s.Stats()
	if accounted := int64(st.Served + st.Rejected + st.Shed + st.Cancelled); accounted != offered {
		t.Errorf("conservation violated: offered %d != served %d + rejected %d + shed %d + cancelled %d",
			offered, st.Served, st.Rejected, st.Shed, st.Cancelled)
	}
	l := s.Ledger()
	if err := l.Check(0); err != nil || int64(l.Offered()) != offered {
		t.Errorf("scheduler's own ledger after drain, callers offered %d: %+v: %v", offered, l, err)
	}
	t.Logf("hot served/rejected %d/%d; cold served/rejected %d/%d",
		hotServed.Load(), hotRejected.Load(), coldServed.Load(), coldRejected.Load())
}

// TestSchedulerCloseDrainsWithoutDeadlock exercises graceful shutdown under
// load (and under -race via make check): admitted requests complete, late
// ones fail with ErrClosed or ErrQueueFull, and Close returns.
func TestSchedulerCloseDrainsWithoutDeadlock(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, QueueDepth: 64,
		NewAccelerator: func(int) Accelerator { return sleepAccel{500 * time.Microsecond} }})

	const clients, perClient = 4, 8
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		sess := s.NewSession("load")
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer sess.Close()
			for i := 0; i < perClient; i++ {
				_, _, err := sess.Infer(segmodel.Input{}, nil)
				switch {
				case err == nil:
					served.Add(1)
				case errors.Is(err, ErrClosed) || errors.Is(err, ErrQueueFull):
					failed.Add(1)
				default:
					t.Errorf("unexpected error: %v", err)
				}
			}
		}()
	}
	// Close mid-flight; every waiter must still be answered.
	time.Sleep(2 * time.Millisecond)
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()

	if got := served.Load() + failed.Load(); got != clients*perClient {
		t.Errorf("accounted %d of %d requests", got, clients*perClient)
	}
	sess := s.NewSession("late")
	if _, _, err := sess.Infer(segmodel.Input{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close submit: err = %v, want ErrClosed", err)
	}
	// Idempotent.
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	st := s.Stats()
	if int64(st.Served) != served.Load() {
		t.Errorf("stats served=%d, callers saw %d", st.Served, served.Load())
	}
	if st.Queued != 0 || st.InFlight != 0 {
		t.Errorf("close left queued=%d inflight=%d", st.Queued, st.InFlight)
	}
}

// TestSchedulerThroughputScalesWithWorkers is the multi-client scaling
// check: with accelerator occupancy dominating, 4 workers must serve the
// same multi-session load at least twice as fast as 1 worker. Sleep-bound
// work keeps the ratio robust under the race detector.
func TestSchedulerThroughputScalesWithWorkers(t *testing.T) {
	const clients, perClient = 4, 24
	run := func(workers int) time.Duration {
		s := NewScheduler(Config{Workers: workers, QueueDepth: 64,
			NewAccelerator: func(int) Accelerator { return sleepAccel{4 * time.Millisecond} }})
		defer func() { _ = s.Close() }()
		start := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			sess := s.NewSession("bench")
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer sess.Close()
				for i := 0; i < perClient; i++ {
					if _, _, err := sess.Infer(segmodel.Input{}, nil); err != nil {
						t.Errorf("infer: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		if st := s.Stats(); st.Served != clients*perClient {
			t.Fatalf("served %d, want %d", st.Served, clients*perClient)
		}
		return time.Since(start)
	}

	serial := run(1)
	pooled := run(4)
	t.Logf("1 worker: %v, 4 workers: %v (%.1fx)", serial, pooled, float64(serial)/float64(pooled))
	if pooled*2 > serial {
		t.Errorf("4 workers not >=2x faster: 1w=%v 4w=%v", serial, pooled)
	}
}

// plan is a trivial Guidance marker for continuity tests.
type plan struct{ segmodel.Guidance }

func TestSessionGuidanceContinuity(t *testing.T) {
	newSched := func(continuity bool) *Scheduler {
		return NewScheduler(Config{
			GuidanceContinuity: continuity,
			NewAccelerator:     func(int) Accelerator { return sleepAccel{0} },
		})
	}

	s := newSched(true)
	defer func() { _ = s.Close() }()
	sess := s.NewSession("c")
	defer sess.Close()
	p := &plan{}
	if got := sess.Guide(nil); got != nil {
		t.Error("no plan yet: Guide(nil) must stay nil")
	}
	if got := sess.Guide(p); got != p {
		t.Error("explicit guidance must pass through")
	}
	if got := sess.Guide(nil); got != p {
		t.Error("continuity on: retained plan must be reused")
	}
	if st := sess.Stats(); st.GuidedFrames != 1 || st.ReusedPlans != 1 {
		t.Errorf("guided=%d reused=%d, want 1/1", st.GuidedFrames, st.ReusedPlans)
	}

	off := newSched(false)
	defer func() { _ = off.Close() }()
	sess2 := off.NewSession("d")
	defer sess2.Close()
	sess2.Guide(p)
	if got := sess2.Guide(nil); got != nil {
		t.Error("continuity off: guidance-less frames must run vanilla")
	}
}

func TestSchedulerSessionAccounting(t *testing.T) {
	s := NewScheduler(Config{Workers: 1,
		NewAccelerator: func(int) Accelerator { return sleepAccel{0} }})
	defer func() { _ = s.Close() }()

	a := s.NewSession("1.2.3.4:100")
	b := s.NewSession("1.2.3.4:200")
	for i := 0; i < 3; i++ {
		if _, _, err := a.Infer(segmodel.Input{}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := b.Infer(segmodel.Input{}, nil); err != nil {
		t.Fatal(err)
	}

	rows := s.Sessions()
	if len(rows) != 2 || rows[0].ID >= rows[1].ID {
		t.Fatalf("sessions = %+v", rows)
	}
	if rows[0].Served != 3 || rows[1].Served != 1 {
		t.Errorf("served = %d/%d, want 3/1", rows[0].Served, rows[1].Served)
	}
	if rows[0].MeanInferMs <= 0 {
		t.Error("no inference latency recorded")
	}
	if st := s.Stats(); st.ActiveSessions != 2 || st.PeakSessions != 2 {
		t.Errorf("active=%d peak=%d", st.ActiveSessions, st.PeakSessions)
	}

	a.Close()
	a.Close() // idempotent
	if st := s.Stats(); st.ActiveSessions != 1 || st.PeakSessions != 2 {
		t.Errorf("after close: active=%d peak=%d", st.ActiveSessions, st.PeakSessions)
	}
	if _, _, err := a.Infer(segmodel.Input{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("closed session submit: %v", err)
	}
}

// noopAccel answers instantly with one shared result.
type noopAccel struct{ out segmodel.Result }

func (a *noopAccel) Run(segmodel.Input, segmodel.Guidance) (*segmodel.Result, float64) {
	return &a.out, 0
}

// TestInferAllocs pins the scheduler's own per-request allocations in front
// of an accelerator that does nothing: the request and its completion
// channel, the admission bookkeeping, and no per-launch slices — the worker
// keeps those as scratch.
func TestInferAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s := NewScheduler(Config{NewAccelerator: func(int) Accelerator { return &noopAccel{} }})
	defer func() { _ = s.Close() }()
	sess := s.NewSession("allocs")
	defer sess.Close()
	in := segmodel.Input{Width: 320, Height: 240}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, _, err := sess.Infer(in, nil); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.2f allocs per request", allocs)
	if allocs > 6 {
		t.Errorf("Session.Infer allocates %.2f times per request, want <= 6", allocs)
	}
}

package edge

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edgeis/internal/segmodel"
)

func TestAdmissionPolicyVerdicts(t *testing.T) {
	r := RejectWhenFull{}
	if got := r.Admit(3, 4, 2); got != VerdictAdmit {
		t.Errorf("reject policy with room: %v, want admit", got)
	}
	if got := r.Admit(4, 4, 2); got != VerdictReject {
		t.Errorf("reject policy at capacity: %v, want reject", got)
	}

	lw := LatestWins{}
	if got := lw.Admit(3, 4, 2); got != VerdictAdmit {
		t.Errorf("latest-wins with room: %v, want admit", got)
	}
	if got := lw.Admit(4, 4, 2); got != VerdictShedOldest {
		t.Errorf("latest-wins at capacity with own pending: %v, want shed-oldest", got)
	}
	if got := lw.Admit(4, 4, 0); got != VerdictReject {
		t.Errorf("latest-wins at capacity with nothing to shed: %v, want reject", got)
	}

	for name, want := range map[string]string{"": "reject", "reject": "reject", "latest-wins": "latest-wins"} {
		p, err := AdmissionPolicyByName(name)
		if err != nil || p.Name() != want {
			t.Errorf("AdmissionPolicyByName(%q) = %v, %v; want %s", name, p, err, want)
		}
	}
	if _, err := AdmissionPolicyByName("bogus"); err == nil {
		t.Error("unknown policy name must error")
	}
}

func TestDequeuePolicyClamps(t *testing.T) {
	if s := (SingleDequeue{}); s.MaxBatch() != 1 || s.Window() != 0 || s.Name() != "single" {
		t.Errorf("single dequeue: %d/%v/%s", s.MaxBatch(), s.Window(), s.Name())
	}
	g := GatherBatch{Max: 0, GatherWindow: -time.Second}
	if g.MaxBatch() != 1 || g.Window() != 0 {
		t.Errorf("gather clamps: max=%d window=%v, want 1/0", g.MaxBatch(), g.Window())
	}
	g = GatherBatch{Max: 8, GatherWindow: time.Millisecond}
	if g.MaxBatch() != 8 || g.Window() != time.Millisecond || g.Name() != "batch" {
		t.Errorf("gather passthrough: %d/%v/%s", g.MaxBatch(), g.Window(), g.Name())
	}
}

// TestLatestWinsShedsStaleFrame pins the shed discipline end to end: the
// displaced waiter gets ErrShed, the fresh frame takes its slot, and the
// four-way accounting (served/rejected/shed/cancelled) partitions every
// offered request.
func TestLatestWinsShedsStaleFrame(t *testing.T) {
	acc := &gateAccel{gate: make(chan struct{})}
	s := NewScheduler(Config{Workers: 1, QueueDepth: 1, Admission: LatestWins{},
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()
	a := s.NewSession("a")
	defer a.Close()
	b := s.NewSession("b")
	defer b.Close()

	// Frame 1 occupies the worker, frame 2 fills the depth-1 queue.
	e1 := inferAsync(a, 1)
	waitFor(t, "first request in flight", func() bool { return s.Stats().InFlight == 1 })
	e2 := inferAsync(a, 2)
	waitFor(t, "second request queued", func() bool { return s.Stats().Queued == 1 })

	// Frame 3 from the same session displaces frame 2 instead of being
	// rejected: the stale waiter unblocks with ErrShed immediately.
	e3 := inferAsync(a, 3)
	if err := <-e2; !errors.Is(err, ErrShed) {
		t.Fatalf("stale frame: err = %v, want ErrShed", err)
	}
	waitFor(t, "fresh frame queued", func() bool { return s.Stats().Queued == 1 })

	// Another session arriving at the still-full queue has nothing of its
	// own to shed: latest-wins never steals A's slot, so B is rejected.
	if _, _, err := b.Infer(segmodel.Input{Seed: 4}, nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("other session at full queue: err = %v, want ErrQueueFull", err)
	}

	close(acc.gate)
	if err := <-e1; err != nil {
		t.Errorf("first frame: %v", err)
	}
	if err := <-e3; err != nil {
		t.Errorf("fresh frame: %v", err)
	}

	// The accelerator never saw the shed frame.
	if got := acc.seen(); len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Errorf("accelerator saw %v, want [1 3]", got)
	}
	st := s.Stats()
	if st.Served != 2 || st.Rejected != 1 || st.Shed != 1 || st.Cancelled != 0 {
		t.Errorf("served/rejected/shed/cancelled = %d/%d/%d/%d, want 2/1/1/0",
			st.Served, st.Rejected, st.Shed, st.Cancelled)
	}
	if st.AdmissionPolicy != "latest-wins" || st.DequeuePolicy != "single" {
		t.Errorf("policy names = %s/%s", st.AdmissionPolicy, st.DequeuePolicy)
	}
	if ss := a.Stats(); ss.Served != 2 || ss.Shed != 1 || ss.Rejected != 0 {
		t.Errorf("session A served/shed/rejected = %d/%d/%d, want 2/1/0", ss.Served, ss.Shed, ss.Rejected)
	}
	if ss := b.Stats(); ss.Rejected != 1 || ss.Shed != 0 {
		t.Errorf("session B rejected/shed = %d/%d, want 1/0", ss.Rejected, ss.Shed)
	}
}

// gatedSleepAccel holds every inference until gate closes, then sleeps d.
type gatedSleepAccel struct {
	gate <-chan struct{}
	d    time.Duration
}

func (a gatedSleepAccel) Run(segmodel.Input, segmodel.Guidance) (*segmodel.Result, float64) {
	<-a.gate
	time.Sleep(a.d)
	return &segmodel.Result{BackboneMs: 10}, 10
}

// TestLatestWinsUnderChurn floods a latest-wins scheduler from many
// goroutines per session while sessions churn (run under -race via make
// check); conservation must hold when the dust settles.
//
// A rejected Infer returns at once, so a submitter can burn every offer as a
// rejection while other sessions' frames fill the queue, and latest-wins
// then never finds a frame of its own session to shed. The flood therefore
// starts only once the accelerators are held busy and the full queue holds
// one frame of every session: each of the flood's first offers sheds.
func TestLatestWinsUnderChurn(t *testing.T) {
	const sessions, submitters, perSubmitter = 4, 3, 150
	const workers, depth = 2, 4
	gate := make(chan struct{})
	s := NewScheduler(Config{Workers: workers, QueueDepth: depth, Admission: LatestWins{},
		NewAccelerator: func(int) Accelerator { return gatedSleepAccel{gate, 100 * time.Microsecond} }})
	defer func() { _ = s.Close() }()
	var openGate sync.Once
	defer openGate.Do(func() { close(gate) }) // runs before Close on an early return

	var offered, served, rejected, shed atomic.Int64
	// release[i][g] starts submitter g of session i.
	release := make([][]chan struct{}, sessions)
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		sess := s.NewSession("churn")
		release[i] = make([]chan struct{}, submitters)
		var inner sync.WaitGroup
		for g := range release[i] {
			ch := make(chan struct{})
			release[i][g] = ch
			inner.Add(1)
			go func() {
				defer inner.Done()
				<-ch
				for n := 0; n < perSubmitter; n++ {
					offered.Add(1)
					_, _, err := sess.Infer(segmodel.Input{Seed: int64(i)}, nil)
					switch {
					case err == nil:
						served.Add(1)
					case errors.Is(err, ErrQueueFull):
						rejected.Add(1)
					case errors.Is(err, ErrShed):
						shed.Add(1)
					default:
						t.Errorf("infer: %v", err)
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			inner.Wait()
			if ss := sess.Stats(); ss.Pending != 0 {
				t.Errorf("session %d left %d pending after its submitters drained", i, ss.Pending)
			}
			sess.Close()
		}()
	}

	// Prime one submitter at a time: the first two offers occupy the held
	// accelerators, the next four fill the queue with one frame of every
	// session.
	prime := [][2]int{{0, 0}, {1, 0}, {0, 1}, {1, 1}, {2, 0}, {3, 0}} // {session, submitter}
	for k, p := range prime {
		close(release[p[0]][p[1]])
		release[p[0]][p[1]] = nil
		waitFor(t, "a priming offer", func() bool {
			st := s.Stats()
			return st.InFlight == min(k+1, workers) && st.Queued == max(0, k+1-workers)
		})
	}
	for _, chs := range release {
		for _, ch := range chs {
			if ch != nil {
				close(ch)
			}
		}
	}
	waitFor(t, "the flood's first shed", func() bool { return s.Stats().Shed > 0 })
	openGate.Do(func() { close(gate) })
	wg.Wait()

	st := s.Stats()
	if accounted := int64(st.Served + st.Rejected + st.Shed + st.Cancelled); accounted != offered.Load() {
		t.Errorf("conservation violated: offered %d != served %d + rejected %d + shed %d + cancelled %d",
			offered.Load(), st.Served, st.Rejected, st.Shed, st.Cancelled)
	}
	l := s.Ledger()
	if err := l.Check(0); err != nil || int64(l.Offered()) != offered.Load() {
		t.Errorf("scheduler's own ledger after drain, callers offered %d: %+v: %v", offered.Load(), l, err)
	}
	if int64(st.Served) != served.Load() || int64(st.Rejected) != rejected.Load() || int64(st.Shed) != shed.Load() {
		t.Errorf("caller tallies served/rejected/shed %d/%d/%d, stats %d/%d/%d",
			served.Load(), rejected.Load(), shed.Load(), st.Served, st.Rejected, st.Shed)
	}
	if shed.Load() == 0 {
		t.Error("flood at depth 4 with 3 submitters per session produced no sheds")
	}
	t.Logf("offered %d = served %d + rejected %d + shed %d",
		offered.Load(), served.Load(), rejected.Load(), shed.Load())
}

// batchGateAccel serves batches, holding each launch until released, and
// records the seed sets of the launches it saw.
type batchGateAccel struct {
	gate chan struct{}

	mu      sync.Mutex
	batches [][]int64
}

func (a *batchGateAccel) note(seeds []int64) {
	a.mu.Lock()
	a.batches = append(a.batches, seeds)
	a.mu.Unlock()
	<-a.gate
}

func (a *batchGateAccel) Run(in segmodel.Input, g segmodel.Guidance) (*segmodel.Result, float64) {
	var outs [1]*segmodel.Result
	ms := a.Launch([]Job{{In: in, G: g, D: segmodel.KeyframeDecision{Keyframe: true}}}, outs[:])
	return outs[0], ms
}

func (a *batchGateAccel) Launch(jobs []Job, outs []*segmodel.Result) float64 {
	seeds := make([]int64, len(jobs))
	for i, j := range jobs {
		seeds[i] = j.In.Seed
		outs[i] = &segmodel.Result{BackboneMs: 10}
	}
	a.note(seeds)
	return 10
}

func (a *batchGateAccel) seen() [][]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([][]int64, len(a.batches))
	for i, b := range a.batches {
		out[i] = append([]int64(nil), b...)
	}
	return out
}

// TestBatchFormerGathersCompatibleClasses pins the batch former: queued
// jobs of one class ride a single launch, while a job of a different
// resolution class never co-batches with them.
func TestBatchFormerGathersCompatibleClasses(t *testing.T) {
	acc := &batchGateAccel{gate: make(chan struct{}, 16)}
	s := NewScheduler(Config{Workers: 1, QueueDepth: 16,
		Dequeue:        GatherBatch{Max: 3},
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()

	small := segmodel.Input{Width: 64, Height: 48}
	large := segmodel.Input{Width: 128, Height: 96}
	sess := make([]*Session, 4)
	for i := range sess {
		sess[i] = s.NewSession("t")
		defer sess[i].Close()
	}

	// Head job occupies the worker while the rest queue up behind it.
	head := small
	head.Seed = 1
	waits := []<-chan error{}
	submit := func(ss *Session, in segmodel.Input, seed int64) {
		t.Helper()
		in.Seed = seed
		errc := make(chan error, 1)
		go func() {
			_, _, err := ss.Infer(in, nil)
			errc <- err
		}()
		waits = append(waits, errc)
	}
	submit(sess[0], small, 1)
	waitFor(t, "head launch", func() bool { return len(acc.seen()) == 1 })
	submit(sess[1], small, 2)
	waitFor(t, "seed 2 queued", func() bool { return s.Stats().Queued == 1 })
	submit(sess[2], large, 3)
	waitFor(t, "seed 3 queued", func() bool { return s.Stats().Queued == 2 })
	submit(sess[3], small, 4)
	waitFor(t, "seed 4 queued", func() bool { return s.Stats().Queued == 3 })

	for i := 0; i < 3; i++ {
		acc.gate <- struct{}{}
	}
	for i, w := range waits {
		if err := <-w; err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}

	got := acc.seen()
	if len(got) != 3 {
		t.Fatalf("launches %v, want 3 (head solo, compatible pair, incompatible solo)", got)
	}
	if len(got[0]) != 1 || got[0][0] != 1 {
		t.Errorf("head launch %v, want [1]", got[0])
	}
	// Seeds 2 and 4 share the small class and must ride one launch; the
	// large-resolution seed 3 sits between them in the ring but is skipped.
	if len(got[1]) != 2 || got[1][0] != 2 || got[1][1] != 4 {
		t.Errorf("second launch %v, want [2 4] (same class gathered across sessions)", got[1])
	}
	if len(got[2]) != 1 || got[2][0] != 3 {
		t.Errorf("third launch %v, want [3] (incompatible class never co-batches)", got[2])
	}

	st := s.Stats()
	if st.Batches != 3 || st.MaxBatchSize != 2 {
		t.Errorf("batches=%d max=%d, want 3/2", st.Batches, st.MaxBatchSize)
	}
	if len(st.BatchSizeCounts) != 3 || st.BatchSizeCounts[0] != 2 || st.BatchSizeCounts[1] != 1 {
		t.Errorf("batch size counts %v, want [2 1 0]", st.BatchSizeCounts)
	}
	if want := 4.0 / 3.0; st.MeanBatchSize < want-1e-9 || st.MeanBatchSize > want+1e-9 {
		t.Errorf("mean batch size %v, want %v", st.MeanBatchSize, want)
	}
	if st.DequeuePolicy != "batch" {
		t.Errorf("dequeue policy %q, want batch", st.DequeuePolicy)
	}
}

// TestBatchGuidanceClassesNeverCoBatch: a guided job and a vanilla job of
// the same resolution evaluate different network slices and must launch
// separately.
func TestBatchGuidanceClassesNeverCoBatch(t *testing.T) {
	acc := &batchGateAccel{gate: make(chan struct{}, 16)}
	s := NewScheduler(Config{Workers: 1, QueueDepth: 16,
		Dequeue:        GatherBatch{Max: 4},
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()

	a := s.NewSession("a")
	defer a.Close()
	b := s.NewSession("b")
	defer b.Close()
	in := segmodel.Input{Width: 64, Height: 48}

	e1 := inferAsync(a, 1)
	waitFor(t, "head launch", func() bool { return len(acc.seen()) == 1 })
	guided := in
	guided.Seed = 2
	e2 := make(chan error, 1)
	go func() {
		_, _, err := a.Infer(guided, &plan{})
		e2 <- err
	}()
	vanilla := in
	vanilla.Seed = 3
	e3 := make(chan error, 1)
	go func() {
		_, _, err := b.Infer(vanilla, nil)
		e3 <- err
	}()
	waitFor(t, "backlog queued", func() bool { return s.Stats().Queued == 2 })

	for i := 0; i < 3; i++ {
		acc.gate <- struct{}{}
	}
	for _, w := range []<-chan error{e1, e2, e3} {
		if err := <-w; err != nil {
			t.Fatal(err)
		}
	}
	for i, launch := range acc.seen() {
		if len(launch) != 1 {
			t.Errorf("launch %d = %v: guided and vanilla jobs co-batched", i, launch)
		}
	}
}

// TestBatchWindowFlushesPartialBatch: an underfull batch launches after the
// gather window expires rather than waiting for MaxBatch jobs that will
// never come, and jobs arriving within the window join the launch.
func TestBatchWindowFlushesPartialBatch(t *testing.T) {
	acc := &batchGateAccel{gate: make(chan struct{}, 16)}
	s := NewScheduler(Config{Workers: 1, QueueDepth: 16,
		Dequeue:        GatherBatch{Max: 4, GatherWindow: 50 * time.Millisecond},
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()
	a := s.NewSession("a")
	defer a.Close()
	b := s.NewSession("b")
	defer b.Close()

	// A lone job must flush as a batch of one once the window expires.
	e1 := inferAsync(a, 1)
	acc.gate <- struct{}{}
	if err := <-e1; err != nil {
		t.Fatal(err)
	}
	if got := acc.seen(); len(got) != 1 || len(got[0]) != 1 {
		t.Fatalf("lone job launches %v, want one batch of one", got)
	}

	// A job arriving while the worker holds the window open rides the same
	// launch: submit the second as soon as the first is in flight (gathered),
	// well inside the 50 ms window.
	e2 := inferAsync(a, 2)
	waitFor(t, "head gathered", func() bool { return s.Stats().InFlight == 1 })
	e3 := inferAsync(b, 3)
	acc.gate <- struct{}{}
	acc.gate <- struct{}{} // in case the join raced the window and launched solo
	if err := <-e2; err != nil {
		t.Fatal(err)
	}
	if err := <-e3; err != nil {
		t.Fatal(err)
	}
	got := acc.seen()
	last := got[len(got)-1]
	if len(got) != 2 || len(last) != 2 || last[0] != 2 || last[1] != 3 {
		t.Errorf("launches %v: job arriving within the window did not join the open batch", got)
	}
}

// TestBatchCloseDrainsInFlightBatches: Close during an open gather window
// still serves the jobs already taken and everything queued behind them.
func TestBatchCloseDrainsInFlightBatches(t *testing.T) {
	acc := &batchGateAccel{gate: make(chan struct{}, 16)}
	for i := 0; i < 16; i++ {
		acc.gate <- struct{}{}
	}
	s := NewScheduler(Config{Workers: 1, QueueDepth: 16,
		Dequeue:        GatherBatch{Max: 4, GatherWindow: 20 * time.Millisecond},
		NewAccelerator: func(int) Accelerator { return acc }})
	a := s.NewSession("a")
	b := s.NewSession("b")

	e1 := inferAsync(a, 1)
	waitFor(t, "head gathered", func() bool { return s.Stats().InFlight == 1 })
	e2 := inferAsync(b, 2) // queues while the window is open
	waitFor(t, "second job queued", func() bool { return s.Stats().Queued == 1 })
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if err := <-e1; err != nil {
		t.Errorf("in-flight batch job: %v", err)
	}
	if err := <-e2; err != nil {
		t.Errorf("queued-behind-window job: %v", err)
	}
	st := s.Stats()
	if st.Served != 2 || st.Queued != 0 || st.InFlight != 0 {
		t.Errorf("after close: served=%d queued=%d inflight=%d, want 2/0/0",
			st.Served, st.Queued, st.InFlight)
	}
}

// batchSleepAccel occupies the accelerator for the amortized batch latency,
// the cost model the throughput comparison depends on.
type batchSleepAccel struct{ d time.Duration }

func (a batchSleepAccel) Run(in segmodel.Input, g segmodel.Guidance) (*segmodel.Result, float64) {
	var outs [1]*segmodel.Result
	ms := a.Launch([]Job{{In: in, G: g, D: segmodel.KeyframeDecision{Keyframe: true}}}, outs[:])
	return outs[0], ms
}

func (a batchSleepAccel) Launch(jobs []Job, outs []*segmodel.Result) float64 {
	solos := make([]float64, len(jobs))
	soloMs := float64(a.d) / float64(time.Millisecond)
	for i := range solos {
		solos[i] = soloMs
		outs[i] = &segmodel.Result{BackboneMs: 10}
	}
	ms := segmodel.BatchMs(solos)
	time.Sleep(time.Duration(ms * float64(time.Millisecond)))
	return ms
}

// TestBatchThroughputBeatsSingleDequeue pins the point of the batch former:
// with a batch-capable accelerator and amortized launches, gathering must
// serve the same multi-session load at least 1.5x faster than single
// dequeue at equal worker count (a full batch of 8 is 1.78x in the cost
// model, so 1.5x leaves margin for partial batches and scheduling noise).
func TestBatchThroughputBeatsSingleDequeue(t *testing.T) {
	// More clients than in-flight capacity (2 workers x batch 8) keeps the
	// queue deep enough that gathers usually find a full batch waiting.
	const clients, perClient = 24, 8
	run := func(dq DequeuePolicy) time.Duration {
		s := NewScheduler(Config{Workers: 2, QueueDepth: 64, Dequeue: dq,
			NewAccelerator: func(int) Accelerator { return batchSleepAccel{4 * time.Millisecond} }})
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
					if _, _, err := sess.Infer(segmodel.Input{Width: 64, Height: 48}, nil); err != nil {
						t.Errorf("infer: %v", err)
						return
					}
				}
			}()
		}
		wg.Wait()
		elapsed := time.Since(start)
		st := s.Stats()
		if st.Served != clients*perClient {
			t.Fatalf("served %d, want %d", st.Served, clients*perClient)
		}
		t.Logf("%s dequeue: %v (batches=%d mean size %.1f max %d)",
			dq.Name(), elapsed, st.Batches, st.MeanBatchSize, st.MaxBatchSize)
		if dq.MaxBatch() > 1 && st.MeanBatchSize <= 1.2 {
			t.Errorf("batch former barely batched: mean size %.2f", st.MeanBatchSize)
		}
		return elapsed
	}

	single := run(SingleDequeue{})
	batched := run(GatherBatch{Max: 8, GatherWindow: time.Millisecond})
	ratio := float64(single) / float64(batched)
	t.Logf("single %v vs batched %v: %.2fx", single, batched, ratio)
	if ratio < 1.5 {
		t.Errorf("batching %.2fx over single dequeue, want >= 1.5x", ratio)
	}
}

// TestBatchSerialFallback: an accelerator that cannot batch still serves a
// gathered batch correctly, one job at a time.
func TestBatchSerialFallback(t *testing.T) {
	acc := &gateAccel{gate: make(chan struct{}, 16)}
	s := NewScheduler(Config{Workers: 1, QueueDepth: 16,
		Dequeue:        GatherBatch{Max: 4},
		NewAccelerator: func(int) Accelerator { return acc }})
	defer func() { _ = s.Close() }()
	a := s.NewSession("a")
	defer a.Close()
	b := s.NewSession("b")
	defer b.Close()

	e1 := inferAsync(a, 1)
	waitFor(t, "head in flight", func() bool { return s.Stats().InFlight == 1 })
	e2 := inferAsync(a, 2)
	e3 := inferAsync(b, 3)
	waitFor(t, "backlog queued", func() bool { return s.Stats().Queued == 2 })
	for i := 0; i < 3; i++ {
		acc.gate <- struct{}{}
	}
	for _, w := range []<-chan error{e1, e2, e3} {
		if err := <-w; err != nil {
			t.Fatal(err)
		}
	}
	if st := s.Stats(); st.Served != 3 {
		t.Errorf("served %d, want 3", st.Served)
	}
}

package edge

import (
	"reflect"
	"testing"
)

// The queue is exercised here on its own, with numbered jobs and string
// classes: the repository benchmark runs on one P and almost never forms a
// batch, so these tables carry the batch former and the ring rules.

type testJob struct {
	id    int
	class string
}

func (j testJob) BatchClass() string { return j.class }

type (
	testQueue = FairQueue[testJob, string]
	testLane  = Lane[testJob]
)

// on is job j arriving on lane l.
type on struct {
	l *testLane
	j int
}

// admitAll admits jobs of one class with room to spare.
func admitAll(t *testing.T, q *testQueue, class string, jobs ...on) {
	t.Helper()
	for _, a := range jobs {
		if v, _ := q.Admit(RejectWhenFull{}, 1<<20, a.l, testJob{a.j, class}); v != VerdictAdmit {
			t.Fatalf("job %d: verdict %d, want admit", a.j, v)
		}
	}
}

// ids strips the classes off a batch.
func ids(jobs []testJob) []int {
	var out []int
	for _, j := range jobs {
		out = append(out, j.id)
	}
	return out
}

// drain pops every job in dequeue order.
func drain(q *testQueue) []int {
	var order []int
	for q.Len() > 0 {
		order = append(order, q.TakeHead().id)
	}
	return order
}

func TestFairQueueAdmitVerdicts(t *testing.T) {
	var a, b testLane
	cases := []struct {
		name        string
		policy      AdmissionPolicy
		lane        *testLane
		job         int
		want        AdmissionVerdict
		wantStale   int
		wantLen     int
		wantLaneLen int
	}{
		{"room: admit", RejectWhenFull{}, &a, 1, VerdictAdmit, 0, 1, 1},
		{"room: admit second lane", RejectWhenFull{}, &b, 2, VerdictAdmit, 0, 2, 1},
		{"full: reject leaves queue untouched", RejectWhenFull{}, &a, 3, VerdictReject, 0, 2, 1},
		{"full, own job queued: shed oldest, admit fresh", LatestWins{}, &a, 4, VerdictShedOldest, 1, 2, 1},
		{"full, own job queued again: shed the previous fresh one", LatestWins{}, &a, 5, VerdictShedOldest, 4, 2, 1},
	}
	var q testQueue
	for _, c := range cases {
		v, stale := q.Admit(c.policy, 2, c.lane, testJob{c.job, "x"})
		if v != c.want || stale.id != c.wantStale || q.Len() != c.wantLen || c.lane.Len() != c.wantLaneLen {
			t.Errorf("%s: verdict %d stale %d queued %d lane %d, want %d %d %d %d",
				c.name, v, stale.id, q.Len(), c.lane.Len(), c.want, c.wantStale, c.wantLen, c.wantLaneLen)
		}
	}
	// Lane a was shed down to empty twice in passing and must have kept its
	// ring slot ahead of b the whole time.
	if got := drain(&q); !reflect.DeepEqual(got, []int{5, 2}) {
		t.Errorf("dequeue order %v, want [5 2]: a shed must not cost the lane its ring position", got)
	}

	// Latest-wins with nothing of the lane's own queued degrades to a
	// reject: it never steals another lane's slot.
	var c testLane
	admitAll(t, &q, "x", on{&a, 6}, on{&a, 7})
	if v, _ := q.Admit(LatestWins{}, 2, &c, testJob{8, "x"}); v != VerdictReject || q.Len() != 2 || c.Len() != 0 {
		t.Errorf("latest-wins on an empty lane at a full queue: verdict %d queued %d lane %d, want reject 2 0", v, q.Len(), c.Len())
	}
	if got := drain(&q); !reflect.DeepEqual(got, []int{6, 7}) {
		t.Errorf("dequeue order %v, want [6 7]: a rejected lane must not join the ring", got)
	}
}

func TestFairQueueRoundRobin(t *testing.T) {
	var q testQueue
	var hot, cold1, cold2 testLane
	admitAll(t, &q, "x", on{&hot, 1}, on{&hot, 2}, on{&hot, 3}, on{&cold1, 10}, on{&cold2, 20})
	if got := drain(&q); !reflect.DeepEqual(got, []int{1, 10, 20, 2, 3}) {
		t.Errorf("dequeue order %v, want [1 10 20 2 3]: one job per lane per pass", got)
	}
}

func TestFairQueueGather(t *testing.T) {
	cases := []struct {
		name      string
		max       int
		wantBatch []int
		wantRest  []int
	}{
		// Ring after the head is taken: b(x) c(y) d(x) a(x: second job).
		{"one job per lane per pass, mismatched class skipped", 8, []int{1, 3, 5, 2}, []int{4, 6}},
		{"max bounds the batch", 3, []int{1, 3, 5}, []int{4, 6, 2}},
		{"max one gathers nothing", 1, []int{1}, []int{3, 4, 5, 2, 6}},
	}
	for _, c := range cases {
		var q testQueue
		var a, b, cl, d testLane
		admitAll(t, &q, "x", on{&a, 1}, on{&a, 2}, on{&b, 3})
		admitAll(t, &q, "y", on{&cl, 4})
		admitAll(t, &q, "x", on{&d, 5})
		admitAll(t, &q, "y", on{&d, 6})
		batch := ids(q.Gather([]testJob{q.TakeHead()}, c.max))
		if !reflect.DeepEqual(batch, c.wantBatch) {
			t.Errorf("%s: batch %v, want %v", c.name, batch, c.wantBatch)
		}
		if want := 6 - len(c.wantBatch); q.Len() != want {
			t.Errorf("%s: %d still queued, want %d", c.name, q.Len(), want)
		}
		if rest := drain(&q); !reflect.DeepEqual(rest, c.wantRest) {
			t.Errorf("%s: remaining order %v, want %v", c.name, rest, c.wantRest)
		}
	}
}

// TestFairQueueGatherTopUp: a second Gather on a held batch (the gather
// window expiring) takes again from lanes that already contributed.
func TestFairQueueGatherTopUp(t *testing.T) {
	var q testQueue
	var a, b testLane
	admitAll(t, &q, "x", on{&a, 1}, on{&a, 2}, on{&b, 3})
	batch := q.Gather([]testJob{q.TakeHead()}, 4)
	if !reflect.DeepEqual(ids(batch), []int{1, 3, 2}) {
		t.Fatalf("first pass %v, want [1 3 2]", ids(batch))
	}
	admitAll(t, &q, "x", on{&b, 4})
	admitAll(t, &q, "y", on{&a, 5})
	if batch = q.Gather(batch, 4); !reflect.DeepEqual(ids(batch), []int{1, 3, 2, 4}) {
		t.Errorf("top-up %v, want [1 3 2 4]", ids(batch))
	}
	if got := drain(&q); !reflect.DeepEqual(got, []int{5}) {
		t.Errorf("left over %v, want [5]", got)
	}
}

func TestFairQueueDropLaneMidRing(t *testing.T) {
	var q testQueue
	var a, b, c testLane
	admitAll(t, &q, "x", on{&a, 1}, on{&b, 2}, on{&b, 3}, on{&c, 4})
	if got := ids(q.DropLane(&b)); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("dropped %v, want [2 3]", got)
	}
	if q.Len() != 2 || b.Len() != 0 {
		t.Errorf("after drop: queued %d lane %d, want 2 0", q.Len(), b.Len())
	}
	if got := q.DropLane(&b); got != nil {
		t.Errorf("dropping an empty lane returned %v", got)
	}
	// The dropped lane is reusable, joining at the back like a fresh one.
	admitAll(t, &q, "x", on{&b, 5})
	if got := drain(&q); !reflect.DeepEqual(got, []int{1, 4, 5}) {
		t.Errorf("dequeue order %v, want [1 4 5]", got)
	}
}

// TestFairQueueBacklogNotStarvedByChurn is the PR 6 starvation scenario on
// the queue alone (TestSchedulerBacklogNotStarvedBySessionChurn runs it
// through the scheduler): a hot lane holds a backlog behind three waiting
// lanes, and every dequeue is replaced by a brand-new single-job lane, so
// the ring never runs dry. An index walk with removals parked the backlog
// before its cursor forever; under rotation the backlog is served exactly
// once per pass and no later arrival laps it.
func TestFairQueueBacklogNotStarvedByChurn(t *testing.T) {
	var q testQueue
	var hot testLane
	admitAll(t, &q, "x", on{&hot, 901}, on{&hot, 902})
	for j := 1; j <= 3; j++ {
		admitAll(t, &q, "x", on{new(testLane), j})
	}
	var order []int
	for i := 0; i < 6; i++ {
		order = append(order, q.TakeHead().id)
		admitAll(t, &q, "x", on{new(testLane), 10 + i})
	}
	if want := []int{901, 1, 2, 3, 902, 10}; !reflect.DeepEqual(order, want) {
		t.Errorf("dequeue order %v, want %v: the backlog must be reached once per pass, ahead of later arrivals", order, want)
	}
}

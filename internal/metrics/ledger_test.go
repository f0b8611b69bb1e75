package metrics

import (
	"math/rand"
	"strings"
	"testing"
)

// buckets lists a ledger's contents in declaration order, pending last.
func buckets(l Ledger) [9]int {
	return [9]int{l.Offered(), l.Served(), l.Rejected(), l.Shed(), l.Dropped(), l.Migrated(),
		l.Keyframes(), l.Warped(), l.Pending()}
}

// TestLedgerMovesOneBucket: from a ledger with 10 frames pending, every
// resolving method moves exactly its own bucket (and pending the other way).
func TestLedgerMovesOneBucket(t *testing.T) {
	moves := []struct {
		name string
		move func(*Ledger)
		want [9]int
	}{
		{"Offer", func(l *Ledger) { l.Offer(3) }, [9]int{13, 0, 0, 0, 0, 0, 0, 0, 13}},
		{"Serve", func(l *Ledger) { l.Serve(3) }, [9]int{10, 3, 0, 0, 0, 0, 0, 0, 7}},
		{"Reject", func(l *Ledger) { l.Reject(3) }, [9]int{10, 0, 3, 0, 0, 0, 0, 0, 7}},
		{"ShedStale", func(l *Ledger) { l.ShedStale(3) }, [9]int{10, 0, 0, 3, 0, 0, 0, 0, 7}},
		{"Drop", func(l *Ledger) { l.Drop(3) }, [9]int{10, 0, 0, 0, 3, 0, 0, 0, 7}},
		{"Migrate", func(l *Ledger) { l.Migrate(3) }, [9]int{10, 0, 0, 0, 0, 3, 0, 0, 7}},
		{"Classify", func(l *Ledger) { l.Classify(2, 1) }, [9]int{10, 0, 0, 0, 0, 0, 2, 1, 10}},
		{"Settle", func(l *Ledger) { l.Settle() }, [9]int{10, 0, 0, 0, 10, 0, 0, 0, 0}},
		{"Serve+Unserve", func(l *Ledger) { l.Serve(3); l.Unserve(1) }, [9]int{10, 2, 0, 0, 0, 0, 0, 0, 8}},
	}
	for _, m := range moves {
		var l Ledger
		l.Offer(10)
		m.move(&l)
		if got := buckets(l); got != m.want {
			t.Errorf("%s: buckets %v, want %v", m.name, got, m.want)
		}
	}
}

func randomLedger(rng *rand.Rand) Ledger {
	var l Ledger
	l.Offer(rng.Intn(1000))
	l.Serve(rng.Intn(100))
	l.Reject(rng.Intn(100))
	l.ShedStale(rng.Intn(100))
	l.Drop(rng.Intn(100))
	l.Migrate(rng.Intn(100))
	l.Classify(rng.Intn(100), rng.Intn(100))
	return l
}

// TestLedgerAddCommutesAndAssociates: roll-ups may fold replicas, sessions
// and connections in any order and grouping.
func TestLedgerAddCommutesAndAssociates(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		a, b, c := randomLedger(rng), randomLedger(rng), randomLedger(rng)
		ab, ba := a, b
		ab.Add(b)
		ba.Add(a)
		if ab != ba {
			t.Fatalf("a+b = %+v, b+a = %+v", ab, ba)
		}
		left, bc, right := ab, b, a
		left.Add(c)
		bc.Add(c)
		right.Add(bc)
		if left != right {
			t.Fatalf("(a+b)+c = %+v, a+(b+c) = %+v", left, right)
		}
		if left.Pending() != a.Pending()+b.Pending()+c.Pending() {
			t.Fatalf("pending is not additive: %d", left.Pending())
		}
	}
}

// TestLedgerCheck: Check passes exactly when both laws hold against the
// caller's pending count, and otherwise names the law and the discrepancy.
func TestLedgerCheck(t *testing.T) {
	var l Ledger
	l.Offer(10)
	l.Serve(4)
	l.Reject(1)
	l.ShedStale(1)
	l.Drop(1)
	l.Migrate(1)
	if err := l.Check(2); err != nil {
		t.Errorf("2 pending of 10 offered, 8 resolved: %v", err)
	}
	// The pending term is the caller's own count: one frame it cannot
	// account for is a silent loss, one too many a double count.
	for pending, want := range map[int]string{1: "conservation violated by +1", 3: "conservation violated by -1"} {
		if err := l.Check(pending); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("Check(%d) = %v, want %q", pending, err, want)
		}
	}

	// Edge-side partition: every served frame is in exactly one class.
	l.Classify(3, 1)
	if err := l.Check(2); err != nil {
		t.Errorf("3 keyframes + 1 warped over 4 served: %v", err)
	}
	short := l
	short.Serve(1)
	if err := short.Check(1); err == nil || !strings.Contains(err.Error(), "keyframe partition violated by -1") {
		t.Errorf("unclassified serve: %v", err)
	}
	// Delivery-side: the split may exceed served by at most migrated (1).
	l.Classify(0, 1)
	if err := l.Check(2); err != nil {
		t.Errorf("split one over served with one migrated: %v", err)
	}
	l.Classify(1, 0)
	if err := l.Check(2); err == nil || !strings.Contains(err.Error(), "keyframe partition violated by +2") {
		t.Errorf("split two over served with one migrated: %v", err)
	}

	var neg Ledger
	neg.Unserve(1)
	if err := neg.Check(1); err == nil || !strings.Contains(err.Error(), "negative bucket") {
		t.Errorf("negative served: %v", err)
	}
}

// TestLedgerSettleAndReclassify: Settle closes the law with nothing pending,
// and MigrateDropped moves the whole dropped bucket without changing the
// total.
func TestLedgerSettleAndReclassify(t *testing.T) {
	var l Ledger
	l.Offer(9)
	l.Serve(4)
	l.Drop(2)
	if err := l.Check(0); err == nil {
		t.Error("3 frames unresolved but Check(0) passed")
	}
	l.Settle()
	if err := l.Check(0); err != nil || l.Dropped() != 5 {
		t.Errorf("settled: dropped %d, %v", l.Dropped(), err)
	}
	l.Settle()
	if l.Dropped() != 5 {
		t.Errorf("second Settle moved frames: dropped %d", l.Dropped())
	}
	l.MigrateDropped()
	if err := l.Check(0); err != nil || l.Dropped() != 0 || l.Migrated() != 5 || l.Offered() != 9 {
		t.Errorf("reclassified: %+v, %v", l, err)
	}
}

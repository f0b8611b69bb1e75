package fleet

import (
	"fmt"
	"testing"
)

var threeReplicas = []string{"10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("session-%04d", i)
	}
	return out
}

// TestRendezvousDeterministicAndCovering: placement is a pure function of
// (key, alive) and spreads sessions over every replica — the property that
// makes an address list the only coordination a fleet needs.
func TestRendezvousDeterministicAndCovering(t *testing.T) {
	seen := map[string]int{}
	for _, k := range keys(300) {
		a := Rendezvous(k, threeReplicas)
		if b := Rendezvous(k, threeReplicas); b != a {
			t.Fatalf("pick(%q) unstable: %q then %q", k, a, b)
		}
		seen[a]++
	}
	for _, addr := range threeReplicas {
		if seen[addr] == 0 {
			t.Errorf("replica %s never placed (distribution %v)", addr, seen)
		}
		// A grossly skewed hash would defeat sharding; allow wide slack.
		if seen[addr] < 30 {
			t.Errorf("replica %s underplaced: %d of 300 (%v)", addr, seen[addr], seen)
		}
	}
}

// TestRendezvousMinimalDisruption: removing one replica remaps only the
// sessions it owned. Sessions on survivors must not move — that is the HRW
// property failover leans on, so a replica death does not reshuffle (and
// cold-cache) the whole fleet.
func TestRendezvousMinimalDisruption(t *testing.T) {
	dead := threeReplicas[2]
	survivors := threeReplicas[:2]
	moved := 0
	for _, k := range keys(300) {
		before := Rendezvous(k, threeReplicas)
		after := Rendezvous(k, survivors)
		if before != dead {
			if after != before {
				t.Fatalf("key %q moved %s -> %s though its replica survived", k, before, after)
			}
			continue
		}
		moved++
		if after != survivors[0] && after != survivors[1] {
			t.Fatalf("key %q remapped off-fleet to %q", k, after)
		}
	}
	if moved == 0 {
		t.Fatal("no keys were owned by the dead replica; test proves nothing")
	}
}

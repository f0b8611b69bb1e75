// Package fleet is the placement layer over a set of edge replicas: it
// decides which replica serves a session, and its FleetClient keeps a
// session alive across replica failures by failing over — redialing a
// surviving replica with the session-resume handshake so the target adopts
// the session identity and rebuilds the feature cache (forced keyframe on
// the first post-migration frame).
//
// Placement is rendezvous hashing of the session key over the replica set:
// stable and coordination-free — every client that shares the address list
// agrees on the owner.
package fleet

import (
	"hash/fnv"
	"io"
)

// Rendezvous is highest-random-weight (HRW) placement: each alive replica
// scores hash(key, addr) and the highest score owns the session. alive is
// never empty and preserves the fleet's configured address order. Unlike a
// ring with virtual nodes it needs no shared state beyond the address list,
// and removing a replica remaps only the sessions that replica owned — the
// minimal-disruption property failover depends on. Score ties (vanishingly
// rare with a 64-bit hash) break toward the lexically smallest address so
// the choice stays total.
func Rendezvous(sessionKey string, alive []string) string {
	best, bestScore := "", uint64(0)
	for _, addr := range alive {
		s := hrwScore(sessionKey, addr)
		if best == "" || s > bestScore || (s == bestScore && addr < best) {
			best, bestScore = addr, s
		}
	}
	return best
}

// hrwScore hashes the (session, replica) pair with FNV-1a and then
// avalanches the sum. The NUL separator keeps ("ab","c") and ("a","bc")
// from colliding by concatenation. The finalizer is load-bearing: FNV-1a's
// last step is (state XOR byte) * prime, and multiplication by a constant
// preserves additive order, so for addresses differing only in trailing
// low bits ("replica-0" vs "replica-1" vs "replica-2") the raw sums
// compare by the low bits of the shared prefix state — HRW then hands one
// replica half the keyspace instead of a third. Avalanching every bit
// restores a uniform contest.
func hrwScore(key, addr string) uint64 {
	h := fnv.New64a()
	_, _ = io.WriteString(h, key)
	_, _ = h.Write([]byte{0})
	_, _ = io.WriteString(h, addr)
	return mix64(h.Sum64())
}

// mix64 is a 64-bit xorshift-multiply avalanche (the MurmurHash3 fmix64
// constants): every input bit flips each output bit with probability ~1/2.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

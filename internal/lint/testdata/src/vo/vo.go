// Fixture for the mapiter analyzer: package base name "vo" is in the
// deterministic set, so order-sensitive map ranges must be flagged.
package vo

import (
	"slices"
	"sort"
	"strings"
)

func sink(string, int) {}

// Appending keys without a following sort leaks map order into the slice.
func unsortedKeys(m map[string]int) []string {
	var out []string
	for k := range m { // want "range over map m in deterministic package \"vo\""
		out = append(out, k)
	}
	return out
}

// Calling an arbitrary function per entry is order-sensitive.
func visit(m map[string]int) {
	for k, v := range m { // want "iteration order is randomized"
		sink(k, v)
	}
}

// Writing an inverted map indexed by the VALUE collides when two keys share
// a value, so the surviving entry depends on visit order.
func invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m { // want "range over map"
		out[v] = k
	}
	return out
}

// The canonical PR-2 fix: collect keys, then sort — clean.
func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Collect-then-sort over pairs is clean too.
func sortedByValue(m map[string]int) []string {
	type kv struct {
		k string
		v int
	}
	var pairs []kv
	for k, v := range m {
		pairs = append(pairs, kv{k, v})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	out := make([]string, len(pairs))
	for i, p := range pairs {
		out[i] = p.k
	}
	return out
}

// Collect-then-sort through package slices is clean: Sort, SortFunc over an
// appended suffix, and SortStableFunc.
func slicesSortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

func slicesSortedSuffix(dst []string, m map[string]int) []string {
	start := len(dst)
	for k := range m {
		dst = append(dst, k)
	}
	slices.SortFunc(dst[start:], func(a, b string) int { return strings.Compare(a, b) })
	return dst
}

func slicesStableSorted(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortStableFunc(keys, strings.Compare)
	return keys
}

// A package slices call that does not sort leaves map order in place —
// flagged.
func slicesReversed(m map[string]int) []string {
	var keys []string
	for k := range m { // want "range over map"
		keys = append(keys, k)
	}
	slices.Reverse(keys)
	return keys
}

// Commutative accumulation is order-insensitive — clean.
func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// Counting entries is order-insensitive — clean.
func count(m map[string]bool) int {
	n := 0
	for range m {
		n++
	}
	return n
}

// Per-KEY writes into another map commute — clean.
func double(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v * 2
	}
	return out
}

// Deleting per entry commutes — clean.
func clear2(m map[string]int, dead map[string]bool) {
	for k := range dead {
		delete(m, k)
	}
}

// A reviewed site can be suppressed with a reasoned directive.
func suppressed(m map[string]int) {
	//edgeis:ordered sink is a commutative metrics counter, order cannot leak
	for k, v := range m {
		sink(k, v)
	}
}

// Range over a slice is never flagged.
func sliceSum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Filtered counting under an if is still commutative — clean.
func countBig(m map[string]int) int {
	n := 0
	for _, v := range m {
		if v > 10 {
			n++
		}
	}
	return n
}

// Filtered collect-then-sort is the PR-2 idiom with a guard — clean.
func filteredSorted(m map[string]int) []string {
	var keys []string
	for k, v := range m {
		if v == 0 {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Filtered collect WITHOUT the sort still leaks map order — flagged.
func filteredUnsorted(m map[string]int) []string {
	var keys []string
	for k, v := range m { // want "range over map"
		if v > 0 {
			keys = append(keys, k)
		}
	}
	return keys
}

// Building a set writes the same constant on collision — clean.
func keySet(m map[string]int) map[int]bool {
	seen := make(map[int]bool)
	for _, v := range m {
		if v > 0 {
			seen[v] = true
		}
	}
	return seen
}

// Writing DIFFERENT constants to one map makes collisions order-dependent —
// flagged.
func twoConstants(m map[string]int) map[int]int {
	out := make(map[int]int)
	for k, v := range m { // want "range over map"
		if len(k) > 3 {
			out[v] = 1
		} else {
			out[v] = 2
		}
	}
	return out
}

// Early break depends on which entry comes first — flagged.
func firstMatch(m map[string]int) int {
	found := 0
	for _, v := range m { // want "range over map"
		if v > 0 {
			found = v
			break
		}
	}
	return found
}

package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one traced interval. Spans are recorded from the benchmark's own
// files, around the calls into each layer; Parent is the index of the span
// that was open when this one began (-1 at the top) and Item the replayed
// item it belongs to, so one item's spans share an identifier.
type span struct {
	Name  string        `json:"name"`
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	// FloorNs is the span's smallest duration over the traced passes, each
	// scaled to the reference clock (see series).
	FloorNs time.Duration `json:"floor_ns"`
	Parent  int           `json:"parent"`
	Item    int           `json:"item"`
}

// tracer keeps one pass's spans in memory. A nil *tracer is the untraced
// run: every method returns at once without reading the clock.
type tracer struct {
	spans []span
	open  []int
	item  int
}

func (t *tracer) parent() int {
	if len(t.open) == 0 {
		return -1
	}
	return t.open[len(t.open)-1]
}

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: clock(), Parent: t.parent(), Item: t.item})
	i := len(t.spans) - 1
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].End = clock()
	t.open = t.open[:len(t.open)-1]
}

// beginItem opens the span of replayed item id; everything until its end
// carries that id.
func (t *tracer) beginItem(id int) int {
	if t == nil {
		return -1
	}
	t.item = id
	return t.begin("item")
}

// closed records a span that has just ended and took elapsed — the shape in
// which core.StageObserver reports the tracking stages.
func (t *tracer) closed(name string, elapsed time.Duration) {
	if t == nil {
		return
	}
	now := clock()
	t.spans = append(t.spans, span{Name: name, Start: now - elapsed, End: now, Parent: t.parent(), Item: t.item})
}

// traceFloors floor-times spans the way series does items: the k-th span of
// every traced pass is the same call doing the same work, so its cost is the
// smallest duration it showed, each pass scaled to the reference clock.
type traceFloors struct {
	spans  []span
	passes int
}

// add folds in one traced pass and the clock scale of its probes.
func (tf *traceFloors) add(spans []span, scale float64) error {
	scaled := func(s span) time.Duration { return time.Duration(float64(s.End-s.Start) * scale) }
	if tf.passes == 0 {
		tf.spans = spans
		for i := range tf.spans {
			tf.spans[i].FloorNs = scaled(spans[i])
		}
		tf.passes++
		return nil
	}
	if len(spans) != len(tf.spans) {
		return fmt.Errorf("traced pass recorded %d spans, earlier passes %d", len(spans), len(tf.spans))
	}
	for i, s := range spans {
		if s.Name != tf.spans[i].Name || s.Parent != tf.spans[i].Parent {
			return fmt.Errorf("span %d is %s under %d, earlier passes had %s under %d",
				i, s.Name, s.Parent, tf.spans[i].Name, tf.spans[i].Parent)
		}
		if d := scaled(s); d < tf.spans[i].FloorNs {
			tf.spans[i].FloorNs = d
		}
	}
	tf.passes++
	return nil
}

// spanAgg sums one span name over a pass of floor-timed spans.
type spanAgg struct {
	calls int
	total time.Duration // sum of floors
	self  time.Duration // total minus the part child spans cover
}

// perCall is the mean floor of one call, in microseconds.
func (a spanAgg) perCall() float64 {
	if a.calls == 0 {
		return 0
	}
	return micros(a.total) / float64(a.calls)
}

func (a spanAgg) selfPerCall() float64 {
	if a.calls == 0 {
		return 0
	}
	return micros(a.self) / float64(a.calls)
}

func (tf *traceFloors) aggregate() map[string]spanAgg {
	children := make([]time.Duration, len(tf.spans))
	for _, s := range tf.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.FloorNs
		}
	}
	out := make(map[string]spanAgg)
	for i, s := range tf.spans {
		a := out[s.Name]
		a.calls++
		a.total += s.FloorNs
		if self := s.FloorNs - children[i]; self > 0 {
			a.self += self
		}
		out[s.Name] = a
	}
	return out
}

// traceFile is what -trace FILE writes when the run ends.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Passes   int                `json:"traced_passes"`
	Spans    []span             `json:"spans"`
	PerLayer map[string]float64 `json:"per_layer"`
}

func writeTrace(path string, tf traceFile) error {
	b, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

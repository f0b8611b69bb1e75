package roisel

import (
	"testing"

	"edgeis/internal/codec"
	"edgeis/internal/mask"
)

func TestDecideNewContent(t *testing.T) {
	s := NewSelector(Config{})
	ok, reason := s.Decide(FrameState{Index: 10, UnlabeledFraction: 0.4})
	if !ok || reason != ReasonNewContent {
		t.Errorf("got (%v, %v)", ok, reason)
	}
	// Below threshold, fresh edge result: no offload.
	s2 := NewSelector(Config{})
	s2.NoteEdgeResult(9)
	ok, reason = s2.Decide(FrameState{Index: 10, UnlabeledFraction: 0.1})
	if ok || reason != ReasonNone {
		t.Errorf("got (%v, %v)", ok, reason)
	}
}

func TestDecideThresholdExactlyAtT(t *testing.T) {
	// The paper says "larger than a threshold t"; exactly t must not fire.
	s := NewSelector(Config{})
	s.NoteEdgeResult(9)
	if ok, _ := s.Decide(FrameState{Index: 10, UnlabeledFraction: 0.25}); ok {
		t.Error("fraction == t should not trigger")
	}
	if ok, _ := s.Decide(FrameState{Index: 11, UnlabeledFraction: 0.2500001}); !ok {
		t.Error("fraction just above t should trigger")
	}
}

func TestDecideObjectMotion(t *testing.T) {
	s := NewSelector(Config{})
	s.NoteEdgeResult(9)
	ok, reason := s.Decide(FrameState{Index: 10, MovingObjects: 1})
	if !ok || reason != ReasonObjectMotion {
		t.Errorf("got (%v, %v)", ok, reason)
	}
}

func TestDecideKeyframeStaleness(t *testing.T) {
	s := NewSelector(Config{})
	s.NoteEdgeResult(0)
	if ok, reason := s.Decide(FrameState{Index: maxKeyframeGap}); ok {
		t.Errorf("gap of exactly maxKeyframeGap: got (%v, %v), want no offload", ok, reason)
	}
	ok, reason := s.Decide(FrameState{Index: maxKeyframeGap + 1})
	if !ok || reason != ReasonKeyframe {
		t.Errorf("got (%v, %v)", ok, reason)
	}
}

func TestDecideThrottle(t *testing.T) {
	s := NewSelector(Config{})
	if ok, _ := s.Decide(FrameState{Index: 10, UnlabeledFraction: 0.9}); !ok {
		t.Fatal("first offload should fire")
	}
	// Up to minOffloadGap frames after: throttled even with a strong trigger.
	if ok, _ := s.Decide(FrameState{Index: 10 + minOffloadGap - 1, UnlabeledFraction: 0.9}); ok {
		t.Error("throttle violated")
	}
	if ok, _ := s.Decide(FrameState{Index: 10 + minOffloadGap, UnlabeledFraction: 0.9}); !ok {
		t.Error("offload after gap should fire")
	}
}

func TestDecideLostBypassesThrottle(t *testing.T) {
	s := NewSelector(Config{})
	s.Decide(FrameState{Index: 10, UnlabeledFraction: 0.9})
	ok, reason := s.Decide(FrameState{Index: 11, TrackingLost: true})
	if !ok || reason != ReasonLost {
		t.Errorf("got (%v, %v)", ok, reason)
	}
}

func TestReasonAccounting(t *testing.T) {
	s := NewSelector(Config{})
	s.Decide(FrameState{Index: 1, UnlabeledFraction: 0.9})
	s.Decide(FrameState{Index: 1 + minOffloadGap, MovingObjects: 2})
	s.Decide(FrameState{Index: 50})
	if s.OffloadsTotal() != 3 {
		t.Errorf("total = %d", s.OffloadsTotal())
	}
	counts := s.ReasonCounts()
	if counts[ReasonNewContent] != 1 || counts[ReasonObjectMotion] != 1 || counts[ReasonKeyframe] != 1 {
		t.Errorf("counts = %v", counts)
	}
	for _, r := range []Reason{ReasonNone, ReasonNewContent, ReasonObjectMotion, ReasonKeyframe, ReasonLost, Reason(99)} {
		if r.String() == "" {
			t.Error("empty reason name")
		}
	}
}

func TestPartitionLevels(t *testing.T) {
	s := NewSelector(Config{})
	g := codec.NewGrid(640, 480)
	fs := FrameState{
		ObjectBoxes: []mask.Box{{MinX: 200, MinY: 150, MaxX: 330, MaxY: 260}},
		NewAreas:    []mask.Box{{MinX: 500, MinY: 380, MaxX: 620, MaxY: 470}},
	}
	levels, cover := s.Partition(g, fs)
	if len(levels) != g.Tiles() || len(cover) != g.Tiles() {
		t.Fatal("wrong lengths")
	}
	// Object center tile is high quality with full cover.
	objTile := g.TileAt(260, 200)
	if levels[objTile] != codec.QualityHigh || cover[objTile] != 1 {
		t.Errorf("object tile: %v cover=%v", levels[objTile], cover[objTile])
	}
	// New-area tile is high quality.
	newTile := g.TileAt(560, 420)
	if levels[newTile] != codec.QualityHigh {
		t.Errorf("new-area tile: %v", levels[newTile])
	}
	// Context band around the object is at least medium.
	ctxTile := g.TileAt(190, 140)
	if levels[ctxTile] < codec.QualityMedium {
		t.Errorf("context tile: %v", levels[ctxTile])
	}
	// A far-away tile stays low.
	farTile := g.TileAt(30, 430)
	if levels[farTile] != codec.QualityLow {
		t.Errorf("far tile: %v", levels[farTile])
	}
}

func TestPartitionReducesBytes(t *testing.T) {
	s := NewSelector(Config{})
	g := codec.NewGrid(640, 480)
	fs := FrameState{ObjectBoxes: []mask.Box{{MinX: 200, MinY: 150, MaxX: 330, MaxY: 260}}}
	levels, cover := s.Partition(g, fs)
	mixed, err := codec.Encode(g, levels, cover)
	if err != nil {
		t.Fatal(err)
	}
	uniform := codec.EncodeUniform(g, codec.QualityHigh, cover)
	if mixed.Bytes >= uniform.Bytes*2/3 {
		t.Errorf("partitioned %d bytes vs uniform %d: want clear reduction", mixed.Bytes, uniform.Bytes)
	}
}

func TestNewAreasFromUnlabeled(t *testing.T) {
	g := codec.NewGrid(640, 480)
	// Cluster of unlabeled features in the top-left corner plus an
	// isolated single feature (below minFeatures) elsewhere.
	pts := []struct{ X, Y float64 }{
		{10, 10}, {15, 12}, {40, 20}, {50, 40}, {20, 50},
		{600, 400},
	}
	areas := NewAreasFromUnlabeled(g, pts, 2)
	if len(areas) != 1 {
		t.Fatalf("got %d areas, want 1", len(areas))
	}
	if !areas[0].Contains(10, 10) {
		t.Error("area misses the cluster")
	}
	if areas[0].Contains(600, 400) {
		t.Error("isolated feature should not form an area")
	}
	if got := NewAreasFromUnlabeled(g, nil, 2); got != nil {
		t.Error("no features should yield no areas")
	}
}

func TestNewAreasMergeAdjacentTiles(t *testing.T) {
	g := codec.NewGrid(640, 480)
	// Two hot tiles side by side merge into one box.
	pts := []struct{ X, Y float64 }{
		{10, 10}, {20, 20}, // tile (0,0)
		{40, 10}, {50, 20}, // tile (0,1)
	}
	areas := NewAreasFromUnlabeled(g, pts, 2)
	if len(areas) != 1 {
		t.Fatalf("got %d areas, want merged 1", len(areas))
	}
	if areas[0].Width() < 2*codec.TileSize {
		t.Error("merged area too narrow")
	}
}

func TestDisableClusterTriggerIsolatesThreshold(t *testing.T) {
	fs := FrameState{
		Index:             10,
		UnlabeledFraction: 0.1, // below t
		NewAreas:          []mask.Box{{MinX: 0, MinY: 0, MaxX: 64, MaxY: 64}},
	}
	withCluster := NewSelector(Config{})
	withCluster.NoteEdgeResult(9)
	if ok, reason := withCluster.Decide(fs); !ok || reason != ReasonNewContent {
		t.Errorf("cluster trigger should fire: (%v, %v)", ok, reason)
	}
	isolated := NewSelector(Config{DisableClusterTrigger: true})
	isolated.NoteEdgeResult(9)
	if ok, _ := isolated.Decide(fs); ok {
		t.Error("cluster trigger fired despite being disabled")
	}
}

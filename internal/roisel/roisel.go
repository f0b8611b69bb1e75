// Package roisel implements edgeIS's Content-based Fine-grained RoI
// Selection (CFRS, Section V): deciding WHEN to offload a frame to the edge
// and HOW to compress it.
//
// Offload triggers:
//   - the fraction of features matched to unlabeled map points exceeds the
//     threshold t (paper: 0.25) — a large part of the view is new content;
//   - a tracked object's pose changed significantly over a period — its
//     cached mask needs correction;
//   - a staleness guard re-offloads when no edge result arrived for too
//     long (keyframe refresh).
//
// Frame partition (Fig. 8c/d): tiles covering known objects and new content
// are encoded at high quality, a context band around objects at medium, and
// everything else at low quality.
package roisel

import (
	"edgeis/internal/codec"
	"edgeis/internal/mask"
)

// Config tunes the selector.
type Config struct {
	// NewContentThreshold is t: the unlabeled-feature fraction above which
	// a frame is offloaded (paper: 0.25).
	NewContentThreshold float64
	// DisableClusterTrigger turns off the localized new-area trigger,
	// leaving only the paper's global threshold t — used by the threshold
	// ablation to isolate t's effect.
	DisableClusterTrigger bool
}

// Selector constants.
const (
	// maxKeyframeGap forces an offload after this many frames without an
	// edge result (one second at camera rate).
	maxKeyframeGap = 30
	// minOffloadGap throttles consecutive offloads (frames) so a burst of
	// triggers cannot saturate the uplink.
	minOffloadGap = 5
	// contextMargin is the tile margin around object boxes encoded at
	// medium quality.
	contextMargin = 1
)

// FrameState is what the selector inspects each frame.
type FrameState struct {
	Index int
	// UnlabeledFraction is the VO's fraction of features matched to
	// unlabeled points (or unmatched entirely).
	UnlabeledFraction float64
	// MovingObjects counts instances currently flagged as moving.
	MovingObjects int
	// ObjectBoxes are the current (transferred) mask bounding boxes.
	ObjectBoxes []mask.Box
	// NewAreas are regions dominated by unlabeled features.
	NewAreas []mask.Box
	// TrackingLost marks frames where the VO lost its pose; they must be
	// offloaded to re-initialize.
	TrackingLost bool
}

// Reason explains an offload decision (for metrics and logs).
type Reason int

// Offload reasons.
const (
	// ReasonNone: no offload this frame.
	ReasonNone Reason = iota
	// ReasonNewContent: unlabeled-feature fraction exceeded t.
	ReasonNewContent
	// ReasonObjectMotion: a tracked object moved; masks need correction.
	ReasonObjectMotion
	// ReasonKeyframe: staleness refresh.
	ReasonKeyframe
	// ReasonLost: tracking lost; re-initialization frames.
	ReasonLost
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonNone:
		return "none"
	case ReasonNewContent:
		return "new-content"
	case ReasonObjectMotion:
		return "object-motion"
	case ReasonKeyframe:
		return "keyframe"
	case ReasonLost:
		return "lost"
	default:
		return "unknown"
	}
}

// Selector holds the offload state machine.
type Selector struct {
	cfg             Config
	lastOffload     int
	lastEdgeResult  int
	offloadsTotal   int
	reasonHistogram map[Reason]int
}

// NewSelector builds a selector.
func NewSelector(cfg Config) *Selector {
	if cfg.NewContentThreshold == 0 {
		cfg.NewContentThreshold = 0.25
	}
	return &Selector{
		cfg:             cfg,
		lastOffload:     -1 << 30,
		lastEdgeResult:  -1 << 30,
		reasonHistogram: make(map[Reason]int),
	}
}

// NoteEdgeResult records that an edge inference result covering the given
// frame arrived, resetting the staleness guard.
func (s *Selector) NoteEdgeResult(frameIdx int) {
	if frameIdx > s.lastEdgeResult {
		s.lastEdgeResult = frameIdx
	}
}

// OffloadsTotal returns the number of positive decisions taken.
func (s *Selector) OffloadsTotal() int { return s.offloadsTotal }

// ReasonCounts returns a copy of the per-reason decision histogram.
func (s *Selector) ReasonCounts() map[Reason]int {
	out := make(map[Reason]int, len(s.reasonHistogram))
	for k, v := range s.reasonHistogram {
		out[k] = v
	}
	return out
}

// Decide returns whether to offload this frame and why.
func (s *Selector) Decide(fs FrameState) (bool, Reason) {
	if fs.TrackingLost {
		// Re-initialization frames bypass the throttle: without them the
		// system cannot recover.
		s.record(fs.Index, ReasonLost)
		return true, ReasonLost
	}
	if fs.Index-s.lastOffload < minOffloadGap {
		return false, ReasonNone
	}
	clusterHit := !s.cfg.DisableClusterTrigger && len(fs.NewAreas) > 0
	switch {
	case fs.UnlabeledFraction > s.cfg.NewContentThreshold || clusterHit:
		// Either a large share of the view is new (the paper's global
		// threshold t) or a localized cluster of unlabeled features —
		// typically a freshly appeared object — needs pixel-level
		// annotation even though it is small relative to the frame.
		s.record(fs.Index, ReasonNewContent)
		return true, ReasonNewContent
	case fs.MovingObjects > 0:
		s.record(fs.Index, ReasonObjectMotion)
		return true, ReasonObjectMotion
	case fs.Index-s.lastEdgeResult > maxKeyframeGap:
		s.record(fs.Index, ReasonKeyframe)
		return true, ReasonKeyframe
	default:
		return false, ReasonNone
	}
}

func (s *Selector) record(idx int, r Reason) {
	s.lastOffload = idx
	s.offloadsTotal++
	s.reasonHistogram[r]++
}

// Partition assigns per-tile quality levels for an offloaded frame
// (Fig. 8c/d): high quality on object and new-content tiles, medium on a
// context band around objects, low elsewhere. It also returns the per-tile
// object coverage used by the codec's complexity model.
func (s *Selector) Partition(g codec.Grid, fs FrameState) ([]codec.QualityLevel, []float64) {
	levels := make([]codec.QualityLevel, g.Tiles())
	cover := make([]float64, g.Tiles())
	for i := range levels {
		levels[i] = codec.QualityLow
	}
	raise := func(tile int, lvl codec.QualityLevel) {
		if levels[tile] < lvl {
			levels[tile] = lvl
		}
	}
	margin := contextMargin * codec.TileSize
	for _, b := range fs.ObjectBoxes {
		for _, t := range g.TilesInBox(b) {
			raise(t, codec.QualityHigh)
			cover[t] = 1
		}
		ctx := b.Expand(margin, g.Width, g.Height)
		for _, t := range g.TilesInBox(ctx) {
			raise(t, codec.QualityMedium)
			if cover[t] < 0.4 {
				cover[t] = 0.4
			}
		}
	}
	for _, b := range fs.NewAreas {
		for _, t := range g.TilesInBox(b) {
			raise(t, codec.QualityHigh)
			if cover[t] < 0.6 {
				cover[t] = 0.6
			}
		}
	}
	return levels, cover
}

// NewAreasFromUnlabeled derives new-content boxes by clustering unlabeled
// feature pixels on the tile grid: tiles whose unlabeled-feature count
// exceeds minFeatures are merged into their bounding boxes (greedy
// row-major clustering of adjacent hot tiles).
func NewAreasFromUnlabeled(g codec.Grid, pixels []struct{ X, Y float64 }, minFeatures int) []mask.Box {
	if minFeatures <= 0 {
		minFeatures = 2
	}
	counts := make([]int, g.Tiles())
	for _, p := range pixels {
		counts[g.TileAt(int(p.X), int(p.Y))]++
	}
	hot := make([]bool, g.Tiles())
	for i, c := range counts {
		hot[i] = c >= minFeatures
	}
	visited := make([]bool, g.Tiles())
	var out []mask.Box
	for i := range hot {
		if !hot[i] || visited[i] {
			continue
		}
		// Flood-fill the hot cluster.
		stack := []int{i}
		visited[i] = true
		box := g.TileBox(i)
		for len(stack) > 0 {
			t := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			box = box.UnionBox(g.TileBox(t))
			r, c := t/g.Cols, t%g.Cols
			for _, d := range [4][2]int{{0, 1}, {0, -1}, {1, 0}, {-1, 0}} {
				nr, nc := r+d[0], c+d[1]
				if nr < 0 || nc < 0 || nr >= g.Rows || nc >= g.Cols {
					continue
				}
				nt := nr*g.Cols + nc
				if hot[nt] && !visited[nt] {
					visited[nt] = true
					stack = append(stack, nt)
				}
			}
		}
		out = append(out, box)
	}
	return out
}

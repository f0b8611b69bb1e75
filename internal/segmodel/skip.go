package segmodel

// Temporal-redundancy skip-compute (YolactEdge-style, see PAPERS.md).
//
// Consecutive frames of a video are largely redundant: the backbone features
// of frame t can be cheaply warped into frame t+1 instead of recomputed.
// This file models that lever in the simulated cost model: a per-session
// FeatureCache remembers the last keyframe's backbone pyramid, a
// KeyframePolicy decides per frame whether the cache is still usable, and
// Model.RunWarped charges a calibrated partial-backbone cost
// (Profile.WarpMs + Profile.TileRecomputeMs per changed tile, clamped at
// BackboneMs) instead of the full Profile.BackboneMs on non-keyframes.
//
// Warped features are not free: detections computed on them carry a bounded
// IoU penalty that grows with cache age (Profile.WarpPenaltyPerFrame, capped
// at Profile.WarpPenaltyMax), so the accuracy/latency trade-off stays
// measurable against the oracle.
//
// Ownership: the cross-frame state of one client stream is a
// KeyframeStream value held by whoever owns the session (edge.Session, the
// pipeline backends, the loadgen simulator). Model itself holds no
// cross-frame state: its per-frame scratch carries nothing from one run
// into the next, so clones are interchangeable.

import (
	"math"

	"edgeis/internal/mask"
)

// warpTile is the pixel granularity of partial backbone recompute: the
// frame is divided into warpTile x warpTile tiles and only tiles touched by
// moved content pay Profile.TileRecomputeMs. 64 px matches the coarsest FPN
// stride, the natural unit of backbone feature reuse.
const warpTile = 64

// AreaProvider is implemented by guidance values that can expose the pixel
// boxes of their instructed areas (accel.Plan does). The keyframe decision
// measures guidance churn — how far the CIIA-transferred contours moved
// since the cached keyframe — through this interface; guidance without it
// contributes no churn signal.
type AreaProvider interface {
	AreaBoxes() []mask.Box
}

// GuidanceAreas extracts the instructed-area boxes from a guidance value,
// or nil when the guidance is nil or does not expose areas.
func GuidanceAreas(g Guidance) []mask.Box {
	if g == nil {
		return nil
	}
	if ap, ok := g.(AreaProvider); ok {
		return ap.AreaBoxes()
	}
	return nil
}

// KeyframeReason explains why a frame was (or was not) a keyframe.
type KeyframeReason string

// Keyframe decision reasons.
const (
	// KeyDisabled: skip-compute is off (Interval <= 1) or no cache exists;
	// every frame pays the full backbone.
	KeyDisabled KeyframeReason = "disabled"
	// KeyCold: the cache holds no valid pyramid (first frame, or it was
	// invalidated).
	KeyCold KeyframeReason = "cold"
	// KeyResolution: the frame resolution changed; cached features cannot
	// be warped across resolutions.
	KeyResolution KeyframeReason = "resolution"
	// KeyContinuity: the cached pyramid was built under guidance and this
	// frame arrived without any — the CIIA contour chain broke, so the
	// churn signal is gone and the cache cannot be trusted.
	KeyContinuity KeyframeReason = "continuity"
	// KeyInterval: the forced-keyframe interval elapsed.
	KeyInterval KeyframeReason = "interval"
	// KeyChurn: too many transferred contours moved beyond the motion
	// threshold since the cached keyframe.
	KeyChurn KeyframeReason = "churn"
	// KeyNone marks a non-keyframe (the skip path runs).
	KeyNone KeyframeReason = ""
)

// KeyframePolicy decides which frames recompute the full backbone.
// The zero value (Interval 0) disables skip-compute entirely: every frame
// is a keyframe and behaviour is byte-identical to a build without the
// feature cache.
type KeyframePolicy struct {
	// Interval forces a keyframe every Interval frames. Interval <= 1
	// disables skip-compute (every frame is a keyframe).
	Interval int
}

// Keyframe triggers besides the interval.
const (
	// motionThreshold is the relative center displacement (fraction of the
	// contour's scale, sqrt of its box area) beyond which a transferred
	// contour counts as moved.
	motionThreshold = 0.25
	// churnLimit is the moved fraction of transferred contours above which
	// a keyframe is forced regardless of age.
	churnLimit = 0.5
)

// Enabled reports whether the policy ever produces non-keyframes.
func (p KeyframePolicy) Enabled() bool { return p.Interval > 1 }

// KeyframeDecision is the outcome of KeyframePolicy.Decide for one frame.
// It rides the inference job so the accelerator worker that serves the
// frame charges the matching cost shape.
type KeyframeDecision struct {
	// Keyframe is true when the frame must recompute the full backbone.
	Keyframe bool
	// Reason explains the decision (KeyNone on non-keyframes).
	Reason KeyframeReason
	// Age is the number of frames since the cached keyframe (0 on
	// keyframes, >= 1 on non-keyframes).
	Age int
	// ChangedTiles is the number of warpTile-sized tiles touched by moved
	// content; each pays Profile.TileRecomputeMs on the skip path.
	ChangedTiles int
	// TotalTiles is the tile count of the whole frame, for rate reporting.
	TotalTiles int
	// Churn is the moved fraction of transferred contours.
	Churn float64
}

// FeatureCache models the cached backbone pyramid of one session's last
// keyframe. Only the metadata needed by the cost model is held (dimensions,
// age, the keyframe's instructed-area boxes); the simulated features
// themselves have no representation.
//
// A FeatureCache is NOT safe for concurrent use; the owning session must
// serialize access (edge.Session holds it under its own mutex).
type FeatureCache struct {
	valid  bool
	width  int
	height int
	age    int
	guided bool
	areas  []mask.Box
}

// NewFeatureCache returns an empty (cold) cache.
func NewFeatureCache() *FeatureCache { return &FeatureCache{} }

// Valid reports whether the cache holds a usable keyframe pyramid.
func (c *FeatureCache) Valid() bool { return c != nil && c.valid }

// Age returns the frames elapsed since the cached keyframe.
func (c *FeatureCache) Age() int {
	if c == nil {
		return 0
	}
	return c.age
}

// Invalidate drops the cached pyramid: the next frame is a cold keyframe.
// Owners call this when the cache can no longer be trusted — the session's
// guidance continuity broke, or a keyframe that would have refreshed it was
// shed before reaching an accelerator.
func (c *FeatureCache) Invalidate() {
	if c == nil {
		return
	}
	c.valid = false
	c.age = 0
	c.areas = c.areas[:0]
}

// refresh records a new keyframe.
func (c *FeatureCache) refresh(in Input, g Guidance, boxes []mask.Box) {
	c.valid = true
	c.width, c.height = in.Width, in.Height
	c.age = 0
	c.guided = g != nil
	c.areas = append(c.areas[:0], boxes...)
}

// Decide classifies one frame as keyframe or non-keyframe and updates the
// cache accordingly: keyframes refresh it, non-keyframes age it. The
// decision must be made in frame arrival order — it is the only place
// cross-frame state advances.
//
// A nil cache or a disabled policy always yields a keyframe (reason
// KeyDisabled) and leaves the cache untouched, reproducing cache-free
// behaviour exactly.
func (p KeyframePolicy) Decide(c *FeatureCache, in Input, g Guidance) KeyframeDecision {
	if !p.Enabled() || c == nil {
		return KeyframeDecision{Keyframe: true, Reason: KeyDisabled}
	}
	boxes := GuidanceAreas(g)
	keyframe := func(why KeyframeReason) KeyframeDecision {
		c.refresh(in, g, boxes)
		return KeyframeDecision{Keyframe: true, Reason: why}
	}
	if !c.valid {
		return keyframe(KeyCold)
	}
	if c.width != in.Width || c.height != in.Height {
		return keyframe(KeyResolution)
	}
	if c.guided && g == nil {
		return keyframe(KeyContinuity)
	}
	age := c.age + 1
	if age >= p.Interval {
		return keyframe(KeyInterval)
	}
	churn, moved, orphans := matchContours(c.areas, boxes)
	if churn > churnLimit {
		return keyframe(KeyChurn)
	}
	c.age = age
	changed, total := changedTiles(in.Width, in.Height, moved, orphans)
	return KeyframeDecision{
		Age:          age,
		Churn:        churn,
		ChangedTiles: changed,
		TotalTiles:   total,
	}
}

// KeyframeStream is the skip-compute state of one client stream: the policy
// plus the stream's feature cache, created on the first decision under an
// enabled policy. Every owner of a stream — edge.Session, the pipeline's
// simulated backends, the loadgen simulator — holds one, so the decide-in-
// arrival-order and lost-keyframe rules exist once. Not safe for concurrent
// use; the owner serializes access.
type KeyframeStream struct {
	Policy KeyframePolicy
	cache  *FeatureCache
}

// Decide classifies the stream's next frame. It is the stream's only
// cross-frame state transition, so owners call it exactly once per frame in
// arrival order — before admission, since even a frame the queue then
// refuses has advanced the cache. With the policy disabled it returns the
// constant keyframe decision and never creates a cache.
func (k *KeyframeStream) Decide(in Input, g Guidance) KeyframeDecision {
	if !k.Policy.Enabled() {
		return KeyframeDecision{Keyframe: true, Reason: KeyDisabled}
	}
	if k.cache == nil {
		k.cache = NewFeatureCache()
	}
	return k.Policy.Decide(k.cache, in, g)
}

// Lost records that the frame carrying decision d never reached an
// accelerator (rejected, shed, dropped at a full queue). Only a lost
// keyframe matters: its pyramid was never computed, so later frames must
// not warp from it and the next one is a cold keyframe. A lost non-keyframe
// leaves the cached keyframe intact.
func (k *KeyframeStream) Lost(d KeyframeDecision) {
	if d.Keyframe && d.Reason != KeyDisabled {
		k.cache.Invalidate()
	}
}

// Reset evicts the cache: the session closed, or migrated to a replica
// that never saw its keyframes.
func (k *KeyframeStream) Reset() { k.cache = nil }

// Valid reports whether the stream holds a usable keyframe pyramid.
func (k *KeyframeStream) Valid() bool { return k.cache.Valid() }

// matchContours greedily matches each current contour box to the nearest
// cached keyframe box by center distance. A current box counts as moved
// when it has no cached counterpart (a new area) or its center displaced
// beyond motionThreshold x its scale. Returned are the moved fraction of
// current boxes, the moved boxes themselves, and the cached boxes left
// unmatched (content that left the frame — their tiles changed too).
func matchContours(prev, cur []mask.Box) (churn float64, moved, orphans []mask.Box) {
	taken := make([]bool, len(prev))
	nMoved := 0
	for _, cb := range cur {
		cc := cb.Center()
		bestIdx, bestDist := -1, math.Inf(1)
		for i, pb := range prev {
			if taken[i] {
				continue
			}
			pc := pb.Center()
			d := math.Hypot(cc.X-pc.X, cc.Y-pc.Y)
			if d < bestDist {
				bestIdx, bestDist = i, d
			}
		}
		if bestIdx < 0 {
			nMoved++
			moved = append(moved, cb)
			continue
		}
		taken[bestIdx] = true
		scale := math.Sqrt(float64(prev[bestIdx].Area()))
		if bestDist > motionThreshold*scale {
			nMoved++
			moved = append(moved, cb, prev[bestIdx])
		}
	}
	for i, pb := range prev {
		if !taken[i] {
			orphans = append(orphans, pb)
		}
	}
	if len(cur) > 0 {
		churn = float64(nMoved) / float64(len(cur))
	}
	return churn, moved, orphans
}

// changedTiles counts the warpTile-grid tiles covered by any moved or
// orphaned box — the tiles whose backbone features must be recomputed
// rather than warped.
func changedTiles(width, height int, moved, orphans []mask.Box) (changed, total int) {
	tx := (width + warpTile - 1) / warpTile
	ty := (height + warpTile - 1) / warpTile
	if tx < 1 {
		tx = 1
	}
	if ty < 1 {
		ty = 1
	}
	total = tx * ty
	if len(moved) == 0 && len(orphans) == 0 {
		return 0, total
	}
	grid := make([]bool, total)
	mark := func(b mask.Box) {
		if b.Empty() {
			return
		}
		x0, y0 := b.MinX/warpTile, b.MinY/warpTile
		x1, y1 := (b.MaxX-1)/warpTile, (b.MaxY-1)/warpTile
		if x0 < 0 {
			x0 = 0
		}
		if y0 < 0 {
			y0 = 0
		}
		if x1 > tx-1 {
			x1 = tx - 1
		}
		if y1 > ty-1 {
			y1 = ty - 1
		}
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				grid[y*tx+x] = true
			}
		}
	}
	for _, b := range moved {
		mark(b)
	}
	for _, b := range orphans {
		mark(b)
	}
	for _, set := range grid {
		if set {
			changed++
		}
	}
	return changed, total
}

// WarpCostMs is the backbone cost charged on the skip path: the fixed
// feature-warp cost plus per-changed-tile partial recompute, clamped at the
// full backbone cost (a warp can never cost more than recomputing).
func (p Profile) WarpCostMs(changedTiles int) float64 {
	ms := p.WarpMs + p.TileRecomputeMs*float64(changedTiles)
	if ms > p.BackboneMs {
		ms = p.BackboneMs
	}
	if ms < 0 {
		ms = 0
	}
	return ms
}

// WarpIoUScale is the bounded accuracy penalty of detecting on warped
// features: mask/box quality is scaled by 1 - min(age*WarpPenaltyPerFrame,
// WarpPenaltyMax). Age 0 (a keyframe) scales by exactly 1.
func (p Profile) WarpIoUScale(age int) float64 {
	pen := p.WarpPenaltyPerFrame * float64(age)
	if pen > p.WarpPenaltyMax {
		pen = p.WarpPenaltyMax
	}
	if pen < 0 {
		pen = 0
	}
	return 1 - pen
}

// warpSpec carries the skip-path cost overrides through the inference
// pipeline. A nil warpSpec is the vanilla full-backbone path.
type warpSpec struct {
	backboneMs float64
	iouScale   float64
	age        int
	changed    int
}

// RunWarped performs simulated inference under a keyframe decision.
// Keyframe decisions run the vanilla path (identical to Run); non-keyframe
// decisions charge the partial-backbone warp cost and apply the bounded IoU
// penalty. Everything else — RNG draw order, proposal stream, RPN and head
// costs — is shared with Run, so a decision of {Keyframe: true} is
// byte-identical to Run.
func (m *Model) RunWarped(in Input, g Guidance, d KeyframeDecision) *Result {
	if d.Keyframe {
		return m.Run(in, g)
	}
	rng := m.runRand(in.Seed)
	w := &warpSpec{
		backboneMs: m.Profile.WarpCostMs(d.ChangedTiles),
		iouScale:   m.Profile.WarpIoUScale(d.Age),
		age:        d.Age,
		changed:    d.ChangedTiles,
	}
	if m.Profile.RoIMs > 0 {
		return m.runTwoStage(in, g, rng, w)
	}
	return m.runOneStage(in, rng, w)
}

// Package transfer implements the mask-prediction half of edgeIS's Motion
// Aware Mobile Mask Transfer (Section III-C): given the VO's labeled map and
// pose history plus cached instance masks from earlier frames, it predicts
// the mask of every known instance on the current frame without running a
// DL model.
//
// For each instance the module (1) selects a source frame that observed the
// object clearly from a similar viewpoint, (2) extracts the cached mask's
// contour, (3) assigns each contour pixel the average depth of its k nearest
// in-mask features (k = 5 in the paper), (4) re-projects the contour through
// the relative pose into the current frame and (5) rasterizes the resulting
// polygon back into a dense mask.
package transfer

import (
	"cmp"
	"errors"
	"slices"

	"edgeis/internal/geom"
	"edgeis/internal/mask"
	"edgeis/internal/vo"
)

// Errors returned by the mask predictor.
var (
	// ErrNoSource indicates no cached mask/frame pair can serve as a
	// transfer source for the instance.
	ErrNoSource = errors.New("transfer: no usable source frame")
	// ErrNoDepth indicates the source frame lacks in-mask features to
	// estimate contour depth from.
	ErrNoDepth = errors.New("transfer: no depth features inside mask")
)

// Config tunes the predictor.
type Config struct {
	// K is the number of nearest in-mask features averaged for a contour
	// pixel's depth (paper: 5).
	K int
}

// Predictor constants.
const (
	// maxViewAngle is the largest rotation (radians) between source and
	// current frame for the source to qualify ("the angle between the
	// frames is not too large").
	maxViewAngle = 0.5
	// maxContourPoints subsamples long contours for speed.
	maxContourPoints = 160
	// minMaskArea (px) skips degenerate cached masks.
	minMaskArea = 16
)

// CachedMask is an instance mask the mobile side holds for a past frame —
// either received from the edge server or produced by an earlier transfer.
type CachedMask struct {
	FrameIndex int
	InstanceID int
	Label      int
	Mask       *mask.Bitmask
	// FromEdge distinguishes authoritative edge results from chained
	// transfer outputs; edge masks are preferred as sources.
	FromEdge bool
	// pooled marks masks the predictor rasterized from its pool; Compact and
	// Evict return their storage for reuse. Edge-result masks are never
	// pooled — their callers may retain them indefinitely.
	pooled bool
	// runs holds the mask's run-length encoding once Compact has parked the
	// entry: the dense buffer went back to the pool (Mask is nil) and the
	// entry rematerializes through the pool if selected as a source. Kept
	// after rematerialization so re-compacting is free.
	runs []uint32
	// w, h are the dense dimensions, needed to rematerialize a compacted
	// entry.
	w, h int
}

// Predictor transfers cached masks to the current frame.
type Predictor struct {
	cfg    Config
	camera geom.Camera
	// cache maps instance ID -> frame index -> cached mask.
	cache map[int]map[int]*CachedMask
	// pool supplies rasterization targets; pooled masks return via Compact
	// (a few frames behind the present, once the caller can no longer alias
	// them) or Evict. Nil means plain allocation.
	pool *mask.Pool
	// lastPredictFrame is the frame of the most recent Predict call. The
	// caller may still alias that frame's prediction masks (core keeps them
	// for CIIA guidance), so overwrites at this frame must not recycle.
	lastPredictFrame int
	// points and feats are Predict's scratch: the instance's map points
	// and the depth sources drawn from them, reused across calls.
	points []*vo.MapPoint
	feats  []depthFeat
}

// NewPredictor builds a predictor for the given camera.
func NewPredictor(cam geom.Camera, cfg Config) *Predictor {
	if cfg.K == 0 {
		cfg.K = 5
	}
	return &Predictor{
		cfg:    cfg,
		camera: cam,
		cache:  make(map[int]map[int]*CachedMask),
	}
}

// SetPool directs the predictor to rasterize predicted masks into pooled
// storage recycled on eviction. Call before the first Predict.
func (p *Predictor) SetPool(pool *mask.Pool) { p.pool = pool }

// Put stores a cached mask.
func (p *Predictor) Put(cm *CachedMask) {
	if cm.Mask == nil || cm.Mask.Area() < minMaskArea {
		return
	}
	byFrame := p.cache[cm.InstanceID]
	if byFrame == nil {
		byFrame = make(map[int]*CachedMask)
		p.cache[cm.InstanceID] = byFrame
	}
	// Edge masks always win over transferred ones for the same frame.
	if prev, ok := byFrame[cm.FrameIndex]; ok {
		if prev.FromEdge && !cm.FromEdge {
			return
		}
		// Overwriting a chained prediction (typically with the authoritative
		// edge mask for the same frame): reclaim its pooled storage now, or
		// it would bleed out of the pool at one set of masks per offload.
		// Masks predicted for the most recent transfer frame may still be
		// aliased by the caller, so those leak to the GC instead.
		if prev.pooled && prev.FrameIndex != p.lastPredictFrame {
			prev.pooled = false
			p.pool.Put(prev.Mask)
		}
	}
	byFrame[cm.FrameIndex] = cm
}

// Evict drops cached masks older than keepAfter for all instances, always
// retaining the newest edge mask per instance. Evicted pooled masks return
// their storage to the pool; compacted entries just drop their run-length
// form (their dense buffer is already back in the pool). Core calls Evict
// when edge results arrive; between results, Compact bounds pool usage
// without changing which entries selection can see.
func (p *Predictor) Evict(keepAfter int) int {
	removed := 0
	for _, byFrame := range p.cache {
		newestEdge := -1
		for idx, cm := range byFrame {
			if cm.FromEdge && idx > newestEdge {
				newestEdge = idx
			}
		}
		for idx, cm := range byFrame {
			if idx < keepAfter && idx != newestEdge {
				if cm.pooled {
					cm.pooled = false
					p.pool.Put(cm.Mask)
				}
				delete(byFrame, idx)
				removed++
			}
		}
	}
	return removed
}

// Compact parks pooled cache entries older than `before` in run-length form:
// each entry keeps its place in the cache (source selection is completely
// unaffected) but its dense buffer returns to the pool, and the entry
// rematerializes through the pool only if selection actually picks it. Core
// calls this every tracked frame a few frames behind the present, so the
// pooled in-flight population stays bounded at the chained working set even
// when CFRS stops offloading — unlike Evict, which fires on edge results and
// so never reclaims anything during quiet stretches. Returns the number of
// entries parked.
func (p *Predictor) Compact(before int) int {
	parked := 0
	for _, byFrame := range p.cache {
		for idx, cm := range byFrame {
			if idx >= before || !cm.pooled {
				continue
			}
			if cm.runs == nil {
				cm.runs = cm.Mask.AppendRuns(make([]uint32, 0, 128))
				cm.w, cm.h = cm.Mask.Width, cm.Mask.Height
			}
			p.pool.Put(cm.Mask)
			cm.Mask = nil
			cm.pooled = false
			parked++
		}
	}
	return parked
}

// materialize restores a compacted entry's dense mask from its run-length
// form, drawing storage from the pool. No-op for entries that still hold
// their dense buffer.
func (p *Predictor) materialize(cm *CachedMask) {
	if cm.Mask != nil {
		return
	}
	m := p.pool.Get(cm.w, cm.h)
	m.FillRuns(cm.runs)
	cm.Mask = m
	cm.pooled = p.pool != nil
}

// CacheSize returns the number of cached masks.
func (p *Predictor) CacheSize() int {
	n := 0
	for _, byFrame := range p.cache {
		n += len(byFrame)
	}
	return n
}

// Prediction is a transferred mask for one instance.
type Prediction struct {
	InstanceID  int
	Label       int
	Mask        *mask.Bitmask
	SourceFrame int
	// SourceAge is the frame-count distance between the source and the
	// current frame, a staleness measure for metrics.
	SourceAge int
}

// PredictAll transfers all known instances onto the current frame, given the
// VO system state after the frame was tracked. Instances without a usable
// source are skipped.
func (p *Predictor) PredictAll(sys *vo.System, frameIdx int) []Prediction {
	insts := sys.Instances()
	out := make([]Prediction, 0, len(insts))
	for _, inst := range insts {
		pred, err := p.Predict(sys, inst.ID, frameIdx)
		if err != nil {
			continue
		}
		out = append(out, *pred)
	}
	// Stable output order for deterministic pipelines.
	slices.SortFunc(out, func(a, b Prediction) int { return cmp.Compare(a.InstanceID, b.InstanceID) })
	return out
}

// Predict transfers one instance's mask to the current frame.
func (p *Predictor) Predict(sys *vo.System, instanceID, frameIdx int) (*Prediction, error) {
	inst := sys.Instance(instanceID)
	if inst == nil {
		return nil, ErrNoSource
	}
	cur := sys.FrameRecordAt(frameIdx)
	if cur == nil {
		return nil, ErrNoSource
	}
	p.lastPredictFrame = frameIdx
	src, srcRec := p.selectSource(sys, instanceID, cur)
	if src == nil {
		return nil, ErrNoSource
	}
	// A compacted source rematerializes from its run-length form; pixels are
	// bit-identical to what Compact parked, so transfers are byte-for-byte
	// the same whether or not the source spent time compacted.
	p.materialize(src)

	// Relative pose mapping source-camera coordinates to current-camera
	// coordinates. Using per-object poses handles moving objects: for an
	// instance, T_rel = T_Ci_O * T_Cj_O^-1; for the degenerate case where
	// object poses are missing, fall back to world poses.
	srcPose, okSrc := srcRec.ObjectPoses[instanceID]
	curPose, okCur := cur.ObjectPoses[instanceID]
	if !okSrc {
		srcPose = srcRec.TCW
	}
	if !okCur {
		curPose = cur.TCW
	}
	rel := curPose.Compose(srcPose.Inverse())

	// Depth sources: the instance's map points observed in the source
	// frame, at their source-frame pixel and depth.
	p.points = sys.Map().AppendInstancePoints(p.points[:0], instanceID)
	feats := p.feats[:0]
	for _, mp := range p.points {
		px, depth, ok := observationIn(mp, src.FrameIndex)
		if !ok || depth <= 0 {
			continue
		}
		feats = append(feats, depthFeat{px: px, depth: depth, edge: mp.NearContour})
	}
	p.feats = feats
	if len(feats) == 0 {
		return nil, ErrNoDepth
	}

	// Use the largest contour; cached instance masks are single components
	// in practice but occlusion can fragment them.
	contour := mask.LargestContour(src.Mask, minMaskArea, maxContourPoints)
	if len(contour) == 0 {
		return nil, ErrNoSource
	}

	projected := make([]geom.Vec2, 0, len(contour))
	for _, s := range contour {
		depth, ok := p.contourDepth(s, feats)
		if !ok {
			continue
		}
		// Back-project in the source camera, move through the relative
		// pose, re-project in the current camera (Section III-C).
		pc := p.camera.Backproject(s, depth)
		px, err := p.camera.Project(rel.Apply(pc))
		if err != nil {
			continue
		}
		projected = append(projected, px)
	}
	if len(projected) < 3 {
		return nil, ErrNoDepth
	}
	m := p.pool.Get(p.camera.Width, p.camera.Height)
	mask.FillPolygonInto(m, projected, p.camera.Width, p.camera.Height)
	if m.Area() < minMaskArea {
		p.pool.Put(m) // never escaped; reclaim immediately
		return nil, ErrNoSource
	}
	pred := &Prediction{
		InstanceID:  instanceID,
		Label:       inst.Label,
		Mask:        m,
		SourceFrame: src.FrameIndex,
		SourceAge:   frameIdx - src.FrameIndex,
	}
	// Chain: the prediction becomes a cache entry for future transfers.
	// If Put declines the entry (or later overwrites it), the mask simply
	// leaks to the GC — recycling is only ever an optimization.
	p.Put(&CachedMask{
		FrameIndex: frameIdx,
		InstanceID: instanceID,
		Label:      inst.Label,
		Mask:       m,
		FromEdge:   false,
		pooled:     p.pool != nil,
	})
	return pred, nil
}

// selectSource picks the best cached mask for the instance: an edge mask
// when possible, observed from the closest viewpoint within maxViewAngle,
// preferring recent frames.
func (p *Predictor) selectSource(sys *vo.System, instanceID int, cur *vo.FrameRecord) (*CachedMask, *vo.FrameRecord) {
	byFrame := p.cache[instanceID]
	if len(byFrame) == 0 {
		return nil, nil
	}
	type candidate struct {
		cm    *CachedMask
		rec   *vo.FrameRecord
		angle float64
	}
	var best candidate
	better := func(a, b candidate) bool {
		// Edge masks beat transferred masks; then recency wins with the
		// view angle as tiebreak. Pose error accumulates with source age,
		// so a fresh mask from a slightly worse viewpoint transfers better
		// than an old one from the perfect viewpoint.
		if a.cm.FromEdge != b.cm.FromEdge {
			return a.cm.FromEdge
		}
		if a.cm.FrameIndex != b.cm.FrameIndex {
			return a.cm.FrameIndex > b.cm.FrameIndex
		}
		return a.angle < b.angle
	}
	for _, cm := range byFrame {
		rec := sys.FrameRecordAt(cm.FrameIndex)
		if rec == nil {
			continue
		}
		angle := cur.TCW.RotationAngle(rec.TCW)
		if angle > maxViewAngle {
			continue
		}
		cand := candidate{cm: cm, rec: rec, angle: angle}
		if best.cm == nil || better(cand, best) {
			best = cand
		}
	}
	return best.cm, best.rec
}

// depthFeat is an in-mask feature usable as a depth source for contour
// pixels.
type depthFeat struct {
	px    geom.Vec2
	depth float64
	edge  bool
}

// contourDepth averages the depths of the K nearest features to the contour
// pixel (Section III-C: "the actual positions in 3-D space corresponding to
// a small neighborhood of the object mask are not likely to experience shape
// changes in depth"). Edge-proximal features are preferred by shrinking
// their effective distance, since contour pixels are best explained by
// features near the boundary.
func (p *Predictor) contourDepth(s geom.Vec2, feats []depthFeat) (float64, bool) {
	k := p.cfg.K
	if len(feats) == 0 {
		return 0, false
	}
	if k > len(feats) {
		k = len(feats)
	}
	// Keep the k nearest so far, nearest first, by insertion. A feature
	// that ties a kept distance goes after it, so among equals the earlier
	// feature wins, as under a stable sort.
	type scored struct {
		dist  float64
		depth float64
	}
	var buf [16]scored
	best := buf[:0]
	if k > len(buf) {
		best = make([]scored, 0, k)
	}
	for _, f := range feats {
		d := f.px.DistTo(s)
		if f.edge {
			d *= 0.7
		}
		n := len(best)
		if n == k {
			if !(d < best[k-1].dist) {
				continue
			}
			n--
		} else {
			best = best[:n+1]
		}
		for n > 0 && best[n-1].dist > d {
			best[n] = best[n-1]
			n--
		}
		best[n] = scored{dist: d, depth: f.depth}
	}
	sum := 0.0
	for _, b := range best {
		sum += b.depth
	}
	return sum / float64(k), true
}

// observationIn returns the pixel and depth a map point was observed at in
// a specific frame.
func observationIn(mp *vo.MapPoint, frameIdx int) (geom.Vec2, float64, bool) {
	for i := len(mp.Observations) - 1; i >= 0; i-- {
		if mp.Observations[i].FrameIndex == frameIdx {
			return mp.Observations[i].Pixel, mp.Observations[i].Depth, true
		}
	}
	return geom.Vec2{}, 0, false
}

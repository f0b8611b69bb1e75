package segmodel

import (
	"math"
	"math/rand"
	"sort"

	"edgeis/internal/mask"
)

// ObjectTruth is the ground truth the simulator perturbs into model output.
// Evaluation code supplies it from the synthetic scene; the "model" never
// sees anything a real network could not infer from the image (its output
// is a noisy function of what is visible).
type ObjectTruth struct {
	ObjectID int
	Label    int
	Visible  *mask.Bitmask
	Box      mask.Box
}

// Input is one frame presented to a model.
type Input struct {
	Width, Height int
	Objects       []ObjectTruth
	// Quality maps a pixel to the local encode quality in (0,1]; nil means
	// lossless. Tile compression (CFRS) lowers it, degrading both mask
	// fidelity and detection probability.
	Quality func(x, y int) float64
	// Seed makes the stochastic parts reproducible per frame.
	Seed int64
}

// Proposal is a candidate RoI emitted by the first stage.
type Proposal struct {
	Box mask.Box
	// Score is the class/objectness confidence.
	Score float64
	// Label is the predicted class.
	Label int
	// ObjectIdx indexes Input.Objects, or -1 for a background false
	// positive.
	ObjectIdx int
	// AreaID is the instructed-area index assigned by dynamic anchor
	// placement, or -1 when the proposal came from an uninstructed region.
	AreaID int
}

// Guidance is what contour-instructed acceleration (package accel) injects
// into the two-stage pipeline. A nil Guidance runs the vanilla model.
type Guidance interface {
	// AnchorBudget returns how many anchors the RPN evaluates for this
	// image, instead of the full grid.
	AnchorBudget(width, height int) int
	// Classify assigns a proposal's area: the index of the instructed
	// area containing the box center and the area's expected label
	// (0 when the area has no prior), or (-1, 0) when uncovered.
	Classify(b mask.Box) (areaID int, label int)
	// SelectRoIs filters the proposal stream in place of the default NMS
	// (RoI pruning + Fast NMS in edgeIS).
	SelectRoIs(props []Proposal) []Proposal
	// CoversObjects reports whether proposals may be generated for an
	// object box at all; uninstructed objects are only found via
	// new-area boxes.
	CoversObjects(b mask.Box) bool
}

// Detection is one final instance detection.
type Detection struct {
	ObjectID int
	Label    int
	Score    float64
	Box      mask.Box
	// Mask is nil for box-only models.
	Mask *mask.Bitmask
	// TrueIoU is the achieved IoU against the ground-truth visible mask
	// (boxes for box-only models) — recorded for evaluation convenience.
	TrueIoU float64
}

// Result is a full inference output with the op counts and latency split the
// experiments report.
type Result struct {
	Detections []Detection

	AnchorsEvaluated int
	FullGridAnchors  int
	RoIsProposed     int
	RoIsProcessed    int

	// Latency split in simulated milliseconds on the reference device.
	// On warped (non-keyframe) runs BackboneMs holds the partial-backbone
	// warp cost instead of Profile.BackboneMs.
	BackboneMs  float64
	RPNMs       float64
	SelectionMs float64
	HeadMs      float64

	// Warped marks a non-keyframe run served from cached backbone
	// features; CacheAge and ChangedTiles record the keyframe decision it
	// was served under.
	Warped       bool
	CacheAge     int
	ChangedTiles int
}

// TotalMs returns the end-to-end inference latency.
func (r *Result) TotalMs() float64 {
	return r.BackboneMs + r.RPNMs + r.SelectionMs + r.HeadMs
}

// Model is a simulated network. It is not safe for concurrent use: Run
// reuses the model's per-frame scratch (the proposal stream, the NMS
// buffers, the per-object best-RoI index, the run RNG and the mask pool),
// so concurrent inference workers (the edge scheduler's accelerators) must
// each own a Clone. Only the returned Result escapes a run; outputs depend
// only on the input and profile, so clones are interchangeable.
type Model struct {
	Profile Profile
	// pool recycles the scratch masks of the BoundaryNoise error model so
	// repeated inference allocates only the emitted masks.
	pool *mask.Pool
	// rng is the per-frame generator, created on the first run and
	// reseeded by every later one.
	rng *rand.Rand
	// props is the proposal stream of the current run.
	props []Proposal
	// nms holds the default selection's sorted candidates and survivors.
	nms nms
	// best indexes, per input object, its highest-scoring kept RoI.
	best []int
}

// New builds a model with the default profile for the kind.
func New(kind Kind) *Model {
	return &Model{Profile: DefaultProfile(kind), pool: mask.NewPool()}
}

// Clone returns a model with the same profile and its own scratch.
func (m *Model) Clone() *Model {
	return &Model{Profile: m.Profile, pool: mask.NewPool()}
}

// Run performs simulated inference. Guidance applies only to two-stage
// models (Mask R-CNN); one-stage models ignore it, matching the paper's
// observation that end-to-end models are "hard to decompose, leaving little
// room for improvement".
func (m *Model) Run(in Input, g Guidance) *Result {
	rng := m.runRand(in.Seed)
	if m.Profile.RoIMs > 0 {
		return m.runTwoStage(in, g, rng, nil)
	}
	return m.runOneStage(in, rng, nil)
}

// runRand returns the per-frame RNG seeded with seed. Both Run and
// RunWarped seed it identically, so the two paths draw the same random
// stream and differ only in cost accounting and the IoU scale. Reseeding
// resets the generator completely, so the stream equals that of
// rand.New(rand.NewSource(seed)) whatever earlier runs drew.
func (m *Model) runRand(seed int64) *rand.Rand {
	if m.rng == nil {
		m.rng = rand.New(rand.NewSource(seed))
	} else {
		m.rng.Seed(seed)
	}
	return m.rng
}

// runTwoStage simulates the RPN + RoI-head pipeline. A non-nil warpSpec
// switches the backbone charge to the skip-compute cost and applies its IoU
// scale to emitted detections; it must not change any RNG draw.
func (m *Model) runTwoStage(in Input, g Guidance, rng *rand.Rand, w *warpSpec) *Result {
	p := m.Profile
	res := &Result{FullGridAnchors: FullGridAnchors(in.Width, in.Height)}

	// --- Stage 1: anchors and proposals.
	if g != nil {
		res.AnchorsEvaluated = g.AnchorBudget(in.Width, in.Height)
		if res.AnchorsEvaluated > res.FullGridAnchors {
			res.AnchorsEvaluated = res.FullGridAnchors
		}
	} else {
		res.AnchorsEvaluated = res.FullGridAnchors
	}

	props := m.generateProposals(in, g, res.AnchorsEvaluated, rng)
	res.RoIsProposed = len(props)

	// --- Selection: guidance (RoI pruning + Fast NMS) or plain NMS.
	var kept []Proposal
	if g != nil {
		kept = g.SelectRoIs(props)
	} else {
		kept = m.nms.run(props, 0.7, p.MaxRoIs)
	}
	if len(kept) > p.MaxRoIs {
		kept = kept[:p.MaxRoIs]
	}
	res.RoIsProcessed = len(kept)

	// --- Stage 2: one detection per distinct object among the kept RoIs.
	res.Detections = m.emitDetections(in, kept, rng, warpIoUScale(w))

	// --- Latency from op counts.
	anchorFrac := float64(res.AnchorsEvaluated) / float64(res.FullGridAnchors)
	res.BackboneMs = p.BackboneMs
	res.RPNMs = p.RPNFixedMs + p.RPNAnchorMs*anchorFrac
	res.SelectionMs = 0.002 * float64(res.RoIsProposed)
	res.HeadMs = p.RoIMs * float64(res.RoIsProcessed)
	applyWarp(res, w)
	return res
}

// warpIoUScale returns the detection-quality scale of a warp spec (1 on the
// vanilla path).
func warpIoUScale(w *warpSpec) float64 {
	if w == nil {
		return 1
	}
	return w.iouScale
}

// applyWarp overwrites the backbone charge with the skip-compute cost and
// records the warp provenance on the result.
func applyWarp(res *Result, w *warpSpec) {
	if w == nil {
		return
	}
	res.BackboneMs = w.backboneMs
	res.Warped = true
	res.CacheAge = w.age
	res.ChangedTiles = w.changed
}

// runOneStage simulates YOLACT/YOLOv3-style dense prediction.
func (m *Model) runOneStage(in Input, rng *rand.Rand, w *warpSpec) *Result {
	p := m.Profile
	res := &Result{
		FullGridAnchors:  FullGridAnchors(in.Width, in.Height),
		AnchorsEvaluated: FullGridAnchors(in.Width, in.Height),
	}
	props := m.generateProposals(in, nil, res.AnchorsEvaluated, rng)
	res.RoIsProposed = len(props)
	kept := m.nms.run(props, 0.7, 100)
	res.RoIsProcessed = len(kept)
	res.Detections = m.emitDetections(in, kept, rng, warpIoUScale(w))
	res.BackboneMs = p.BackboneMs
	res.HeadMs = p.HeadFixedMs
	res.SelectionMs = 0.002 * float64(res.RoIsProposed)
	applyWarp(res, w)
	return res
}

// objectQuality samples the encode quality over an object's box.
func objectQuality(in Input, b mask.Box) float64 {
	if in.Quality == nil {
		return 1
	}
	c := b.Center()
	q := in.Quality(int(c.X), int(c.Y))
	q += in.Quality(b.MinX, b.MinY)
	q += in.Quality(b.MaxX-1, b.MaxY-1)
	q /= 3
	if q <= 0 {
		return 0.05
	}
	if q > 1 {
		return 1
	}
	return q
}

// generateProposals emits jittered object proposals plus background false
// positives proportional to the anchors evaluated, into the model's
// proposal scratch (valid until the next run).
func (m *Model) generateProposals(in Input, g Guidance, anchors int, rng *rand.Rand) []Proposal {
	props := m.props[:0]
	for idx, obj := range in.Objects {
		if obj.Box.Empty() {
			continue
		}
		if g != nil && !g.CoversObjects(obj.Box) {
			// The instructed RPN never looked here; the object can only
			// be recovered by a later new-area offload.
			continue
		}
		q := objectQuality(in, obj.Box)
		n := 6 + obj.Box.Area()/1200
		if n > 18 {
			n = 18
		}
		// Anchor shapes at several scales survive NMS as distinct
		// candidates, the way a real multi-scale RPN's output does.
		scales := [5]float64{1.0, 0.7, 1.3, 0.85, 1.15}
		for i := 0; i < n; i++ {
			jb := jitterBox(scaleBox(obj.Box, scales[i%len(scales)], in.Width, in.Height),
				0.10, in.Width, in.Height, rng)
			score := clamp01(0.72 + 0.18*q + rng.NormFloat64()*0.08 - 0.05*float64(i)/float64(n))
			label := obj.Label
			if rng.Float64() < 0.03*(1.1-q) {
				label = 1 + rng.Intn(12) // class confusion under low quality
			}
			areaID := -1
			areaLabel := 0
			if g != nil {
				areaID, areaLabel = g.Classify(jb)
				_ = areaLabel
			}
			props = append(props, Proposal{
				Box: jb, Score: score, Label: label, ObjectIdx: idx, AreaID: areaID,
			})
		}
	}
	// Background false positives scale with the anchor surface examined.
	// An instructed anchor set concentrates on object-rich texture where
	// objectness fires constantly, so its per-anchor FP rate is higher
	// (fpFocus); a real RPN's dense low-score output is what fills the
	// second stage's RoI budget on vanilla runs.
	const fpFocus = 3.2
	// FP volume follows the FRACTION of the grid examined (the cost model
	// is resolution-normalized), against a budget calibrated so a vanilla
	// run fills the second stage's RoI budget.
	const fpBudget = 130.0
	frac := float64(anchors) / float64(FullGridAnchors(in.Width, in.Height))
	focus := 1.0
	if g != nil {
		focus = fpFocus
	}
	nFP := int(frac * fpBudget * focus)
	attempts := 0
	for emitted := 0; emitted < nFP && attempts < 12*nFP; attempts++ {
		w := 20 + rng.Intn(60)
		h := 20 + rng.Intn(60)
		x := rng.Intn(maxInt(1, in.Width-w))
		y := rng.Intn(maxInt(1, in.Height-h))
		b := mask.Box{MinX: x, MinY: y, MaxX: x + w, MaxY: y + h}
		areaID := -1
		if g != nil {
			areaID, _ = g.Classify(b)
			if areaID == -1 {
				// Anchors exist only inside instructed areas; rejection
				// sampling keeps FP boxes where the RPN actually looked.
				continue
			}
		}
		props = append(props, Proposal{
			Box: b, Score: 0.3 + rng.Float64()*0.35,
			Label: 1 + rng.Intn(12), ObjectIdx: -1, AreaID: areaID,
		})
		emitted++
	}
	m.props = props
	return props
}

// emitDetections converts surviving RoIs into at most one detection per
// ground-truth object, applying the miss and mask-quality models. iouScale
// degrades detection quality on warped (non-keyframe) runs; 1 is the
// vanilla path and must be a perfect identity — same RNG draws, same
// output.
func (m *Model) emitDetections(in Input, kept []Proposal, rng *rand.Rand, iouScale float64) []Detection {
	p := m.Profile
	best := m.best[:0]
	for range in.Objects {
		best = append(best, -1)
	}
	m.best = best
	found := 0
	for i, pr := range kept {
		if pr.ObjectIdx < 0 || pr.ObjectIdx >= len(best) {
			continue
		}
		switch b := best[pr.ObjectIdx]; {
		case b < 0:
			found++
			best[pr.ObjectIdx] = i
		case pr.Score > kept[b].Score:
			best[pr.ObjectIdx] = i
		}
	}
	out := make([]Detection, 0, found)
	for idx, obj := range in.Objects {
		if best[idx] < 0 {
			continue // no surviving RoI: missed
		}
		pr := kept[best[idx]]
		q := objectQuality(in, obj.Box)
		area := float64(obj.Visible.Area())
		pMiss := p.BaseMissRate + math.Exp(-area*q/p.MissScale)
		if rng.Float64() < pMiss {
			continue
		}
		targetIoU := p.BaseMaskIoU * (0.72 + 0.28*q) * iouScale
		det := Detection{
			ObjectID: obj.ObjectID,
			Label:    pr.Label,
			Score:    pr.Score,
			Box:      pr.Box,
		}
		if p.BoxOnly {
			// Box-only models regress the final box directly; their output
			// quality is BoxJitter, not the proposal jitter. The warp
			// penalty widens the jitter instead of lowering a mask target
			// (2 - iouScale is 1 at scale 1, growing as quality drops).
			det.Box = jitterBox(obj.Box, p.BoxJitter*(2-iouScale), in.Width, in.Height, rng)
			det.TrueIoU = det.Box.IoU(obj.Box)
		} else {
			det.Mask = obj.Visible.BoundaryNoisePooled(targetIoU, rng.Float64, m.pool)
			det.Box = det.Mask.BoundingBox()
			det.TrueIoU = mask.IoU(det.Mask, obj.Visible)
		}
		out = append(out, det)
	}
	// Insertion sort by ObjectID: a handful of detections, already nearly
	// in order, and the same order sort.Slice gives unique IDs.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ObjectID < out[j-1].ObjectID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// DefaultNMS is the vanilla greedy non-maximum suppression the unmodified
// model uses: sort by score, drop boxes overlapping a kept box above the
// IoU threshold, cap at maxKeep. The result is a fresh slice.
func DefaultNMS(props []Proposal, iouThresh float64, maxKeep int) []Proposal {
	var n nms
	return n.run(props, iouThresh, maxKeep)
}

// nms is DefaultNMS with reusable storage: the score-ordered candidates,
// the survivors and the survivors' box areas.
type nms struct {
	sorted byScore
	kept   []Proposal
	areas  []int
}

// byScore orders proposals by descending score. sort.Sort on a pointer to
// it runs the same pdqsort as sort.Slice with the same less function, so
// exact score ties keep the order they always had.
type byScore []Proposal

func (s *byScore) Len() int           { return len(*s) }
func (s *byScore) Less(i, j int) bool { return (*s)[i].Score > (*s)[j].Score }
func (s *byScore) Swap(i, j int)      { (*s)[i], (*s)[j] = (*s)[j], (*s)[i] }

// run returns the survivors of greedy NMS over props, in score order. The
// slice is n's storage, valid until the next run.
func (n *nms) run(props []Proposal, iouThresh float64, maxKeep int) []Proposal {
	n.sorted = append(n.sorted[:0], props...)
	sort.Sort(&n.sorted)
	n.kept, n.areas = n.kept[:0], n.areas[:0]
	for _, p := range n.sorted {
		area := p.Box.Area()
		if n.suppressed(p.Box, area, iouThresh) {
			continue
		}
		n.kept = append(n.kept, p)
		n.areas = append(n.areas, area)
		if len(n.kept) >= maxKeep {
			break
		}
	}
	return n.kept
}

// suppressed reports whether b, of the given area, overlaps a kept box by
// an IoU above iouThresh. Disjoint pairs have IoU 0 and skip the division;
// overlapping pairs evaluate exactly mask.Box.IoU's expression.
func (n *nms) suppressed(b mask.Box, area int, iouThresh float64) bool {
	for i := range n.kept {
		k := &n.kept[i].Box
		w := min(b.MaxX, k.MaxX) - max(b.MinX, k.MinX)
		h := min(b.MaxY, k.MaxY) - max(b.MinY, k.MinY)
		iou := 0.0
		if w > 0 && h > 0 {
			inter := w * h
			if union := area + n.areas[i] - inter; union > 0 {
				iou = float64(inter) / float64(union)
			}
		}
		if iou > iouThresh {
			return true
		}
	}
	return false
}

// scaleBox scales a box about its center, clipped to the image.
func scaleBox(b mask.Box, s float64, w, h int) mask.Box {
	if s == 1 {
		return b
	}
	c := b.Center()
	hw := float64(b.Width()) * s / 2
	hh := float64(b.Height()) * s / 2
	out := mask.Box{
		MinX: int(c.X - hw), MinY: int(c.Y - hh),
		MaxX: int(c.X + hw), MaxY: int(c.Y + hh),
	}
	if out.MinX < 0 {
		out.MinX = 0
	}
	if out.MinY < 0 {
		out.MinY = 0
	}
	if out.MaxX > w {
		out.MaxX = w
	}
	if out.MaxY > h {
		out.MaxY = h
	}
	if out.Empty() {
		return b
	}
	return out
}

// jitterBox perturbs a box's corners by up to frac of its dimensions.
func jitterBox(b mask.Box, frac float64, w, h int, rng *rand.Rand) mask.Box {
	dx := float64(b.Width()) * frac
	dy := float64(b.Height()) * frac
	out := mask.Box{
		MinX: b.MinX + int(rng.NormFloat64()*dx/2),
		MinY: b.MinY + int(rng.NormFloat64()*dy/2),
		MaxX: b.MaxX + int(rng.NormFloat64()*dx/2),
		MaxY: b.MaxY + int(rng.NormFloat64()*dy/2),
	}
	if out.MinX < 0 {
		out.MinX = 0
	}
	if out.MinY < 0 {
		out.MinY = 0
	}
	if out.MaxX > w {
		out.MaxX = w
	}
	if out.MaxY > h {
		out.MaxY = h
	}
	if out.Empty() {
		return b
	}
	return out
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

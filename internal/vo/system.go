package vo

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

	"edgeis/internal/geom"
	"edgeis/internal/mask"
)

// Keypoint is the VO's view of a detected feature: pixel, identity and a
// blur score. The mobile module converts extractor output into Keypoints,
// keeping this package independent of the synthetic scene substrate.
type Keypoint struct {
	Pixel      geom.Vec2
	Descriptor uint64
	Sharpness  float64
}

// LabeledMask is an instance mask with a class label, as returned by the
// edge server's segmentation model.
type LabeledMask struct {
	Label int // class ID, > 0
	Mask  *mask.Bitmask
}

// Status reports what the system needs next.
type Status int

// System statuses.
const (
	// StatusCollecting: initialization is gathering frames.
	StatusCollecting Status = iota + 1
	// StatusInitPairReady: two frames with enough parallax are staged;
	// obtain masks for both and call CompleteInitialization.
	StatusInitPairReady
	// StatusTracking: pose tracking succeeded for this frame.
	StatusTracking
	// StatusRelocalizing: tracking failed; the system is trying to
	// re-match the existing map before giving up on it.
	StatusRelocalizing
	// StatusLost: relocalization failed; call Reset to reinitialize.
	StatusLost
)

// String renders the status for logs.
func (s Status) String() string {
	switch s {
	case StatusCollecting:
		return "collecting"
	case StatusInitPairReady:
		return "init-pair-ready"
	case StatusTracking:
		return "tracking"
	case StatusRelocalizing:
		return "relocalizing"
	case StatusLost:
		return "lost"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// Config configures the VO system: the camera it tracks with and the seed
// of its random draws.
type Config struct {
	Camera geom.Camera
	Seed   int64
}

// VO tuning constants.
const (
	// minInitParallax is the pixel displacement an initialization match
	// needs to count toward the parallax check.
	minInitParallax = 8
	// minInitMatches is the minimum descriptor matches between the
	// initialization pair.
	minInitMatches = 40
	// ransacIters and ransacThreshold (px) tune fundamental estimation.
	ransacIters     = 64
	ransacThreshold = 2
	// minSharpness is the blurriness-check threshold of the feature
	// selection.
	minSharpness = 0.2
	// minBGSpacing is the minimum pixel distance between selected
	// background features.
	minBGSpacing = 3
	// contourBand is the distance (px) from a mask boundary within which
	// features count as contour features and skip the blurriness check.
	contourBand = 3
	// movingWindow is the frame span over which static-hypothesis
	// violations must persist before an instance is flagged as moving
	// ("pose changes significantly over a period", Section V).
	movingWindow = 20
	// maxFrameRecords bounds the per-frame history ring.
	maxFrameRecords = 150
	// relocalizeFrames is how many frames the system attempts to re-match
	// the existing map after a tracking failure before declaring the
	// session lost.
	relocalizeFrames = 20
)

// mapCleanup bounds map growth: points unseen for 120 frames go, and the
// map never holds more than 6000.
var mapCleanup = CleanupPolicy{MaxAge: 120, MaxPoints: 6000}

// FrameRecord stores per-frame tracking output, the geometry source for
// mask transfer.
type FrameRecord struct {
	Index     int
	Keypoints []Keypoint
	// PointIDs holds the matched map-point ID per keypoint (0 = none).
	PointIDs []int
	// TCW is the world-to-camera pose of the frame.
	TCW geom.Pose
	// ObjectPoses holds object-to-camera poses (T_CO) per instance.
	ObjectPoses map[int]geom.Pose
	// Annotated marks frames whose edge masks labeled the map.
	Annotated bool
}

// InstanceTrack is the per-object tracking state of Section III-B.
type InstanceTrack struct {
	ID    int
	Label int
	// TCO is the latest object-to-camera pose.
	TCO geom.Pose
	// TWO is the latest object-to-world pose; identity while static.
	TWO geom.Pose
	// Moving reports whether the object's image-space behaviour is
	// inconsistent with the static-world hypothesis (Eq. 6).
	Moving        bool
	LastSeen      int
	LastPoseValid bool
	// MeanDepth is the mean camera-frame depth of the instance's points at
	// the last solve.
	MeanDepth float64
	// StaticRMSE and FitRMSE are the reprojection errors of the instance's
	// observations under the camera pose (static hypothesis) and under the
	// fitted object pose, in pixels.
	StaticRMSE, FitRMSE float64
	// MissedAnnotations counts consecutive edge annotations that saw the
	// instance's area but produced no confirming mask; phantom instances
	// (born from label-confused detections) retire on this counter.
	MissedAnnotations int

	movingVotes int         // hysteresis counter for the Moving flag
	twoHistory  []geom.Vec3 // recent TWO translations (for un-flagging)
}

// System is the complete VO pipeline.
type System struct {
	cfg   Config
	world *Map
	state Status
	rng   *rand.Rand

	ref     *FrameRecord // initialization reference frame
	pending *pendingInit

	frames     map[int]*FrameRecord
	frameOrder []int
	cur        *FrameRecord

	instances    map[int]*InstanceTrack
	nextInstance int

	relocStart int // frame index when relocalization began

	unlabeledFrac float64
	// posSnapshots is a ring of per-frame {point ID -> position} maps used
	// to measure structure drift over the moving-detection window.
	posSnapshots []map[int]geom.Vec3

	ba baArena
	tr trackScratch
}

// baArena is localBundleAdjustment's scratch, reused from call to call so
// that a sweep allocates nothing once the window has been seen.
type baArena struct {
	recs  []*FrameRecord // window frames, oldest first
	views []View         // one per window frame, rebuilt each sweep
	// slotOf maps a point ID to its slot; slots are in first-seen order.
	slotOf map[int]int
	slots  []baSlot
	obs    []Observation // one window frame's resection observations
}

// trackScratch is track's per-frame scratch, reused from frame to frame.
// The per-instance maps keep their keys: a frame truncates every slice and
// then fills those of the instances it observes, so a key whose slice is
// empty belongs to an instance seen in an earlier frame only.
type trackScratch struct {
	matchedPts []*MapPoint // per keypoint: its matched map point, or nil
	bgObs      []Observation
	camObs     []Observation
	instObs    map[int][]Observation
	instOrder  []int // instance IDs observed this frame, sorted
	instKp     map[int][]geom.Vec2
	instIDs    map[int][]int
	bgIDs      []int
	bgPix      []geom.Vec2
	aged       []Observation // one set of observations against aged structure
	suspects   map[int]bool
	ds         []float64 // medianResidual's distances
}

// baSlot holds one point's observations in the window.
type baSlot struct {
	pid int
	obs []ViewPixel
}

// newSlot appends an empty slot for pid, reusing the storage the slot at
// that position held in an earlier sweep.
func (a *baArena) newSlot(pid int) int {
	n := len(a.slots)
	if n < cap(a.slots) {
		a.slots = a.slots[:n+1]
	} else {
		a.slots = append(a.slots, baSlot{})
	}
	a.slots[n].pid = pid
	a.slots[n].obs = a.slots[n].obs[:0]
	a.slotOf[pid] = n
	return n
}

type pendingInit struct {
	ref, cur *FrameRecord
	matches  [][2]int // keypoint index pairs (ref, cur)
}

// NewSystem builds a VO system.
func NewSystem(cfg Config) *System {
	return &System{
		cfg:          cfg,
		world:        NewMap(),
		state:        StatusCollecting,
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		frames:       make(map[int]*FrameRecord),
		instances:    make(map[int]*InstanceTrack),
		nextInstance: 1,
		ba:           baArena{slotOf: make(map[int]int)},
		tr: trackScratch{
			instObs:  make(map[int][]Observation),
			instKp:   make(map[int][]geom.Vec2),
			instIDs:  make(map[int][]int),
			suspects: make(map[int]bool),
		},
	}
}

// State returns the current status.
func (s *System) State() Status { return s.state }

// Map exposes the labeled point map (read-mostly; used by transfer).
func (s *System) Map() *Map { return s.world }

// CurrentPose returns the latest world-to-camera pose.
func (s *System) CurrentPose() geom.Pose {
	if s.cur == nil {
		return geom.IdentityPose()
	}
	return s.cur.TCW
}

// UnlabeledFraction returns, for the last processed frame, the fraction of
// features that matched no labeled map point — the CFRS trigger input.
func (s *System) UnlabeledFraction() float64 { return s.unlabeledFrac }

// Instances returns the tracked instances sorted by ID.
func (s *System) Instances() []*InstanceTrack {
	out := make([]*InstanceTrack, 0, len(s.instances))
	for _, t := range s.instances {
		out = append(out, t)
	}
	slices.SortFunc(out, func(a, b *InstanceTrack) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// Instance returns one tracked instance, or nil.
func (s *System) Instance(id int) *InstanceTrack { return s.instances[id] }

// FrameRecordAt returns the record of a processed frame, or nil.
func (s *System) FrameRecordAt(idx int) *FrameRecord { return s.frames[idx] }

// PendingInitPair returns the frame indices staged for initialization while
// the state is StatusInitPairReady.
func (s *System) PendingInitPair() (refIdx, curIdx int, ok bool) {
	if s.pending == nil {
		return 0, 0, false
	}
	return s.pending.ref.Index, s.pending.cur.Index, true
}

// Reset clears all state back to initialization.
func (s *System) Reset() {
	s.world = NewMap()
	s.state = StatusCollecting
	s.ref = nil
	s.pending = nil
	s.frames = make(map[int]*FrameRecord)
	s.frameOrder = nil
	s.cur = nil
	s.instances = make(map[int]*InstanceTrack)
	s.nextInstance = 1
	s.unlabeledFrac = 0
}

// ProcessFrame ingests one frame of keypoints and advances the state
// machine. During initialization it stages frame pairs; afterwards it
// tracks the pose (Eq. 4) and per-object poses (Eq. 6-7).
func (s *System) ProcessFrame(idx int, kps []Keypoint) Status {
	switch s.state {
	case StatusCollecting, StatusInitPairReady:
		return s.processInitFrame(idx, kps)
	case StatusTracking:
		return s.track(idx, kps)
	case StatusRelocalizing:
		return s.relocalize(idx, kps)
	default: // StatusLost
		return s.state
	}
}

// relocalize tries to re-acquire the pose against the retained map: match
// descriptors, solve from scratch seeded by the last known pose. Success
// returns straight to tracking with the whole map intact (ORB-SLAM's
// relocalization, minus the bag-of-words lookup our exact descriptors make
// unnecessary). After relocalizeFrames of failure the session is lost.
func (s *System) relocalize(idx int, kps []Keypoint) Status {
	if idx-s.relocStart > relocalizeFrames {
		s.state = StatusLost
		return s.state
	}
	obs := make([]Observation, 0, len(kps))
	for i := range kps {
		mp := s.world.ByDescriptor(kps[i].Descriptor)
		if mp == nil || mp.InstanceID != 0 {
			continue
		}
		obs = append(obs, Observation{Point: mp.Pos, Pixel: kps[i].Pixel})
	}
	if len(obs) < 12 {
		return s.state
	}
	res, err := OptimizePose(s.cfg.Camera, obs, s.CurrentPose(), 15)
	if err != nil || res.RMSE > 4 || res.Inliers < 10 {
		return s.state
	}
	// Re-anchor the current pose and resume tracking on this frame.
	if s.cur != nil {
		s.cur.TCW = res.Pose
	}
	s.state = StatusTracking
	return s.track(idx, kps)
}

func newRecord(idx int, kps []Keypoint) *FrameRecord {
	return &FrameRecord{
		Index:       idx,
		Keypoints:   kps,
		PointIDs:    make([]int, len(kps)),
		ObjectPoses: make(map[int]geom.Pose),
	}
}

// processInitFrame implements the initializer's frame-pair search: keep a
// reference frame and wait for a frame with enough matches and parallax.
// Once a pair is staged it stays staged (the mobile is waiting for edge
// masks for those exact frames); new frames are ignored until
// CompleteInitialization resolves or fails.
func (s *System) processInitFrame(idx int, kps []Keypoint) Status {
	if s.pending != nil {
		return StatusInitPairReady
	}
	rec := newRecord(idx, kps)
	if s.ref == nil || len(s.ref.Keypoints) < minInitMatches {
		s.ref = rec
		s.state = StatusCollecting
		return s.state
	}
	matches := matchKeypoints(s.ref.Keypoints, kps)
	if len(matches) < minInitMatches {
		// Scene changed too much; restart from this frame.
		s.ref = rec
		s.pending = nil
		s.state = StatusCollecting
		return s.state
	}
	corr := make([]Correspondence, len(matches))
	for i, m := range matches {
		corr[i] = Correspondence{P0: s.ref.Keypoints[m[0]].Pixel, P1: kps[m[1]].Pixel}
	}
	// "Enough parallax": require a solid set of matches whose displacement
	// supports stable triangulation, rather than a mean/median that distant
	// background dilutes.
	highParallax := 0
	for _, c := range corr {
		if c.P0.DistTo(c.P1) >= minInitParallax {
			highParallax++
		}
	}
	if highParallax < 30 {
		s.pending = nil
		s.state = StatusCollecting
		return s.state
	}
	s.pending = &pendingInit{ref: s.ref, cur: rec, matches: matches}
	s.state = StatusInitPairReady
	return s.state
}

// validateRelativePose checks that a candidate two-view pose triangulates
// at least 75% of the (parallax-bearing) correspondences in front of both
// cameras.
func validateRelativePose(cam geom.Camera, rel geom.Pose, corr []Correspondence) bool {
	voted, good := 0, 0
	for _, c := range corr {
		if c.P0.DistTo(c.P1) < 2 {
			continue
		}
		voted++
		p, err := TriangulatePoint(cam, geom.IdentityPose(), rel, c.P0, c.P1)
		if err != nil {
			continue
		}
		if p.Z > 0 && rel.Apply(p).Z > 0 {
			good++
		}
	}
	return voted >= 8 && float64(good) >= 0.75*float64(voted)
}

// matchKeypoints pairs keypoints by descriptor identity.
func matchKeypoints(a, b []Keypoint) [][2]int {
	byDesc := make(map[uint64]int, len(a))
	for i := range a {
		byDesc[a[i].Descriptor] = i
	}
	out := make([][2]int, 0, len(b))
	for j := range b {
		if i, ok := byDesc[b[j].Descriptor]; ok {
			out = append(out, [2]int{i, j})
		}
	}
	return out
}

// maskIndexAt returns the index of the smallest mask containing the pixel,
// or -1. Smallest-first resolves overlaps from boundary noise: a small
// object in front of a large one claims its own pixels even when the large
// mask spills over it.
func maskIndexAt(masks []LabeledMask, px geom.Vec2) int {
	x, y := int(px.X), int(px.Y)
	best, bestArea := -1, 1<<62
	for i, lm := range masks {
		if !lm.Mask.At(x, y) {
			continue
		}
		if a := lm.Mask.Area(); a < bestArea {
			best, bestArea = i, a
		}
	}
	return best
}

// contourBands precomputes, for each mask, the band of pixels within
// contourBand of the boundary.
func (s *System) contourBands(masks []LabeledMask) []*mask.Bitmask {
	bands := make([]*mask.Bitmask, len(masks))
	for i, lm := range masks {
		inner := lm.Mask.Erode(contourBand)
		band := lm.Mask.Clone()
		band.Subtract(inner)
		bands[i] = band
	}
	return bands
}

// CompleteInitialization consumes edge-provided masks for the staged frame
// pair and builds the initial labeled map (Section III-A): feature
// selection, background-first fundamental estimation (Eq. 1-2),
// triangulation (Eq. 3) and point annotation.
func (s *System) CompleteInitialization(masksRef, masksCur []LabeledMask) error {
	if s.pending == nil {
		return fmt.Errorf("vo: no staged initialization pair")
	}
	p := s.pending
	bandsRef := s.contourBands(masksRef)
	bandsCur := s.contourBands(masksCur)

	type selMatch struct {
		refIdx, curIdx   int
		maskRef, maskCur int // containing mask index or -1
	}
	var selected []selMatch
	var bgCorr []Correspondence
	var bgPixels []geom.Vec2

	for _, m := range p.matches {
		rk := p.ref.Keypoints[m[0]]
		ck := p.cur.Keypoints[m[1]]
		mi := maskIndexAt(masksRef, rk.Pixel)
		mj := maskIndexAt(masksCur, ck.Pixel)

		if mi == -1 && mj == -1 {
			// Background feature: blurriness check, then spacing check.
			if rk.Sharpness < minSharpness || ck.Sharpness < minSharpness {
				continue
			}
			tooClose := false
			for _, q := range bgPixels {
				if q.DistTo(rk.Pixel) < minBGSpacing {
					tooClose = true
					break
				}
			}
			if tooClose {
				continue
			}
			bgPixels = append(bgPixels, rk.Pixel)
			selected = append(selected, selMatch{m[0], m[1], -1, -1})
			bgCorr = append(bgCorr, Correspondence{P0: rk.Pixel, P1: ck.Pixel})
			continue
		}
		if mi >= 0 && mj >= 0 && masksRef[mi].Label == masksCur[mj].Label {
			// Object feature: contour features always kept, interior ones
			// pass the blurriness check (Section III-A).
			onContour := bandsRef[mi].At(int(rk.Pixel.X), int(rk.Pixel.Y)) ||
				bandsCur[mj].At(int(ck.Pixel.X), int(ck.Pixel.Y))
			if !onContour && (rk.Sharpness < minSharpness || ck.Sharpness < minSharpness) {
				continue
			}
			selected = append(selected, selMatch{m[0], m[1], mi, mj})
		}
		// Mixed membership: unstable feature (object boundary flicker or a
		// moving object against background); drop it.
	}

	// Background-first fundamental estimation (Section III-A: "first uses
	// all pairs of p0 and p1 since the pixels of background are more likely
	// to be static"), widening to all selected matches when the
	// background-only solution is weak — background alone can be
	// near-planar (ground + walls) and condition the epipolar geometry
	// poorly.
	allCorr := make([]Correspondence, 0, len(selected))
	for _, sm := range selected {
		allCorr = append(allCorr, Correspondence{
			P0: p.ref.Keypoints[sm.refIdx].Pixel,
			P1: p.cur.Keypoints[sm.curIdx].Pixel,
		})
	}
	attempts := [][]Correspondence{bgCorr, allCorr}
	if len(bgCorr) < 16 {
		attempts = attempts[1:]
	}
	var rel geom.Pose
	var initErr error
	solved := false
	for _, corr := range attempts {
		f, inliers, err := EstimateFundamental(corr, ransacThreshold, ransacIters, s.rng)
		if err != nil {
			initErr = err
			continue
		}
		inl := make([]Correspondence, 0, len(corr))
		for i, ok := range inliers {
			if ok {
				inl = append(inl, corr[i])
			}
		}
		rel, err = RecoverPose(f, s.cfg.Camera, inl)
		if err != nil {
			initErr = err
			continue
		}
		// Validate against ALL selected matches, not just the estimation
		// set: a dominant plane (the ground) yields a family of fundamental
		// matrices that explain planar points perfectly yet put off-plane
		// points behind the cameras. Requiring the full set to triangulate
		// in front rejects those spurious solutions.
		if !validateRelativePose(s.cfg.Camera, rel, allCorr) {
			initErr = ErrDegenerate
			continue
		}
		solved = true
		break
	}
	if !solved {
		s.pending = nil
		s.state = StatusCollecting
		return fmt.Errorf("vo: init two-view geometry: %w", initErr)
	}

	p.ref.TCW = geom.IdentityPose()
	p.cur.TCW = rel

	// Instance bookkeeping: one instance per (refMask, curMask, label)
	// pairing that accumulates at least minObservationsForPose points.
	type instKey struct{ mi, mj int }
	instPoints := make(map[instKey][]int) // staged point IDs

	for _, sm := range selected {
		rk := p.ref.Keypoints[sm.refIdx]
		ck := p.cur.Keypoints[sm.curIdx]
		pos, err := TriangulatePoint(s.cfg.Camera, p.ref.TCW, p.cur.TCW, rk.Pixel, ck.Pixel)
		if err != nil {
			continue
		}
		if d := p.cur.TCW.Apply(pos).Z; d <= 0.05 || d > 1e4 {
			continue
		}
		label := LabelBackground
		if sm.maskRef >= 0 {
			label = masksRef[sm.maskRef].Label
		}
		mp := s.world.Add(pos, rk.Descriptor, label, 0, p.cur.Index)
		mp.AnchorPixel = rk.Pixel
		mp.AnchorPose = p.ref.TCW
		mp.Observations = append(mp.Observations,
			ObsRecord{FrameIndex: p.ref.Index, Pixel: rk.Pixel, Depth: p.ref.TCW.Apply(pos).Z},
			ObsRecord{FrameIndex: p.cur.Index, Pixel: ck.Pixel, Depth: p.cur.TCW.Apply(pos).Z},
		)
		if sm.maskRef >= 0 {
			mp.NearContour = bandsRef[sm.maskRef].At(int(rk.Pixel.X), int(rk.Pixel.Y))
			k := instKey{sm.maskRef, sm.maskCur}
			instPoints[k] = append(instPoints[k], mp.ID)
		}
		p.ref.PointIDs[sm.refIdx] = mp.ID
		p.cur.PointIDs[sm.curIdx] = mp.ID
	}

	// Deterministic (mask-pair) order: instance IDs are assigned inside the
	// loop, so map-iteration order would permute them between runs.
	instKeys := make([]instKey, 0, len(instPoints))
	for k := range instPoints {
		instKeys = append(instKeys, k)
	}
	sort.Slice(instKeys, func(i, j int) bool {
		if instKeys[i].mi != instKeys[j].mi {
			return instKeys[i].mi < instKeys[j].mi
		}
		return instKeys[i].mj < instKeys[j].mj
	})
	for _, k := range instKeys {
		ids := instPoints[k]
		if len(ids) < minObservationsForPose {
			// Too small/far for estimation (Section III-B); leave points
			// labeled but instance-less.
			continue
		}
		inst := &InstanceTrack{
			ID:    s.nextInstance,
			Label: masksRef[k.mi].Label,
			TCO:   p.cur.TCW,
			TWO:   geom.IdentityPose(),
		}
		s.nextInstance++
		s.instances[inst.ID] = inst
		for _, id := range ids {
			s.world.ByID(id).InstanceID = inst.ID
		}
		p.ref.ObjectPoses[inst.ID] = p.ref.TCW
		p.cur.ObjectPoses[inst.ID] = p.cur.TCW
		inst.LastSeen = p.cur.Index
		inst.LastPoseValid = true
	}

	p.ref.Annotated = true
	p.cur.Annotated = true
	s.storeFrame(p.ref)
	s.storeFrame(p.cur)
	s.cur = p.cur
	s.pending = nil
	s.ref = nil
	s.state = StatusTracking
	return nil
}

// track runs per-frame pose and object tracking (Section III-B).
func (s *System) track(idx int, kps []Keypoint) Status {
	rec := newRecord(idx, kps)

	// Match keypoints to map points by descriptor. The device-pose solve
	// uses background points (Section III-B) plus the points of instances
	// not currently flagged as moving — static objects are world structure,
	// and including them both conditions the solve and couples the camera
	// frame to the object structure so the two cannot drift apart.
	sc := &s.tr
	matchedLabeled := 0
	matchedUnknown := 0
	bgObs := sc.bgObs[:0]
	instObs := sc.instObs
	for id, obs := range instObs {
		instObs[id] = obs[:0]
	}
	if cap(sc.matchedPts) < len(kps) {
		sc.matchedPts = make([]*MapPoint, len(kps))
	}
	matchedPts := sc.matchedPts[:len(kps)]
	clear(matchedPts)
	for i := range kps {
		mp := s.world.ByDescriptor(kps[i].Descriptor)
		if mp == nil {
			continue
		}
		rec.PointIDs[i] = mp.ID
		matchedPts[i] = mp
		if mp.Label != LabelUnknown {
			matchedLabeled++
		} else {
			matchedUnknown++
		}
		if mp.InstanceID > 0 {
			instObs[mp.InstanceID] = append(instObs[mp.InstanceID],
				Observation{Point: mp.Pos, Pixel: kps[i].Pixel})
		} else {
			bgObs = append(bgObs, Observation{Point: mp.Pos, Pixel: kps[i].Pixel})
		}
	}
	// Section V counts "features matched with unlabeled points": unmatched
	// features are not included (they become unknown points one frame later
	// via map expansion, so the signal lags by a frame but is far less
	// noisy than counting every unmatched detection).
	if len(kps) > 0 {
		s.unlabeledFrac = float64(matchedUnknown) / float64(len(kps))
	} else {
		s.unlabeledFrac = 0
	}
	_ = matchedLabeled

	// Observation order feeds least-squares accumulators, so every loop over
	// instObs walks instance IDs in sorted order — map-iteration order would
	// perturb the solved poses in the last ulps and diverge runs.
	instOrder := sc.instOrder[:0]
	for instID, obs := range instObs {
		if len(obs) > 0 {
			instOrder = append(instOrder, instID)
		}
	}
	sort.Ints(instOrder)
	sc.bgObs, sc.instOrder = bgObs, instOrder

	// First camera solve: background + unflagged instances.
	camObs := append(sc.camObs[:0], bgObs...)
	for _, instID := range instOrder {
		if inst := s.instances[instID]; inst != nil && !inst.Moving {
			camObs = append(camObs, instObs[instID]...)
		}
	}
	sc.camObs = camObs
	res, err := OptimizePose(s.cfg.Camera, camObs, s.CurrentPose(), 10)
	if err != nil {
		s.state = StatusRelocalizing
		s.relocStart = idx
		return s.state
	}
	rec.TCW = res.Pose

	// Suspect detection: evaluate every instance's current observations
	// against its structure from movingWindow frames ago. The local BA
	// continuously refits an unflagged instance's structure under the
	// static-world hypothesis, which makes a moving object's *current*
	// structure follow it and look consistent — but its observations can
	// never be reconciled with where its structure used to be. Background
	// evaluated the same way normalizes out global map drift and camera
	// jitter. Suspects are re-solved out of the camera pose and feed the
	// Moving votes.
	suspects := sc.suspects
	clear(suspects)
	if len(s.posSnapshots) > 0 {
		then := s.posSnapshots[0]
		// agedObs fills the one aged-observation buffer: each use is done
		// with it before the next call.
		agedObs := func(ids []int, kpix []geom.Vec2) []Observation {
			obs := sc.aged[:0]
			for k, pid := range ids {
				if old, ok := then[pid]; ok {
					obs = append(obs, Observation{Point: old, Pixel: kpix[k]})
				}
			}
			sc.aged = obs
			return obs
		}
		bgIDs, bgPix := sc.bgIDs[:0], sc.bgPix[:0]
		instKp, instIDs := sc.instKp, sc.instIDs
		for id, kp := range instKp {
			instKp[id] = kp[:0]
		}
		for id, ids := range instIDs {
			instIDs[id] = ids[:0]
		}
		for i, mp := range matchedPts {
			if mp == nil {
				continue
			}
			if mp.InstanceID > 0 {
				instKp[mp.InstanceID] = append(instKp[mp.InstanceID], kps[i].Pixel)
				instIDs[mp.InstanceID] = append(instIDs[mp.InstanceID], mp.ID)
			} else if mp.Label == LabelBackground {
				bgIDs = append(bgIDs, mp.ID)
				bgPix = append(bgPix, kps[i].Pixel)
			}
		}
		sc.bgIDs, sc.bgPix = bgIDs, bgPix
		bgAged := agedObs(bgIDs, bgPix)
		// Solve the current camera pose IN THE OLD GAUGE: fit it to the
		// background structure as it was a window ago. In that frame of
		// reference the old structures of camera-consistent (static)
		// instances still project onto today's pixels, while anything that
		// physically moved cannot be reconciled — no amount of structure
		// smearing or camera drag in the current gauge can hide it.
		if agedPose, err := OptimizePose(s.cfg.Camera, bgAged, rec.TCW, 8); err == nil {
			norm := math.Max(sc.medianResidual(s.cfg.Camera, agedPose.Pose, bgAged), 1)
			for _, instID := range instOrder {
				inst := s.instances[instID]
				if inst == nil || inst.Moving {
					continue
				}
				aged := agedObs(instIDs[instID], instKp[instID])
				if len(aged) < minObservationsForPose {
					continue
				}
				med := sc.medianResidual(s.cfg.Camera, agedPose.Pose, aged)
				// The background norm guards against global gauge noise,
				// but its own drift must not let a strongly inconsistent
				// object hide behind a noisy frame: cap its influence.
				if med > 10 && med > 4.5*math.Min(norm, 2.0) {
					suspects[instID] = true
				}
			}
		}
	}
	if len(suspects) > 0 {
		camObs = camObs[:0]
		camObs = append(camObs, bgObs...)
		for _, instID := range instOrder {
			if suspects[instID] {
				continue
			}
			if inst := s.instances[instID]; inst != nil && !inst.Moving {
				camObs = append(camObs, instObs[instID]...)
			}
		}
		sc.camObs = camObs
		if res2, err2 := OptimizePose(s.cfg.Camera, camObs, rec.TCW, 10); err2 == nil {
			rec.TCW = res2.Pose
		}
	}

	// Per-object poses (Eq. 6-7).
	for _, instID := range instOrder {
		obs := instObs[instID]
		inst := s.instances[instID]
		if inst == nil || len(obs) < minObservationsForPose {
			continue
		}
		init := inst.TCO
		if !inst.LastPoseValid {
			init = rec.TCW
		}
		ores, err := OptimizePose(s.cfg.Camera, obs, init, 8)
		if err != nil {
			inst.LastPoseValid = false
			continue
		}
		inst.TCO = ores.Pose
		inst.LastPoseValid = true
		inst.LastSeen = idx
		// T_WO = T_WC * T_CO (Eq. 7): the object's pose in the world.
		inst.TWO = rec.TCW.Inverse().Compose(ores.Pose)
		depth := 0.0
		for _, o := range obs {
			depth += ores.Pose.Apply(o.Point).Z
		}
		inst.MeanDepth = depth / float64(len(obs))
		s.updateMotionState(inst, obs, rec.TCW, suspects[instID])
		rec.ObjectPoses[instID] = ores.Pose
	}

	// Update observation records with per-frame depths. Structure of
	// non-moving instances refines against the camera pose so it stays
	// consistent with the world; moving instances refine against their own
	// fitted pose.
	for i, mp := range matchedPts {
		if mp == nil {
			continue
		}
		pose := rec.TCW
		if mp.InstanceID > 0 {
			if op, ok := rec.ObjectPoses[mp.InstanceID]; ok {
				pose = op
			}
		}
		mp.Observations = append(mp.Observations, ObsRecord{
			FrameIndex: idx,
			Pixel:      kps[i].Pixel,
			Depth:      pose.Apply(mp.Pos).Z,
		})
		mp.LastSeen = idx
	}

	// Triangulate new points from unmatched keypoints against the previous
	// frame ("the map gets updated in the same frequency as input").
	s.expandMap(rec)

	s.world.Cleanup(mapCleanup, idx)
	s.storeFrame(rec)
	s.cur = rec
	s.localBundleAdjustment()

	// Snapshot the matched points' positions (after the local BA sweep) for
	// the differential drift statistic of the motion detector. Once the
	// ring is full, the oldest snapshot's map is cleared and reused.
	var snap map[int]geom.Vec3
	if n := len(s.posSnapshots); n > movingWindow {
		snap = s.posSnapshots[0]
		clear(snap)
		copy(s.posSnapshots, s.posSnapshots[1:])
		s.posSnapshots = s.posSnapshots[:n-1]
	} else {
		snap = make(map[int]geom.Vec3, len(matchedPts))
	}
	for _, mp := range matchedPts {
		if mp != nil {
			snap[mp.ID] = mp.Pos
		}
	}
	s.posSnapshots = append(s.posSnapshots, snap)

	s.state = StatusTracking
	return s.state
}

// localBundleAdjustment keeps structure and poses mutually consistent with
// a resection-intersection sweep over a sliding window of recent frames: a
// lightweight stand-in for ORB-SLAM's local BA thread, which the paper's VO
// inherits. Points observed at least twice in the window are re-triangulated
// from all their window observations (intersection), then the non-anchor
// window poses are re-solved against the updated structure (resection).
// Points of moving instances are handled in their object frame using the
// per-frame object poses.
func (s *System) localBundleAdjustment() {
	const (
		window = 10
		sweeps = 2
	)
	if len(s.frameOrder) < 3 {
		return
	}
	start := len(s.frameOrder) - window
	if start < 0 {
		start = 0
	}
	ba := &s.ba
	recs := ba.recs[:0]
	for _, idx := range s.frameOrder[start:] {
		if r := s.frames[idx]; r != nil {
			recs = append(recs, r)
		}
	}
	ba.recs = recs
	if len(recs) < 3 {
		return
	}

	for sweep := 0; sweep < sweeps; sweep++ {
		// Intersection: multi-view re-triangulation. Each window frame's
		// view is built once per sweep; each point's observations go to its
		// slot, slots in first-seen order.
		ba.views = ba.views[:0]
		for _, rec := range recs {
			ba.views = append(ba.views, NewView(s.cfg.Camera, rec.TCW))
		}
		clear(ba.slotOf)
		ba.slots = ba.slots[:0]
		for wi, rec := range recs {
			for i, pid := range rec.PointIDs {
				if pid == 0 {
					continue
				}
				mp := s.world.ByID(pid)
				if mp == nil {
					continue
				}
				// Structure of instances flagged as moving is frozen in
				// the object frame: re-triangulating it under camera poses
				// would smear it to fit the static hypothesis (masking the
				// motion), and re-triangulating under the free-floating
				// object poses has an unconstrained gauge that drifts.
				// Their per-frame T_CO keeps fitting the frozen structure.
				if mp.InstanceID > 0 {
					if inst := s.instances[mp.InstanceID]; inst != nil && inst.Moving {
						continue
					}
				}
				slot, ok := ba.slotOf[pid]
				if !ok {
					slot = ba.newSlot(pid)
				}
				ba.slots[slot].obs = append(ba.slots[slot].obs, ViewPixel{View: wi, Pixel: rec.Keypoints[i].Pixel})
			}
		}
		// Each point refines from its own observations only, so the slot
		// order cannot change the result.
		for _, sl := range ba.slots {
			obs := sl.obs
			if len(obs) < 2 {
				continue
			}
			// Require enough parallax across the window for a stable fix.
			maxPar := 0.0
			for i := 1; i < len(obs); i++ {
				if d := obs[i].Pixel.DistTo(obs[0].Pixel); d > maxPar {
					maxPar = d
				}
			}
			if maxPar < 2 {
				continue
			}
			pos, err := TriangulatePointMulti(ba.views, obs)
			if err != nil {
				continue
			}
			mp := s.world.ByID(sl.pid)
			last := ba.views[obs[len(obs)-1].View].Pose
			d := last.Apply(pos).Z
			if d <= 0.05 || d > 1e4 {
				continue
			}
			// Reject step changes in depth: physical structure does not
			// teleport. Without this, an object translating parallel to
			// the camera pushes its triangulation toward infinity (rays
			// turn parallel), which would hide the motion from the
			// detector behind a receding-but-consistent structure.
			oldD := last.Apply(mp.Pos).Z
			if mp.RefinedCount > 0 && oldD > 0 && (d > 1.5*oldD || d < oldD/1.5) {
				continue
			}
			mp.Pos = pos
			mp.RefinedCount++
		}

		// Resection: re-solve all but the two oldest window poses.
		for k := 2; k < len(recs); k++ {
			rec := recs[k]
			obs := ba.obs[:0]
			for i, pid := range rec.PointIDs {
				if pid == 0 {
					continue
				}
				mp := s.world.ByID(pid)
				if mp == nil || mp.InstanceID > 0 {
					continue
				}
				obs = append(obs, Observation{Point: mp.Pos, Pixel: rec.Keypoints[i].Pixel})
			}
			ba.obs = obs
			if res, err := OptimizePose(s.cfg.Camera, obs, rec.TCW, 5); err == nil {
				rec.TCW = res.Pose
			}
		}
	}
}

// updateMotionState decides whether an instance is moving by comparing the
// reprojection error of its observations under the static-world hypothesis
// (project with the camera pose) against the fitted per-object pose. A truly
// static object fits both about equally; a moving one is only explained by
// its own pose. The test is image-space and therefore immune to the
// monocular scale ambiguity. A vote counter adds hysteresis so a single
// noisy frame cannot flip the flag ("pose changes significantly over a
// period", Section V).
func (s *System) updateMotionState(inst *InstanceTrack, obs []Observation, tcw geom.Pose, suspect bool) {
	rmse := func(pose geom.Pose) float64 {
		sum, n := 0.0, 0
		for _, o := range obs {
			px, err := s.cfg.Camera.ProjectWorld(pose, o.Point)
			if err != nil {
				continue
			}
			d := px.Sub(o.Pixel)
			sum += d.Dot(d)
			n++
		}
		if n == 0 {
			return math.Inf(1)
		}
		return math.Sqrt(sum / float64(n))
	}
	inst.StaticRMSE = rmse(tcw)
	inst.FitRMSE = rmse(inst.TCO)
	if inst.Moving {
		// A flagged instance keeps its own pose track; its frozen structure
		// cannot support the drift statistics below. It may still un-flag:
		// if its object-to-world pose stabilizes over a full window (the
		// object stopped, or the flag was a false positive), return it to
		// the static world and let the local BA re-sync its structure.
		inst.twoHistory = append(inst.twoHistory, inst.TWO.T)
		if len(inst.twoHistory) > movingWindow+1 {
			inst.twoHistory = inst.twoHistory[1:]
		}
		if len(inst.twoHistory) > movingWindow && inst.MeanDepth > 0 {
			drift := inst.twoHistory[len(inst.twoHistory)-1].Sub(inst.twoHistory[0]).Norm()
			driftPx := s.cfg.Camera.Fx * drift / inst.MeanDepth
			// Un-flag only when the pose is stable AND the frozen
			// structure still explains the observations under the camera
			// pose: a truly moving object's frozen structure diverges
			// (high StaticRMSE) even in windows where its world pose
			// happens to change little.
			if driftPx < 4 && inst.StaticRMSE < 6 {
				inst.Moving = false
				inst.movingVotes = 0
				inst.twoHistory = inst.twoHistory[:0]
			}
		}
		return
	}
	inst.twoHistory = inst.twoHistory[:0]

	inconsistent := suspect
	if inconsistent {
		inst.movingVotes++
	} else {
		// Decay faster than accumulation so short noise excursions cannot
		// ratchet up to the flag threshold.
		inst.movingVotes -= 2
		if inst.movingVotes < 0 {
			inst.movingVotes = 0
		}
	}
	half := movingWindow / 2
	if half < 1 {
		half = 1
	}
	if inst.movingVotes >= half {
		inst.Moving = true
	}
}

// expandMap triangulates unmatched keypoints against the previous frame's
// unmatched keypoints. New points start unlabeled.
func (s *System) expandMap(rec *FrameRecord) {
	prev := s.cur
	if prev == nil {
		return
	}
	prevUnmatched := make(map[uint64]int)
	for i := range prev.Keypoints {
		if prev.PointIDs[i] == 0 {
			prevUnmatched[prev.Keypoints[i].Descriptor] = i
		}
	}
	for i := range rec.Keypoints {
		if rec.PointIDs[i] != 0 {
			continue
		}
		j, ok := prevUnmatched[rec.Keypoints[i].Descriptor]
		if !ok {
			continue
		}
		p0 := prev.Keypoints[j].Pixel
		p1 := rec.Keypoints[i].Pixel
		if p0.DistTo(p1) < 1.0 {
			continue // not enough parallax for a stable depth
		}
		pos, err := TriangulatePoint(s.cfg.Camera, prev.TCW, rec.TCW, p0, p1)
		if err != nil {
			continue
		}
		d := rec.TCW.Apply(pos).Z
		if d <= 0.05 || d > 1e4 {
			continue
		}
		mp := s.world.Add(pos, rec.Keypoints[i].Descriptor, LabelUnknown, 0, rec.Index)
		mp.AnchorPixel = p0
		mp.AnchorPose = prev.TCW
		mp.Observations = append(mp.Observations,
			ObsRecord{FrameIndex: prev.Index, Pixel: p0, Depth: prev.TCW.Apply(pos).Z},
			ObsRecord{FrameIndex: rec.Index, Pixel: p1, Depth: d},
		)
		rec.PointIDs[i] = mp.ID
	}
}

// AnnotateFrame applies edge-provided masks to a tracked frame, labeling
// map points and creating instances for newly covered objects. This is the
// "mask-assisted mapping" of Fig. 5.
func (s *System) AnnotateFrame(idx int, masks []LabeledMask) error {
	rec := s.frames[idx]
	if rec == nil {
		return fmt.Errorf("vo: no frame record for index %d", idx)
	}
	bands := s.contourBands(masks)

	// Group the frame's points by containing mask.
	type pointInMask struct {
		mp      *MapPoint
		contour bool
	}
	byMask := make(map[int][]pointInMask)
	for i, pid := range rec.PointIDs {
		if pid == 0 {
			continue
		}
		mp := s.world.ByID(pid)
		if mp == nil {
			continue
		}
		px := rec.Keypoints[i].Pixel
		mi := maskIndexAt(masks, px)
		if mi == -1 {
			if mp.Label == LabelUnknown {
				mp.Label = LabelBackground
			}
			continue
		}
		byMask[mi] = append(byMask[mi], pointInMask{
			mp:      mp,
			contour: bands[mi].At(int(px.X), int(px.Y)),
		})
	}

	// Deterministic mask order: fresh instance IDs are assigned inside the
	// loop, so map-iteration order would permute them between runs.
	maskOrder := make([]int, 0, len(byMask))
	for mi := range byMask {
		maskOrder = append(maskOrder, mi)
	}
	sort.Ints(maskOrder)
	for _, mi := range maskOrder {
		pts := byMask[mi]
		label := masks[mi].Label
		// Majority vote over existing SAME-LABEL instance assignments. A
		// point previously swallowed by a different-label instance (mask
		// boundary noise around occlusions) must not drag this mask onto
		// that instance.
		votes := make(map[int]int)
		for _, pm := range pts {
			if pm.mp.InstanceID > 0 {
				if inst := s.instances[pm.mp.InstanceID]; inst != nil && inst.Label == label {
					votes[pm.mp.InstanceID]++
				}
			}
		}
		instID := 0
		bestVotes := 0
		//edgeis:ordered argmax with an explicit smaller-ID tie-break; the winner is order-independent
		for id, v := range votes {
			// Vote ties break toward the smaller (older) instance ID so the
			// winner does not depend on map-iteration order.
			if v > bestVotes || (v == bestVotes && v > 0 && id < instID) {
				instID, bestVotes = id, v
			}
		}
		if instID == 0 {
			if len(pts) < minObservationsForPose {
				// Too few points to track; label without an instance.
				for _, pm := range pts {
					pm.mp.Label = label
					pm.mp.NearContour = pm.mp.NearContour || pm.contour
				}
				continue
			}
			inst := &InstanceTrack{
				ID:    s.nextInstance,
				Label: label,
				TCO:   rec.TCW,
				TWO:   geom.IdentityPose(),
			}
			s.nextInstance++
			inst.LastSeen = idx
			s.instances[inst.ID] = inst
			instID = inst.ID
		}
		for _, pm := range pts {
			pm.mp.Label = label
			pm.mp.InstanceID = instID
			pm.mp.NearContour = pm.mp.NearContour || pm.contour
		}
	}
	rec.Annotated = true
	s.retireUnconfirmed(rec, masks)
	return nil
}

// maxMissedAnnotations retires an instance after this many consecutive
// unconfirmed annotations.
const maxMissedAnnotations = 3

// retireUnconfirmed checks every instance observed in the annotated frame
// against the edge masks: a same-label mask covering at least
// minObservationsForPose of its points confirms it; repeated failures mean
// the instance was born from a spurious detection (label confusion or a
// false positive) and it is dissolved — its points return to the unknown
// pool for relabeling.
func (s *System) retireUnconfirmed(rec *FrameRecord, masks []LabeledMask) {
	// Count confirming points per instance.
	confirmed := make(map[int]int)
	observed := make(map[int]int)
	for i, pid := range rec.PointIDs {
		if pid == 0 {
			continue
		}
		mp := s.world.ByID(pid)
		if mp == nil || mp.InstanceID == 0 {
			continue
		}
		observed[mp.InstanceID]++
		inst := s.instances[mp.InstanceID]
		if inst == nil {
			continue
		}
		px := rec.Keypoints[i].Pixel
		for _, lm := range masks {
			if lm.Label == inst.Label && lm.Mask.At(int(px.X), int(px.Y)) {
				confirmed[mp.InstanceID]++
				break
			}
		}
	}
	//edgeis:ordered per-instance bookkeeping against read-only tallies; each entry deletes at most its own key
	for instID, inst := range s.instances {
		if observed[instID] < minObservationsForPose {
			continue // not visible in this frame; no evidence either way
		}
		if confirmed[instID] >= minObservationsForPose {
			inst.MissedAnnotations = 0
			continue
		}
		inst.MissedAnnotations++
		if inst.MissedAnnotations < maxMissedAnnotations {
			continue
		}
		for _, mp := range s.world.AppendInstancePoints(nil, instID) {
			mp.InstanceID = 0
			mp.Label = LabelUnknown
		}
		delete(s.instances, instID)
	}
}

// storeFrame appends a frame record, evicting the oldest unannotated record
// beyond the ring capacity.
func (s *System) storeFrame(rec *FrameRecord) {
	s.frames[rec.Index] = rec
	s.frameOrder = append(s.frameOrder, rec.Index)
	for len(s.frameOrder) > maxFrameRecords {
		evicted := false
		for i, idx := range s.frameOrder {
			if !s.frames[idx].Annotated || len(s.frameOrder)-i > 2*maxFrameRecords {
				delete(s.frames, idx)
				s.frameOrder = append(s.frameOrder[:i], s.frameOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			// Everything is annotated; evict the oldest anyway.
			delete(s.frames, s.frameOrder[0])
			s.frameOrder = s.frameOrder[1:]
		}
	}
}

// FramesObserving returns the indices of retained frames that observed the
// given instance, most recent first.
func (s *System) FramesObserving(instanceID int) []int {
	seen := make(map[int]bool)
	for _, mp := range s.world.AppendInstancePoints(nil, instanceID) {
		for _, obs := range mp.Observations {
			seen[obs.FrameIndex] = true
		}
	}
	out := make([]int, 0, len(seen))
	for idx := range seen {
		if s.frames[idx] != nil {
			out = append(out, idx)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(out)))
	return out
}

// PoseError returns the translation and rotation difference between two
// poses — a convenience for evaluation code.
func PoseError(a, b geom.Pose) (trans, rot float64) {
	return a.TranslationDistance(b), a.RotationAngle(b)
}

// AlignScale returns the scale factor that best maps trajectory a onto b
// (least squares over camera-center distances from their respective
// centroids) — evaluation helper for monocular scale ambiguity.
func AlignScale(a, b []geom.Pose) float64 {
	if len(a) != len(b) || len(a) < 2 {
		return 1
	}
	var ca, cb geom.Vec3
	for i := range a {
		ca = ca.Add(a[i].CameraCenter())
		cb = cb.Add(b[i].CameraCenter())
	}
	ca = ca.Scale(1 / float64(len(a)))
	cb = cb.Scale(1 / float64(len(b)))
	var num, den float64
	for i := range a {
		da := a[i].CameraCenter().Sub(ca).Norm()
		db := b[i].CameraCenter().Sub(cb).Norm()
		num += float64(da * db)
		den += float64(da * da)
	}
	if den < 1e-12 {
		return 1
	}
	return num / den
}

// medianResidual returns the median reprojection distance (px) of the
// observations under the pose.
func (sc *trackScratch) medianResidual(cam geom.Camera, pose geom.Pose, obs []Observation) float64 {
	if len(obs) == 0 {
		return 0
	}
	ds := sc.ds[:0]
	for _, o := range obs {
		px, err := cam.ProjectWorld(pose, o.Point)
		if err != nil {
			ds = append(ds, math.Inf(1))
			continue
		}
		ds = append(ds, px.DistTo(o.Pixel))
	}
	sort.Float64s(ds)
	sc.ds = ds
	return ds[len(ds)/2]
}

// Sanity checks that exported math stays finite; used in tests.
func isFinitePose(p geom.Pose) bool {
	for _, v := range p.R {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return p.T.IsFinite()
}

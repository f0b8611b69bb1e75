package vo

import (
	"cmp"
	"slices"
	"sort"

	"edgeis/internal/geom"
)

// Point labels. Class labels are positive integers assigned by the caller
// (the mobile module uses scene class IDs); the map itself only
// distinguishes unknown / background / instance.
const (
	// LabelUnknown marks freshly triangulated points that no edge
	// annotation has covered yet. The fraction of features matching
	// unknown points drives the CFRS offload trigger (Section V).
	LabelUnknown = -1
	// LabelBackground marks static scenery.
	LabelBackground = 0
)

// ObsRecord is one observation of a map point.
type ObsRecord struct {
	FrameIndex int
	Pixel      geom.Vec2
	// Depth is the camera-frame depth of the point at observation time,
	// stored so the mask-transfer module can look up contour depths
	// without re-deriving poses.
	Depth float64
}

// MapPoint is a labeled 3-D landmark. Background points hold positions in
// the world frame; instance points hold positions in their object's frame
// (which coincides with the world frame at initialization), so that the
// per-object bundle adjustment of Section III-B works unchanged for moving
// objects.
type MapPoint struct {
	ID         int
	Pos        geom.Vec3
	Label      int // LabelUnknown, LabelBackground, or a class ID
	InstanceID int // 0 for background/unknown, otherwise a VO instance
	Descriptor uint64
	// NearContour marks points that projected close to a mask boundary
	// when annotated; the transfer module prefers them for depth lookup.
	NearContour bool

	// AnchorPixel/AnchorPose record the first observation so the point can
	// be re-triangulated once a wider baseline is available (the rewritten
	// triangulation function of Section VI-A "exceedingly improves
	// efficiency" by refining points in place rather than re-running
	// element-level mapping).
	AnchorPixel  geom.Vec2
	AnchorPose   geom.Pose
	RefinedCount int

	Observations []ObsRecord
	LastSeen     int // most recent frame index
}

// observedIn reports whether the point has an observation in the frame.
func (p *MapPoint) observedIn(frameIdx int) (ObsRecord, bool) {
	for i := len(p.Observations) - 1; i >= 0; i-- {
		if p.Observations[i].FrameIndex == frameIdx {
			return p.Observations[i], true
		}
	}
	return ObsRecord{}, false
}

// Map is the sparse labeled 3-D map the VO maintains.
type Map struct {
	points map[int]*MapPoint
	byDesc map[uint64]*MapPoint
	nextID int
}

// NewMap returns an empty map.
func NewMap() *Map {
	return &Map{
		points: make(map[int]*MapPoint),
		byDesc: make(map[uint64]*MapPoint),
		nextID: 1,
	}
}

// Len returns the number of points.
func (m *Map) Len() int { return len(m.points) }

// Add inserts a new point and returns it. Descriptor collisions replace the
// index entry (newest wins) but keep both points.
func (m *Map) Add(pos geom.Vec3, descriptor uint64, label, instanceID, frameIdx int) *MapPoint {
	p := &MapPoint{
		ID:         m.nextID,
		Pos:        pos,
		Label:      label,
		InstanceID: instanceID,
		Descriptor: descriptor,
		LastSeen:   frameIdx,
	}
	m.nextID++
	m.points[p.ID] = p
	m.byDesc[descriptor] = p
	return p
}

// ByDescriptor returns the point indexed under the descriptor, or nil.
func (m *Map) ByDescriptor(d uint64) *MapPoint { return m.byDesc[d] }

// ByID returns the point with the given ID, or nil.
func (m *Map) ByID(id int) *MapPoint { return m.points[id] }

// Remove deletes a point.
func (m *Map) Remove(id int) {
	p, ok := m.points[id]
	if !ok {
		return
	}
	delete(m.points, id)
	if m.byDesc[p.Descriptor] == p {
		delete(m.byDesc, p.Descriptor)
	}
}

// AppendInstancePoints appends all points of a VO instance to dst, sorted
// by ID, and returns the extended slice. The order is load-bearing: callers
// feed these points into distance sorts and averaging, so a map-iteration
// order would leak nondeterminism into poses and transferred masks. IDs are
// unique, so any sort yields this one order. Callers on a per-frame path
// pass a reused slice to keep the lookup allocation-free.
func (m *Map) AppendInstancePoints(dst []*MapPoint, instanceID int) []*MapPoint {
	start := len(dst)
	for _, p := range m.points {
		if p.InstanceID == instanceID {
			dst = append(dst, p)
		}
	}
	slices.SortFunc(dst[start:], func(a, b *MapPoint) int { return cmp.Compare(a.ID, b.ID) })
	return dst
}

// BackgroundPoints returns all background-labeled points, sorted by ID so
// callers see a seed-stable order rather than map-iteration order.
func (m *Map) BackgroundPoints() []*MapPoint {
	out := make([]*MapPoint, 0, len(m.points))
	for _, p := range m.points {
		if p.Label == LabelBackground {
			out = append(out, p)
		}
	}
	slices.SortFunc(out, func(a, b *MapPoint) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// UnknownCount returns the number of unlabeled points.
func (m *Map) UnknownCount() int {
	n := 0
	for _, p := range m.points {
		if p.Label == LabelUnknown {
			n++
		}
	}
	return n
}

// Instances returns the distinct instance IDs present, sorted.
func (m *Map) Instances() []int {
	seen := make(map[int]bool)
	for _, p := range m.points {
		if p.InstanceID > 0 {
			seen[p.InstanceID] = true
		}
	}
	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// CleanupPolicy bounds map growth — the "additional clearing algorithm"
// keeping memory within budget in Section VI-F.
type CleanupPolicy struct {
	// MaxAge culls points not seen for this many frames (0 disables).
	MaxAge int
	// MaxPoints caps the total point count; the least recently seen
	// points are culled first (0 disables).
	MaxPoints int
}

// Cleanup applies the policy given the current frame index and returns the
// number of points removed.
func (m *Map) Cleanup(policy CleanupPolicy, currentFrame int) int {
	removed := 0
	if policy.MaxAge > 0 {
		//edgeis:ordered culls exactly the aged keys; Remove touches only the visited entry, so the culled set is order-independent
		for id, p := range m.points {
			if currentFrame-p.LastSeen > policy.MaxAge {
				m.Remove(id)
				removed++
			}
		}
	}
	if policy.MaxPoints > 0 && len(m.points) > policy.MaxPoints {
		ids := make([]*MapPoint, 0, len(m.points))
		for _, p := range m.points {
			ids = append(ids, p)
		}
		// LastSeen ties are broken by ID: the candidate slice is collected in
		// map-iteration order, so an unstable single-key sort would cull a
		// different subset on every run.
		slices.SortFunc(ids, func(a, b *MapPoint) int {
			if a.LastSeen != b.LastSeen {
				return cmp.Compare(a.LastSeen, b.LastSeen)
			}
			return cmp.Compare(a.ID, b.ID)
		})
		for _, p := range ids[:len(m.points)-policy.MaxPoints] {
			m.Remove(p.ID)
			removed++
		}
	}
	return removed
}

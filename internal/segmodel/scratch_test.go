package segmodel

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"edgeis/internal/mask"
)

// referenceNMS is the allocate-per-call DefaultNMS the scratch-backed one
// replaced: a copied, sort.Slice-ordered candidate list and mask.Box.IoU
// against every kept box.
func referenceNMS(props []Proposal, iouThresh float64, maxKeep int) []Proposal {
	sorted := make([]Proposal, len(props))
	copy(sorted, props)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Score > sorted[j].Score })
	kept := make([]Proposal, 0, min(maxKeep, len(sorted)))
	for _, p := range sorted {
		suppressed := false
		for _, k := range kept {
			if p.Box.IoU(k.Box) > iouThresh {
				suppressed = true
				break
			}
		}
		if !suppressed {
			kept = append(kept, p)
			if len(kept) >= maxKeep {
				break
			}
		}
	}
	return kept
}

// randomProposals draws a proposal set rich in the cases NMS must order
// and compare exactly: scores tied at clamp01's 1.0 and on a coarse grid,
// duplicate boxes, empty and inverted boxes, and boxes whose edges only
// touch an earlier box (overlap width or height 0).
func randomProposals(rng *rand.Rand, n int) []Proposal {
	props := make([]Proposal, 0, n)
	for i := 0; i < n; i++ {
		var p Proposal
		switch rng.Intn(4) {
		case 0:
			p.Score = 1
		case 1:
			p.Score = float64(rng.Intn(5)) / 4
		default:
			p.Score = rng.Float64()
		}
		x, y := rng.Intn(120), rng.Intn(90)
		p.Box = mask.Box{MinX: x, MinY: y, MaxX: x + 1 + rng.Intn(60), MaxY: y + 1 + rng.Intn(60)}
		if len(props) > 0 {
			prev := props[rng.Intn(len(props))].Box
			switch rng.Intn(6) {
			case 0: // duplicate
				p.Box = prev
			case 1: // touches prev's right edge
				p.Box = mask.Box{MinX: prev.MaxX, MinY: prev.MinY, MaxX: prev.MaxX + 20, MaxY: prev.MaxY}
			case 2: // touches prev's bottom edge
				p.Box = mask.Box{MinX: prev.MinX, MinY: prev.MaxY, MaxX: prev.MaxX, MaxY: prev.MaxY + 20}
			}
		}
		switch rng.Intn(10) {
		case 0: // empty
			p.Box.MaxX = p.Box.MinX
		case 1: // inverted
			p.Box.MinX, p.Box.MaxX = p.Box.MaxX, p.Box.MinX
		}
		p.Label = 1 + rng.Intn(3)
		p.ObjectIdx = rng.Intn(5) - 1
		p.AreaID = i // tells tied proposals apart
		props = append(props, p)
	}
	return props
}

func sameProposals(a, b []Proposal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestNMSMatchesReference pins DefaultNMS and the reused model-owned NMS
// to the reference, element for element, including the order of exact
// score ties.
func TestNMSMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var reused nms
	for trial := 0; trial < 400; trial++ {
		props := randomProposals(rng, rng.Intn(70))
		for _, maxKeep := range []int{1, len(props), len(props) + 3} {
			for _, thresh := range []float64{0, 0.3, 0.7} {
				want := referenceNMS(props, thresh, maxKeep)
				if got := DefaultNMS(props, thresh, maxKeep); !sameProposals(got, want) {
					t.Fatalf("trial %d maxKeep %d thresh %v: DefaultNMS\n got %v\nwant %v", trial, maxKeep, thresh, got, want)
				}
				if got := reused.run(props, thresh, maxKeep); !sameProposals(got, want) {
					t.Fatalf("trial %d maxKeep %d thresh %v: reused nms\n got %v\nwant %v", trial, maxKeep, thresh, got, want)
				}
			}
		}
	}
}

// referenceEmitDetections is emitDetections with its former map of best
// RoIs per object and a sort.Slice over the output.
func referenceEmitDetections(m *Model, in Input, kept []Proposal, rng *rand.Rand, iouScale float64) []Detection {
	p := m.Profile
	best := make(map[int]Proposal, len(in.Objects))
	for _, pr := range kept {
		if pr.ObjectIdx < 0 {
			continue
		}
		if b, ok := best[pr.ObjectIdx]; !ok || pr.Score > b.Score {
			best[pr.ObjectIdx] = pr
		}
	}
	out := make([]Detection, 0, len(best))
	for idx, obj := range in.Objects {
		pr, ok := best[idx]
		if !ok {
			continue
		}
		q := objectQuality(in, obj.Box)
		area := float64(obj.Visible.Area())
		pMiss := p.BaseMissRate + math.Exp(-area*q/p.MissScale)
		if rng.Float64() < pMiss {
			continue
		}
		targetIoU := p.BaseMaskIoU * (0.72 + 0.28*q) * iouScale
		det := Detection{ObjectID: obj.ObjectID, Label: pr.Label, Score: pr.Score, Box: pr.Box}
		if p.BoxOnly {
			det.Box = jitterBox(obj.Box, p.BoxJitter*(2-iouScale), in.Width, in.Height, rng)
			det.TrueIoU = det.Box.IoU(obj.Box)
		} else {
			det.Mask = obj.Visible.BoundaryNoisePooled(targetIoU, rng.Float64, m.pool)
			det.Box = det.Mask.BoundingBox()
			det.TrueIoU = mask.IoU(det.Mask, obj.Visible)
		}
		out = append(out, det)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ObjectID < out[j].ObjectID })
	return out
}

// sameDetections compares detections field by field and masks pixel by
// pixel.
func sameDetections(a, b []Detection) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d detections, want %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if (x.Mask == nil) != (y.Mask == nil) {
			return fmt.Errorf("detection %d: mask presence differs", i)
		}
		if x.Mask != nil && (x.Mask.Width != y.Mask.Width || !bytes.Equal(x.Mask.Bytes(), y.Mask.Bytes())) {
			return fmt.Errorf("detection %d: masks differ", i)
		}
		x.Mask, y.Mask = nil, nil
		if x != y {
			return fmt.Errorf("detection %d: %+v, want %+v", i, x, y)
		}
	}
	return nil
}

// multiObjectInput builds n rectangular objects with unique, shuffled
// IDs, so the output sort has work to do.
func multiObjectInput(rng *rand.Rand, n int) Input {
	in := Input{Width: 160, Height: 120}
	for i, id := range rng.Perm(n) {
		m := mask.New(in.Width, in.Height)
		x, y := rng.Intn(120), rng.Intn(80)
		for yy := y; yy < y+8+rng.Intn(30); yy++ {
			for xx := x; xx < x+8+rng.Intn(30) && xx < in.Width; xx++ {
				if yy < in.Height {
					m.Set(xx, yy)
				}
			}
		}
		in.Objects = append(in.Objects, ObjectTruth{ObjectID: 10 + id, Label: 1 + i%3, Visible: m, Box: m.BoundingBox()})
	}
	return in
}

// TestEmitDetectionsMatchesMapReference pins the per-object index slice
// and insertion sort to the map-and-sort.Slice version, over kept lists
// with background RoIs, repeated objects and score ties, for mask and
// box-only models and for more objects than sort.Slice's insertion-sort
// cutoff.
func TestEmitDetectionsMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 60; trial++ {
		in := multiObjectInput(rng, 1+rng.Intn(20))
		kept := randomProposals(rng, rng.Intn(40))
		for i := range kept {
			kept[i].ObjectIdx = rng.Intn(len(in.Objects)+1) - 1
		}
		for _, kind := range []Kind{MaskRCNN, YOLOv3} {
			m := New(kind)
			scale := 1 - 0.05*float64(trial%3)
			want := referenceEmitDetections(m, in, kept, rand.New(rand.NewSource(int64(trial))), scale)
			got := m.emitDetections(in, kept, rand.New(rand.NewSource(int64(trial))), scale)
			if err := sameDetections(got, want); err != nil {
				t.Fatalf("trial %d %v: %v", trial, kind, err)
			}
		}
	}
}

// TestRunRandReseedMatchesFresh checks that the reseeded model RNG draws
// the stream of a fresh rand.New(rand.NewSource(seed)) whatever earlier
// runs drew from it.
func TestRunRandReseedMatchesFresh(t *testing.T) {
	m := New(MaskRCNN)
	draws := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		seed := draws.Int63() - draws.Int63()
		rng := m.runRand(draws.Int63())
		for i := draws.Intn(2000); i > 0; i-- {
			rng.NormFloat64()
			rng.Intn(1 + i)
		}
		var junk [3]byte
		rng.Read(junk[:])
		got := m.runRand(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("trial %d draw %d: Float64 %v, want %v", trial, i, g, w)
			}
			if g, w := got.NormFloat64(), want.NormFloat64(); g != w {
				t.Fatalf("trial %d draw %d: NormFloat64 %v, want %v", trial, i, g, w)
			}
			if g, w := got.Intn(60), want.Intn(60); g != w {
				t.Fatalf("trial %d draw %d: Intn %v, want %v", trial, i, g, w)
			}
		}
		var gb, wb [7]byte
		got.Read(gb[:])
		want.Read(wb[:])
		if gb != wb {
			t.Fatalf("trial %d: Read %x, want %x", trial, gb, wb)
		}
	}
}

// TestClonesRunConcurrently runs several clones of each model at once,
// each over its own seeds on both the vanilla and the warped path, and
// checks every output against a serial run of a fresh model. Under -race
// it also proves clones share no scratch.
func TestClonesRunConcurrently(t *testing.T) {
	const workers, seeds = 4, 6
	for _, kind := range []Kind{MaskRCNN, YOLACT, YOLOv3} {
		base := New(kind)
		in := testInput(0)
		d := KeyframeDecision{Age: 2, ChangedTiles: 3}
		got := make([][]*Result, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int, m *Model) {
				defer wg.Done()
				in := in
				for s := 0; s < seeds; s++ {
					in.Seed = int64(w*seeds + s)
					if s%2 == 0 {
						got[w] = append(got[w], m.Run(in, nil))
					} else {
						got[w] = append(got[w], m.RunWarped(in, nil, d))
					}
				}
			}(w, base.Clone())
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			for s := 0; s < seeds; s++ {
				in.Seed = int64(w*seeds + s)
				var want *Result
				if s%2 == 0 {
					want = New(kind).Run(in, nil)
				} else {
					want = New(kind).RunWarped(in, nil, d)
				}
				g := got[w][s]
				if err := sameDetections(g.Detections, want.Detections); err != nil {
					t.Fatalf("%v worker %d seed %d: %v", kind, w, in.Seed, err)
				}
				g.Detections, want.Detections = nil, nil
				if !reflect.DeepEqual(*g, *want) {
					t.Fatalf("%v worker %d seed %d: result %+v, want %+v", kind, w, in.Seed, *g, *want)
				}
			}
		}
	}
}

// TestWarmYOLOv3RunAllocations guards the box-only frame path: once the
// model's scratch has grown, a run allocates only its Result and the
// Detections slice.
func TestWarmYOLOv3RunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what escapes")
	}
	m := New(YOLOv3)
	in := testInput(1)
	m.Run(in, nil)
	if n := testing.AllocsPerRun(50, func() { in.Seed++; m.Run(in, nil) }); n != 2 {
		t.Fatalf("warm YOLOv3 Run allocates %v times, want 2", n)
	}
}

package segmodel

import "testing"

func BenchmarkMaskRCNNVanilla(b *testing.B) {
	model := New(MaskRCNN)
	in := testInput(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Seed = int64(i)
		model.Run(in, nil)
	}
}

func BenchmarkYOLACT(b *testing.B) {
	model := New(YOLACT)
	in := testInput(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Seed = int64(i)
		model.Run(in, nil)
	}
}

// BenchmarkMaskRCNNGuided measures the guided two-stage path (CIIA anchor
// budget + RoI selection through a Guidance implementation).
func BenchmarkMaskRCNNGuided(b *testing.B) {
	model := New(MaskRCNN)
	in := testInput(1)
	g := guidanceFor(in, 0, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Seed = int64(i)
		model.Run(in, g)
	}
}

// BenchmarkMaskRCNNWarped measures the cached/non-keyframe skip-compute
// path (partial backbone over warped features).
func BenchmarkMaskRCNNWarped(b *testing.B) {
	model := New(MaskRCNN)
	in := testInput(1)
	d := KeyframeDecision{Age: 1, ChangedTiles: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Seed = int64(i)
		model.RunWarped(in, nil, d)
	}
}

// BenchmarkYOLACTWarped is the one-stage skip-compute counterpart.
func BenchmarkYOLACTWarped(b *testing.B) {
	model := New(YOLACT)
	in := testInput(1)
	d := KeyframeDecision{Age: 1, ChangedTiles: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in.Seed = int64(i)
		model.RunWarped(in, nil, d)
	}
}

package transport

import (
	"bytes"
	"encoding/hex"
	"testing"

	"edgeis/internal/accel"
	"edgeis/internal/mask"
	"edgeis/internal/segmodel"
)

// goldenFrame is a whole FrameMsg exercising every section of the frame
// encoding: two objects (one mask opening with a set pixel, so its RLE
// stream starts with a zero-length run), quality levels, a known and an
// unknown guidance area, and padding.
func goldenFrame() *FrameMsg {
	a := rectMask(24, 16, 3, 2, 11, 9)
	b := mask.New(24, 16)
	b.Set(0, 0)
	for y := 10; y < 16; y++ {
		for x := 14 + y%3; x < 24; x++ {
			b.Set(x, y)
		}
	}
	return &FrameMsg{
		FrameIndex: 1001,
		Width:      24,
		Height:     16,
		Seed:       -5,
		Objects: []segmodel.ObjectTruth{
			{ObjectID: 3, Label: 2, Visible: a, Box: a.BoundingBox()},
			{ObjectID: 9, Label: 7, Visible: b, Box: b.BoundingBox()},
		},
		TileCols:      2,
		QualityLevels: []float32{1, 0.75, 0.5, 0.125},
		Areas: []accel.Area{
			{Box: mask.Box{MinX: 1, MinY: 1, MaxX: 13, MaxY: 11}, Label: 2, Known: true},
			{Box: mask.Box{MinX: 12, MinY: 8, MaxX: 24, MaxY: 16}},
		},
		PaddingBytes: 5,
	}
}

// goldenFrameHex was captured from the append-growing MarshalFrame that
// predates the sized single-allocation encoder; the two must agree byte for
// byte so peers of either version interoperate.
const goldenFrameHex = "0101000003e90000001800000010fffffffffffffffb00000002000000030000" +
	"000200000003000000020000000b000000090000004800000018000000100000" +
	"000f000000330000000800000010000000080000001000000008000000100000" +
	"0008000000100000000800000010000000080000001000000008000000b50000" +
	"0009000000070000000000000000000000180000001000000044000000180000" +
	"00100000000e0000000000000001000000fe0000000900000010000000080000" +
	"000e0000000a0000000f0000000900000010000000080000000e0000000a0000" +
	"0002000000043f8000003f4000003f0000003e00000000000002000000010000" +
	"00010000000d0000000b00000002000000010000000c00000008000000180000" +
	"00100000000000000000000000050000000000"

func TestFrameWireFormatGolden(t *testing.T) {
	want, err := hex.DecodeString(goldenFrameHex)
	if err != nil {
		t.Fatal(err)
	}
	got := MarshalFrame(goldenFrame())
	if !bytes.Equal(got, want) {
		t.Fatalf("MarshalFrame = %x\nwant            %x", got, want)
	}
	back, err := UnmarshalFrame(want)
	if err != nil {
		t.Fatalf("UnmarshalFrame(golden): %v", err)
	}
	if !bytes.Equal(MarshalFrame(back), want) {
		t.Fatal("golden frame does not survive a decode/encode round trip")
	}
}

// TestMarshalFrameAllocations guards the frame encoder's single exactly
// sized allocation: no growth doublings and no per-mask buffers.
func TestMarshalFrameAllocations(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *FrameMsg
	}{{"golden", goldenFrame()}, {"sample", sampleFrame()}, {"empty", &FrameMsg{}}} {
		name, f := tc.name, tc.f
		if b := MarshalFrame(f); len(b) != cap(b) {
			t.Errorf("%s: MarshalFrame returned len %d, cap %d; the size computation is off", name, len(b), cap(b))
		}
		if raceEnabled {
			continue // the race detector changes what escapes
		}
		if n := testing.AllocsPerRun(50, func() { MarshalFrame(f) }); n != 1 {
			t.Errorf("%s: MarshalFrame allocates %v times, want 1", name, n)
		}
	}
}

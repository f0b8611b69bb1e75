package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"edgeis/internal/geom"
	"edgeis/internal/segmodel"
)

func sampleResult() *ResultMsg {
	m := rectMask(320, 240, 100, 80, 220, 200)
	det := segmodel.Detection{ObjectID: 3, Label: 5, Score: 0.87, Mask: m, Box: m.BoundingBox()}
	return &ResultMsg{
		FrameIndex: 9,
		InferMs:    123.5,
		Detections: []WireDetection{FromDetection(det, 160)},
	}
}

// corruptions derives a spread of adversarial variants from a valid
// encoding: truncations, trailing junk, and single-field overwrites.
func corruptions(valid []byte) [][]byte {
	out := [][]byte{
		valid[:0],
		valid[:1],
		valid[:2],
		valid[:len(valid)/2],
		valid[:len(valid)-1],
		append(append([]byte{}, valid...), 0xff),
	}
	// Overwrite each i32-aligned field with a huge count.
	for off := 2; off+4 <= len(valid) && off < 64; off += 4 {
		b := append([]byte{}, valid...)
		binary.BigEndian.PutUint32(b[off:], 0x7fffffff)
		out = append(out, b)
	}
	return out
}

// FuzzUnmarshalFrame checks that arbitrary bytes never panic the frame
// decoder and that anything it accepts re-encodes canonically: a decoded
// frame marshals to bytes that decode to the same frame again.
func FuzzUnmarshalFrame(f *testing.F) {
	valid := MarshalFrame(sampleFrame())
	f.Add(valid)
	f.Add(MarshalFrame(&FrameMsg{}))
	f.Add(MarshalFrame(&FrameMsg{FrameIndex: 1, Width: 64, Height: 64, PaddingBytes: 3}))
	for _, c := range corruptions(valid) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := UnmarshalFrame(data)
		if err != nil {
			return
		}
		b2 := MarshalFrame(msg)
		msg2, err := UnmarshalFrame(b2)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v", err)
		}
		if b3 := MarshalFrame(msg2); !bytes.Equal(b2, b3) {
			t.Fatal("frame encoding is not canonical under round trip")
		}
	})
}

// FuzzUnmarshalResult is the result-side twin of FuzzUnmarshalFrame.
func FuzzUnmarshalResult(f *testing.F) {
	valid := MarshalResult(sampleResult())
	f.Add(valid)
	f.Add(MarshalResult(&ResultMsg{}))
	f.Add(MarshalResult(&ResultMsg{FrameIndex: 2, Detections: []WireDetection{
		{ObjectID: 1, Label: 1, Score: 0.5, Contour: []geom.Vec2{geom.V2(0, 0), geom.V2(4, 0), geom.V2(2, 3)}, Width: 8, Height: 8},
	}}))
	for _, c := range corruptions(valid) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := UnmarshalResult(data)
		if err != nil {
			return
		}
		b2 := MarshalResult(msg)
		msg2, err := UnmarshalResult(b2)
		if err != nil {
			t.Fatalf("re-decode of re-encoded result failed: %v", err)
		}
		if b3 := MarshalResult(msg2); !bytes.Equal(b2, b3) {
			t.Fatal("result encoding is not canonical under round trip")
		}
	})
}

// FuzzUnmarshalError covers the third message type: decode must never
// panic, and accepted payloads round-trip.
func FuzzUnmarshalError(f *testing.F) {
	f.Add(MarshalError("boom"))
	f.Add(MarshalError(""))
	f.Add([]byte{protocolVersion, TypeError, 0, 0, 0, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := UnmarshalError(data)
		if err != nil {
			return
		}
		got, err := UnmarshalError(MarshalError(msg))
		if err != nil || got != msg {
			t.Fatalf("error message did not round-trip: %q %v", got, err)
		}
	})
}

// FuzzUnmarshalReject: decode must never panic, and accepted payloads
// round-trip to the same frame index and the same bytes.
func FuzzUnmarshalReject(f *testing.F) {
	valid := MarshalReject(17)
	f.Add(valid)
	f.Add(MarshalReject(-1))
	for _, c := range corruptions(valid) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := UnmarshalReject(data)
		if err != nil {
			return
		}
		b2 := MarshalReject(idx)
		if got, err := UnmarshalReject(b2); err != nil || got != idx {
			t.Fatalf("reject did not round-trip: %d %v", got, err)
		}
		if !bytes.Equal(b2, data) {
			t.Fatal("reject encoding is not canonical")
		}
	})
}

// FuzzUnmarshalShed is the shed-notice twin of FuzzUnmarshalReject.
func FuzzUnmarshalShed(f *testing.F) {
	valid := MarshalShed(23, ShedStaleReplaced)
	f.Add(valid)
	f.Add(MarshalShed(0, 0))
	for _, c := range corruptions(valid) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, reason, err := UnmarshalShed(data)
		if err != nil {
			return
		}
		b2 := MarshalShed(idx, reason)
		if gotIdx, gotReason, err := UnmarshalShed(b2); err != nil || gotIdx != idx || gotReason != reason {
			t.Fatalf("shed did not round-trip: %d/%d %v", gotIdx, gotReason, err)
		}
		if !bytes.Equal(b2, data) {
			t.Fatal("shed encoding is not canonical")
		}
	})
}

// FuzzUnmarshalResume covers the session-resume handshake: no panic, and
// accepted payloads re-encode canonically.
func FuzzUnmarshalResume(f *testing.F) {
	valid := MarshalResume(&ResumeMsg{SessionKey: "sess-7", LastKeyframeEpoch: 41})
	f.Add(valid)
	f.Add(MarshalResume(&ResumeMsg{SessionKey: "k", LastKeyframeEpoch: -1}))
	for _, c := range corruptions(valid) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := UnmarshalResume(data)
		if err != nil {
			return
		}
		b2 := MarshalResume(msg)
		msg2, err := UnmarshalResume(b2)
		if err != nil || *msg2 != *msg {
			t.Fatalf("resume did not round-trip: %+v %v", msg2, err)
		}
		if !bytes.Equal(b2, data) {
			t.Fatal("resume encoding is not canonical")
		}
	})
}

// FuzzUnmarshalResumeAck covers the handshake reply. Any nonzero adopted
// byte decodes as true, so canonicality is checked on the re-encoding.
func FuzzUnmarshalResumeAck(f *testing.F) {
	valid := MarshalResumeAck(&ResumeAckMsg{SessionKey: "sess-7", Adopted: true,
		Peers: []string{"127.0.0.1:7611", "127.0.0.1:7612"}})
	f.Add(valid)
	f.Add(MarshalResumeAck(&ResumeAckMsg{SessionKey: "k"}))
	for _, c := range corruptions(valid) {
		f.Add(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := UnmarshalResumeAck(data)
		if err != nil {
			return
		}
		b2 := MarshalResumeAck(msg)
		msg2, err := UnmarshalResumeAck(b2)
		if err != nil {
			t.Fatalf("re-decode of re-encoded resume ack failed: %v", err)
		}
		if b3 := MarshalResumeAck(msg2); !bytes.Equal(b2, b3) {
			t.Fatal("resume ack encoding is not canonical under round trip")
		}
	})
}

// TestTruncatedMessagesRejected pins the strict framing contract: every
// strict prefix of a valid message must be rejected, never silently
// decoded into a shorter message.
func TestTruncatedMessagesRejected(t *testing.T) {
	frame := MarshalFrame(sampleFrame())
	for n := 0; n < len(frame); n++ {
		if _, err := UnmarshalFrame(frame[:n]); err == nil {
			t.Fatalf("truncated frame of %d/%d bytes decoded without error", n, len(frame))
		}
	}
	res := MarshalResult(sampleResult())
	for n := 0; n < len(res); n++ {
		if _, err := UnmarshalResult(res[:n]); err == nil {
			t.Fatalf("truncated result of %d/%d bytes decoded without error", n, len(res))
		}
	}
	errMsg := MarshalError("decode failure")
	for n := 0; n < len(errMsg); n++ {
		if _, err := UnmarshalError(errMsg[:n]); err == nil {
			t.Fatalf("truncated error of %d/%d bytes decoded without error", n, len(errMsg))
		}
	}
}

// TestTrailingGarbageRejected: bytes beyond the declared content violate
// the framing contract even when the prefix is a valid message.
func TestTrailingGarbageRejected(t *testing.T) {
	frame := append(MarshalFrame(sampleFrame()), 1, 2, 3)
	if _, err := UnmarshalFrame(frame); err == nil {
		t.Error("frame with trailing garbage decoded without error")
	}
	res := append(MarshalResult(sampleResult()), 0)
	if _, err := UnmarshalResult(res); err == nil {
		t.Error("result with trailing garbage decoded without error")
	}
	errMsg := append(MarshalError("x"), 7)
	if _, err := UnmarshalError(errMsg); err == nil {
		t.Error("error message with trailing garbage decoded without error")
	}
}

// TestOversizedCountsRejected: a tiny message declaring a huge element
// count must fail validation before any large allocation happens.
func TestOversizedCountsRejected(t *testing.T) {
	huge := func(tag uint8, headerLen int) []byte {
		b := MarshalFrame(sampleFrame())
		if tag == TypeResult {
			b = MarshalResult(sampleResult())
		}
		b = append([]byte{}, b[:headerLen]...)
		return binary.BigEndian.AppendUint32(b, 0x7fffffff)
	}
	// Frame object count lives right after version+type+3*i32+i64 = 22 bytes.
	if _, err := UnmarshalFrame(huge(TypeFrame, 22)); err == nil {
		t.Error("frame with huge object count decoded without error")
	}
	// Result detection count lives after version+type+i32+f64 = 14 bytes.
	if _, err := UnmarshalResult(huge(TypeResult, 14)); err == nil {
		t.Error("result with huge detection count decoded without error")
	}
	// Negative padding.
	neg := MarshalFrame(&FrameMsg{})
	binary.BigEndian.PutUint32(neg[len(neg)-4:], 0x80000000)
	if _, err := UnmarshalFrame(neg); err == nil {
		t.Error("frame with negative padding decoded without error")
	}
	// RLE mask whose runs do not cover width*height.
	short := []byte{}
	short = binary.BigEndian.AppendUint32(short, 8) // width
	short = binary.BigEndian.AppendUint32(short, 8) // height
	short = binary.BigEndian.AppendUint32(short, 1) // one run...
	short = binary.BigEndian.AppendUint32(short, 5) // ...of 5 < 64 pixels
	if _, err := decodeMask(short); err == nil {
		t.Error("underfull RLE mask decoded without error")
	}
}

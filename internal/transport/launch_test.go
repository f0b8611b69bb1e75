package transport

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"edgeis/internal/accel"
	"edgeis/internal/edge"
	"edgeis/internal/segmodel"
)

// randomJob draws a 320x240 frame with one to three rectangular objects,
// guidance over the first object half the time, and a keyframe or warped
// decision.
func randomJob(rng *rand.Rand) edge.Job {
	in := segmodel.Input{Width: 320, Height: 240, Seed: rng.Int63()}
	for k := 1 + rng.Intn(3); k > 0; k-- {
		x0, y0 := rng.Intn(250), rng.Intn(170)
		m := rectMask(320, 240, x0, y0, x0+10+rng.Intn(60), y0+10+rng.Intn(60))
		in.Objects = append(in.Objects, segmodel.ObjectTruth{
			ObjectID: k, Label: 1 + rng.Intn(5), Visible: m, Box: m.BoundingBox()})
	}
	var g segmodel.Guidance
	if rng.Intn(2) == 0 {
		g = &accel.Plan{Areas: []accel.Area{{Box: in.Objects[0].Box, Label: in.Objects[0].Label, Known: true}}}
	}
	d := segmodel.KeyframeDecision{Keyframe: true, Reason: segmodel.KeyInterval}
	if rng.Intn(2) == 0 {
		d = segmodel.KeyframeDecision{Age: 1 + rng.Intn(6), ChangedTiles: rng.Intn(30)}
	}
	return edge.Job{In: in, G: g, D: d}
}

// TestLaunchMatchesSoloRuns pins keyframe launches: over random launches of
// 1-8 keyframe jobs, every output equals a solo model.Run of that job, and
// the launch latency is segmodel.BatchMs over the scaled solo latencies —
// exactly, not within a tolerance — amortized below their serial sum once
// there is more than one job. Run returns model.Run's output at
// TotalMs*scale.
func TestLaunchMatchesSoloRuns(t *testing.T) {
	const scale = 1.7
	model := segmodel.New(segmodel.MaskRCNN)
	acc := &modelAccelerator{model: model.Clone(), scale: scale}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		jobs := make([]edge.Job, 1+rng.Intn(8))
		for i := range jobs {
			jobs[i] = randomJob(rng)
			jobs[i].D = segmodel.KeyframeDecision{Keyframe: true}
		}
		outs := make([]*segmodel.Result, len(jobs))
		launchMs := acc.Launch(jobs, outs)
		solos := make([]float64, len(jobs))
		serial := 0.0
		for i, j := range jobs {
			want := model.Run(j.In, j.G)
			if !reflect.DeepEqual(outs[i], want) {
				t.Fatalf("trial %d job %d: launched output differs from solo Run", trial, i)
			}
			solos[i] = want.TotalMs() * scale
			serial += solos[i]
		}
		if want := segmodel.BatchMs(solos); launchMs != want {
			t.Fatalf("trial %d: launchMs = %v, want BatchMs %v", trial, launchMs, want)
		}
		if len(jobs) > 1 && launchMs >= serial {
			t.Fatalf("trial %d: launchMs %v not amortized below serial %v", trial, launchMs, serial)
		}
	}

	j := randomJob(rng)
	want := model.Run(j.In, j.G)
	if out, ms := acc.Run(j.In, j.G); !reflect.DeepEqual(out, want) || ms != want.TotalMs()*scale {
		t.Errorf("Run = (%v ms), want model.Run at %v ms", ms, want.TotalMs()*scale)
	}
}

// TestLaunchWarpedMatchesRunWarped is the differential pin of the launch
// contract: over random launches of 1-8 jobs mixing keyframes and warped
// non-keyframes, every output equals what a solo model.RunWarped produces
// for that job, and the launch latency is segmodel.BatchMs over the scaled
// solo latencies — exactly, not within a tolerance. A one-job keyframe
// launch returns model.Run's output at TotalMs*scale.
func TestLaunchWarpedMatchesRunWarped(t *testing.T) {
	const scale = 1.7
	model := segmodel.New(segmodel.MaskRCNN)
	acc := &modelAccelerator{model: model.Clone(), scale: scale}
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 60; trial++ {
		jobs := make([]edge.Job, 1+rng.Intn(8))
		for i := range jobs {
			jobs[i] = randomJob(rng)
		}
		outs := make([]*segmodel.Result, len(jobs))
		launchMs := acc.Launch(jobs, outs)
		solos := make([]float64, len(jobs))
		for i, j := range jobs {
			want := model.RunWarped(j.In, j.G, j.D)
			if !reflect.DeepEqual(outs[i], want) {
				t.Fatalf("trial %d job %d (%+v): launched output differs from solo RunWarped", trial, i, j.D)
			}
			solos[i] = want.TotalMs() * scale
		}
		if want := segmodel.BatchMs(solos); launchMs != want {
			t.Fatalf("trial %d: launchMs = %v, want BatchMs %v", trial, launchMs, want)
		}
	}

	j := randomJob(rng)
	j.D = segmodel.KeyframeDecision{Keyframe: true}
	want := model.Run(j.In, j.G)
	var outs [1]*segmodel.Result
	if ms := acc.Launch([]edge.Job{j}, outs[:]); !reflect.DeepEqual(outs[0], want) || ms != want.TotalMs()*scale {
		t.Errorf("one-job keyframe launch = (%v ms), want model.Run at %v ms", ms, want.TotalMs()*scale)
	}
}

// TestLaunchClampsNegativeCost: a miscalibrated profile must not yield a
// negative launch latency.
func TestLaunchClampsNegativeCost(t *testing.T) {
	m := segmodel.New(segmodel.YOLACT)
	m.Profile.BackboneMs = -500
	acc := &modelAccelerator{model: m, scale: 1}
	rng := rand.New(rand.NewSource(1))
	jobs := []edge.Job{randomJob(rng), randomJob(rng)}
	jobs[0].D, jobs[1].D = segmodel.KeyframeDecision{Keyframe: true}, segmodel.KeyframeDecision{Keyframe: true}
	if ms := acc.Launch(jobs, make([]*segmodel.Result, 2)); ms < 0 {
		t.Errorf("launchMs = %v, want >= 0", ms)
	}
}

// TestDepthOneServesPacedClient pins the default connection depth of one:
// the slot is taken before the next message is read, so the read deadline
// only runs while nothing is in flight. An inference outlasting the read
// timeout must not drop a client that waits for each result before sending
// its next frame, and the session never has more than one frame queued or
// in flight.
func TestDepthOneServesPacedClient(t *testing.T) {
	srv := NewServer(segmodel.New(segmodel.YOLACT),
		// ~120 simulated ms * 2: each inference holds the accelerator for
		// ~240 ms of wall time, three times the read timeout.
		WithWallOccupancy(2),
		WithConnReadTimeout(80*time.Millisecond))
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	var halt sync.Once
	stopSampler := func() { halt.Do(func() { close(stop); sampler.Wait() }) }
	defer stopSampler()
	peak := 0
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			if b := srv.Scheduler().QueueSnapshot().Backlog(); b > peak {
				peak = b
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	cl, err := Dial(addr.String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cl.Close() }()
	const frames = 4
	for i := 0; i < frames; i++ {
		f := sampleFrame()
		f.FrameIndex = int32(i)
		if !cl.Send(f) {
			t.Fatalf("frame %d: send rejected locally", i)
		}
		select {
		case res, ok := <-cl.Results():
			if !ok {
				t.Fatalf("frame %d: connection lost: %v", i, cl.Err())
			}
			if res.FrameIndex != int32(i) {
				t.Fatalf("result for frame %d, want %d", res.FrameIndex, i)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("frame %d: no result", i)
		}
	}
	stopSampler()
	if peak > 1 {
		t.Errorf("session backlog peaked at %d, want at most 1 at depth 1", peak)
	}
	if st := srv.Stats(); st.Served != frames {
		t.Errorf("served %d, want %d", st.Served, frames)
	}
}

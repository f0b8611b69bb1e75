package loadgen

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// TestSimRowsMatchCommittedBench pins the committed BENCH_serving.json: every
// named profile, run on the simulator, must reproduce its "sim" row byte for
// byte. A change to the cost model, the arrival process or the scheduler
// rules that moves a row fails here; refresh the file with
// `make servingbench` only when the move is intended.
func TestSimRowsMatchCommittedBench(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_serving.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Results []json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	committed := make(map[string][]byte)
	for _, row := range file.Results {
		var id struct{ Profile, Target string }
		if err := json.Unmarshal(row, &id); err != nil {
			t.Fatal(err)
		}
		if id.Target != "sim" {
			continue
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, row); err != nil {
			t.Fatal(err)
		}
		committed[id.Profile] = compact.Bytes()
	}
	profiles := Profiles()
	if len(committed) != len(profiles) {
		t.Errorf("BENCH_serving.json has %d sim rows, want one per profile (%d)", len(committed), len(profiles))
	}
	for _, p := range profiles {
		want, ok := committed[p.Name]
		if !ok {
			t.Errorf("%s: no sim row in BENCH_serving.json", p.Name)
			continue
		}
		got, err := json.Marshal(Run(p))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: simulator row moved\n got: %s\nwant: %s", p.Name, got, want)
		}
	}
}

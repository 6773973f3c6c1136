package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestBenchmarkJSONMatchesSpecs keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesSpecs(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, program has %s", got, want)
	}
	for _, c := range []struct {
		kind string
		json []spec
		prog []metricSpec
	}{{"end_to_end", bj.EndToEnd, endToEnd}, {"per_layer", bj.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", c.kind, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.prog {
			if j := c.json[i]; j.Name != m.name || j.Unit != m.unit || j.Better != m.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", c.kind, i, j, m)
			}
		}
	}
}

// TestSmokeEveryWorkload runs every workload, untraced and traced, at a
// tiny scale on a non-default seed: every run must pass its output
// checks, which include byte-identical MAFs across the one-shot CLI,
// the coordinator whole-job and sharded paths, and the in-process
// replay.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds darwin-wga and runs every workload")
	}
	bin := filepath.Join(t.TempDir(), "darwin-wga")
	build := exec.Command("go", "build", "-o", bin, "./cmd/darwin-wga")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building darwin-wga: %v\n%s", err, out)
	}
	const seed = 7
	for _, w := range workloads {
		w.scale /= 5
		if w.pairs > 0 {
			w.pairs = 2
		}
		if w.contigs > 0 {
			w.contigs = 3
		}
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			work := t.TempDir()
			err := runBench(context.Background(), &out, w, seed, time.Second, trace, bin,
				filepath.Join(work, "work"), ".")
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s",
					w.name, trace, res.Correct, res.Failed, res.Attempted, out.String())
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(specs))
			}
			for _, m := range specs {
				v, ok := res.Metrics[m.name]
				if !ok || v.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s missing or in the wrong unit: %+v", w.name, trace, m.name, v)
				}
				if !trace && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, m.name, v.Value)
				}
			}
		}
	}
}

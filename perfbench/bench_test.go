package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"oovr/internal/service"
	"oovr/internal/spec"
	"oovr/internal/stats"
)

// TestShortWorkloads runs every workload at a tiny size, untraced and
// traced, and requires its checks to pass and the traced run's outputs to
// equal the untraced run's.
func TestShortWorkloads(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			var digests [2]string
			for i, traced := range []bool{false, true} {
				b := newBench(config{workload: name, seed: 3, seconds: 1e-3, trace: traced, short: true, out: t.TempDir()})
				workloads[name](b)
				res, err := b.result()
				if err != nil {
					t.Fatal(err)
				}
				if res.Failed != 0 || !res.correct() {
					t.Fatalf("traced=%v: %d failed: %v", traced, res.Failed, res.Errors)
				}
				// setup_s reads 0 here for the workloads with no set-up of
				// their own: the parent process adds the program's start.
				if res.Attempted < 1 || res.EndToEnd["ops_per_cpu_s"] <= 0 || res.EndToEnd["setup_s"] < 0 {
					t.Fatalf("traced=%v: attempted %d, metrics %v", traced, res.Attempted, res.EndToEnd)
				}
				if res.Digest == "" {
					t.Fatalf("traced=%v: no output digest", traced)
				}
				digests[i] = res.Digest
			}
			if digests[0] != digests[1] {
				t.Fatalf("traced outputs differ from untraced: %s vs %s", digests[1], digests[0])
			}
		})
	}
}

// TestAlteredHitBodyIsCounted serves a spec, alters the body the client
// stored for it, and expects the next (cached) answer to count as failed.
func TestAlteredHitBodyIsCounted(t *testing.T) {
	b := newBench(config{workload: "oovrd-mix", seed: 3, short: true})
	srv, h := newMixServer()
	c := &mixClient{b: b, srv: srv, handler: h, opts: mixOptions(b.cfg), base: 3 << 20, bodies: map[string][]byte{}}
	req := c.generation()[0]
	c.run(req)
	if b.failed != 0 || c.misses != 1 {
		t.Fatalf("fresh spec: %d failed, %d misses: %v", b.failed, c.misses, b.errs)
	}
	altered := bytes.Clone(c.bodies[string(req)])
	altered[len(altered)/2] ^= 1
	c.bodies[string(req)] = altered
	c.run(req)
	if b.failed != 1 || c.hits != 1 {
		t.Fatalf("altered stored body: %d failed, %d hits, want 1 and 1", b.failed, c.hits)
	}
	if res, _ := b.result(); res.Failed != 1 || res.correct() {
		t.Fatalf("result reports %d failed, correct %v", res.Failed, res.correct())
	}
}

// TestWrongOutputsAreCounted feeds each check a deliberately broken output
// and expects exactly one failed operation per broken output.
func TestWrongOutputsAreCounted(t *testing.T) {
	m, err := spec.RunSpec{Workload: spec.WorkloadRef{Name: "DM3-640"}, Scheduler: spec.SchedulerRef{Name: "oovr"}, Frames: 2}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := checkMetrics(m, ""); err != nil {
		t.Fatalf("valid metrics: %v", err)
	}
	cell, err := service.OpenCell(spec.ServiceSpec{Sessions: []spec.SessionMix{{Workload: "DM3-640"}}, Lambda: 64, MeanFrames: 5, HorizonMs: 50, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for cell.Step() {
	}
	rep := cell.Report()
	if err := checkCell(rep, 1000/90.0); err != nil {
		t.Fatalf("valid cell: %v", err)
	}
	overloaded := rep
	overloaded.DroppedFrames, overloaded.DroppedSessions = 40, 1
	if err := checkOverload(overloaded); err != nil {
		t.Fatalf("valid overloaded cell: %v", err)
	}
	fig := stats.Figure{ID: "Figure 16", XLabels: []string{"a", "b"}}
	fig.AddSeries("Baseline", []float64{1, 1})
	fig.AddSeries("OOVR", []float64{0.3, 0.25})
	if err := checkFigure(fig); err != nil {
		t.Fatalf("valid figure: %v", err)
	}

	broken := map[string]error{}
	nan := fig
	nan.Series = []stats.Series{fig.Series[0], {Name: "OOVR", Values: []float64{0.3, math.NaN()}}}
	broken["NaN figure value"] = checkFigure(nan)
	base := fig
	base.Series = []stats.Series{{Name: "Baseline", Values: []float64{1, 0.999}}, fig.Series[1]}
	broken["F16 baseline not 1"] = checkFigure(base)
	leak := m
	leak.RemoteTextureBytes += 4096
	broken["remote breakdown"] = checkMetrics(leak, "")
	short := m
	short.FrameLatencies = short.FrameLatencies[:1]
	broken["frame count"] = checkMetrics(short, "")
	arrivals := rep
	arrivals.Arrivals++
	broken["cell arrivals"] = checkCell(arrivals, 1000/90.0)
	slo := rep
	slo.SLOMet = !slo.SLOMet
	broken["cell SLO"] = checkCell(slo, 1000/90.0)
	noDrops := overloaded
	noDrops.DroppedFrames = 0
	broken["overloaded cell drops no frame"] = checkOverload(noDrops)
	noEvictions := overloaded
	noEvictions.DroppedSessions = 0
	broken["overloaded cell evicts no session"] = checkOverload(noEvictions)

	b := newBench(config{workload: "figure-sweep", short: true})
	for name, err := range broken {
		if err == nil {
			t.Errorf("%s: check passed", name)
		}
		b.check(err)
	}
	if res, _ := b.result(); res.Failed != len(broken) || res.correct() {
		t.Fatalf("result reports %d failed (want %d), correct %v", res.Failed, len(broken), res.correct())
	}
}

// TestBenchmarkFileMatchesMetrics requires BENCHMARK.json at the
// repository root to list exactly the metrics this program prints, with
// the same units.
func TestBenchmarkFileMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	slices.Sort(names)
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("workloads %v, program has %v", names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: file lists %d metrics, program prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: file has %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", file.EndToEnd, endToEnd)
	same("per_layer", file.PerLayer, perLayer)
}

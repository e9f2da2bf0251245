package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"time"

	"oovr/internal/driver"
	"oovr/internal/experiments"
	"oovr/internal/multigpu"
	"oovr/internal/spec"
	"oovr/internal/stats"
	"oovr/internal/workload"
)

// figureSet is what the figure-sweep workload regenerates: the paper's
// headline evaluation (F15 speedup, F16 traffic, F18 GPM scaling) plus the
// topology sweep FT, on the nine cases at default frames. Every run in it
// is cold, and some content addresses repeat across figures, so cold-start
// and deduplication changes show here.
var figureSet = []struct {
	id string
	fn func(experiments.Options) stats.Figure
}{
	{"F15", experiments.F15Speedup},
	{"F16", experiments.F16Traffic},
	{"F18", experiments.F18GPMScaling},
	{"FT", experiments.FTopology},
}

// figureOptions are the options `oovrfigures -parallel 1 -seed N` builds;
// the short mode keeps two cases at two frames.
func figureOptions(cfg config) experiments.Options {
	o := experiments.Options{Seed: cfg.seed, Parallel: 1}
	if cfg.short {
		o.Frames = 2
		o.Cases = workload.Cases()[:2]
	}
	return o
}

// runFigureSweep measures whole regenerations of the figure set. An
// operation is one simulation the figures request.
func runFigureSweep(b *bench) {
	o := figureOptions(b.cfg)

	// The sweep's plan: every RunSpec the figure functions request,
	// content-addressed, without simulating. It is not timed: the figure
	// set builds everything inside each sweep, so the workload has no
	// set-up of its own beyond the program's start.
	hashes := planSweep(o)
	distinct := map[string]bool{}
	for _, h := range hashes {
		distinct[h] = true
	}
	b.layer["experiments.runs"] = float64(len(hashes))
	b.layer["experiments.distinct_specs"] = float64(len(distinct))
	b.linef("figure set %d figures: %d runs, %d distinct content addresses", len(figureSet), len(hashes), len(distinct))

	var first []byte
	var counts simCounts
	var sweeps []float64
	b.measure(b.cfg.seconds, func(r int) {
		run := o
		runs := 0
		run.Runner = func(rs spec.RunSpec) (multigpu.Metrics, error) {
			runs++
			b.tr.nextOp()
			t0 := now()
			m, phases, err := b.execute(rs)
			b.op(t0)
			if err != nil {
				b.fail("run %d: %v", runs, err)
				return m, nil
			}
			b.check(checkMetrics(m, rs.Hardware.Config.Topology))
			if r == 0 {
				counts.add(m, phases)
			}
			return m, nil
		}
		t0 := time.Now()
		figs := make([]stats.Figure, 0, len(figureSet))
		for _, f := range figureSet {
			id := b.tr.begin("experiments." + f.id)
			tf := time.Now()
			fig := f.fn(run)
			b.tr.end(id)
			if r == 0 {
				b.layer["experiments."+f.id+"_s"] = time.Since(tf).Seconds()
			}
			b.check(checkFigure(fig))
			figs = append(figs, fig)
		}
		sweeps = append(sweeps, time.Since(t0).Seconds())
		if runs != len(hashes) {
			b.fail("sweep %d requested %d runs, its plan %d", r, runs, len(hashes))
		}
		enc, err := json.Marshal(figs)
		b.check(err)
		if r == 0 {
			first = enc
			b.digest = digest(enc)
		} else if !bytes.Equal(enc, first) {
			b.fail("sweep %d figures differ from sweep 0's", r)
		}
	})
	b.wl["sweep_s"] = median(sweeps)
	b.linef("sweep_s %.4g (median of %d sweeps)", b.wl["sweep_s"], len(sweeps))
	if b.tr != nil {
		counts.report(b.layer)
		b.spanQuantile("spec.resolve_us_p50", "spec.resolve", 0.5, time.Microsecond)
		b.spanQuantile("spec.execute_ms_p50", "spec.execute", 0.5, time.Millisecond)
		b.spanQuantile("spec.encode_us_p50", "spec.encode", 0.5, time.Microsecond)
		b.spanQuantile("spec.hash_us_p50", "spec.hash", 0.5, time.Microsecond)
		b.spanQuantile("workload.generate_ms_p50", "workload.generate", 0.5, time.Millisecond)
		b.spanQuantile("multigpu.new_ms_p50", "multigpu.new", 0.5, time.Millisecond)
		b.spanQuantile("driver.first_frame_ms_p50", "driver.first_frame", 0.5, time.Millisecond)
		b.layer["multigpu.new_alloc_kb"] = quantile(b.newAllocKB, 0.5)
		groupProbe(b, "HL2-1280")
	}
}

// planSweep lists the content address of every run the figure set
// requests, in request order, without simulating: its Runner answers each
// spec with placeholder Metrics and the figures are discarded.
func planSweep(o experiments.Options) []string {
	var hashes []string
	o.Runner = func(rs spec.RunSpec) (multigpu.Metrics, error) {
		h, err := rs.Hash()
		hashes = append(hashes, h)
		return multigpu.Metrics{TotalCycles: 1, Frames: 1, FrameLatencies: []float64{1}, InterGPMBytes: 1}, err
	}
	for _, f := range figureSet {
		f.fn(o)
	}
	return hashes
}

// execute runs one spec and returns its Metrics and phase cycles.
// Untraced, it is RunSpec.Run, the call the harness makes itself. Traced,
// it calls the spec layer's public functions in the order Run.Execute does
// for a batch run, with a span around each, then encodes the Result and
// hashes the spec as the job server would.
func (b *bench) execute(rs spec.RunSpec) (multigpu.Metrics, multigpu.PhaseCycles, error) {
	tr := b.tr
	if tr == nil {
		m, err := rs.Run()
		return m, multigpu.PhaseCycles{}, err
	}
	id := tr.begin("spec.resolve")
	run, err := rs.Resolve()
	tr.end(id)
	if err != nil {
		return multigpu.Metrics{}, multigpu.PhaseCycles{}, err
	}
	ex := tr.begin("spec.execute")
	var m multigpu.Metrics
	if run.Spec.Stream || run.Spec.Timeline {
		m = run.Execute()
	} else {
		layout, _ := spec.LayoutByName(run.Spec.Placement)
		c := run.Case
		id = tr.begin("workload.generate")
		sc := c.Spec.Generate(c.Width, c.Height, run.Spec.Frames, run.Spec.Seed)
		tr.end(id)
		id = tr.begin("multigpu.new")
		a0 := heapAllocs()
		sys := multigpu.New(run.Options, sc)
		b.newAllocKB = append(b.newAllocKB, float64(heapAllocs()-a0)/1024)
		tr.end(id)
		layout(sys)
		ses := driver.Open(sys, run.Planner)
		sys.ReserveFrames(len(sc.Frames))
		for fi := range sc.Frames {
			name := "driver.frame"
			if fi == 0 {
				name = "driver.first_frame"
			}
			id = tr.begin(name)
			ses.SubmitFrame(&sc.Frames[fi])
			tr.end(id)
		}
		id = tr.begin("driver.collect")
		m = ses.Close()
		tr.end(id)
		run.Phases = sys.Phases()
	}
	tr.end(ex)
	id = tr.begin("spec.encode")
	res, err := spec.NewResult(run.Spec, m)
	if err == nil {
		_, err = res.Encode()
	}
	tr.end(id)
	if err != nil {
		return m, run.Phases, err
	}
	id = tr.begin("spec.hash")
	_, err = rs.Hash()
	tr.end(id)
	return m, run.Phases, err
}

// simCounts sums simulated work: counts that a change meant only to speed
// up the host must leave exactly equal.
type simCounts struct {
	cycles, inter, local, linkBusy float64
	phases                         multigpu.PhaseCycles
}

func (c *simCounts) add(m multigpu.Metrics, p multigpu.PhaseCycles) {
	c.cycles += m.TotalCycles
	c.inter += m.InterGPMBytes
	c.local += m.LocalDRAMBytes
	for _, l := range m.Links {
		c.linkBusy += l.BusyCycles
	}
	c.phases.Ship += p.Ship
	c.phases.Migrate += p.Migrate
	c.phases.Execute += p.Execute
	c.phases.Compose += p.Compose
}

func (c simCounts) report(layer map[string]float64) {
	layer["sim.total_cycles"] = c.cycles
	layer["mem.inter_gpm_bytes"] = c.inter
	layer["mem.local_dram_bytes"] = c.local
	layer["link.busy_cycles"] = c.linkBusy
	layer["multigpu.ship_cycles"] = float64(c.phases.Ship)
	layer["multigpu.migrate_cycles"] = float64(c.phases.Migrate)
	layer["multigpu.execute_cycles"] = float64(c.phases.Execute)
	layer["multigpu.compose_cycles"] = float64(c.phases.Compose)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"

	"oovr/internal/core"
	"oovr/internal/service"
	"oovr/internal/spec"
	"oovr/internal/workload"
)

// fsGrid is the FS capacity figure's sweep for one scheduler, with the
// parameters experiments.FSCapacity uses: DM3-640 sessions, a 0.2 ms render
// deadline, node counts [1,2,4] by arrival rates 16..512.
func fsGrid(scheduler string, seed int64) spec.ServiceSpec {
	return spec.ServiceSpec{
		ServiceVersion:     spec.ServiceVersion,
		Nodes:              []spec.NodeGroup{{Count: 1}},
		NodeSweep:          []int{1, 2, 4},
		Scheduler:          spec.SchedulerRef{Name: scheduler},
		Sessions:           []spec.SessionMix{{Workload: "DM3-640"}},
		LambdaSweep:        []float64{16, 32, 64, 128, 256, 512},
		MeanFrames:         30,
		DeadlineMs:         0.2,
		HorizonMs:          300,
		MaxSessionsPerNode: 64,
		Seed:               seed,
	}
}

// cellPick names one cell of a scheduler's FS grid.
type cellPick struct {
	scheduler string
	nodes     int
	lambda    float64
}

// cellSlice is the service-cells workload: baseline and OO-VR cells at
// the rates where each holds its peak load (near capacity: baseline on one
// node, OO-VR on two), plus one overloaded cell. The FS grid's 64-session
// admission cap keeps its own cells from ever dropping a frame, so the
// overloaded cell starts from the grid's 1-node, λ=512 baseline cell and
// is pushed far past it (see overload).
var cellSlice = []cellPick{
	{"baseline", 1, 128},
	{"oovr", 2, 512},
	{"baseline", 1, 512},
}

// overload turns the last cell of the slice into the overloaded cell: eight
// times the arrival rate over a third of the horizon, an admission cap that
// never rejects, and a deadline so tight that a frame due while its node
// is busy is dropped. A session is evicted only after 31 drops in a row,
// so it needs a run of at least 32 frames under sustained overload. At the
// grid's λ=512 and a 0.02 ms deadline a cell evicted 0 to 9 sessions,
// depending on the seed; here every seed tried (1–30, 1000–1029 and
// 1148367040–1148367069) evicted 36 or more, so a pass without an
// eviction means the path changed, not the draw.
func overload(c *spec.ServiceSpec) {
	c.LambdaSweep = []float64{4096}
	c.HorizonMs = 100
	c.MaxSessionsPerNode = 512
	c.DeadlineMs = 0.001
}

// sliceCells expands both FS grids as the FS figure does and returns the
// slice's cells, the last made the overloaded cell. The short mode shrinks
// the horizon of the other cells to a few sessions each.
func sliceCells(cfg config) ([]spec.ServiceSpec, error) {
	grids := map[string][]spec.ServiceSpec{}
	for _, s := range []string{"baseline", "oovr"} {
		g := fsGrid(s, cfg.seed)
		if cfg.short {
			g.HorizonMs = 20
		}
		cells, err := service.CellSpecs(g)
		if err != nil {
			return nil, err
		}
		grids[s] = cells
	}
	var out []spec.ServiceSpec
	for _, p := range cellSlice {
		found := false
		for _, c := range grids[p.scheduler] {
			if c.Nodes[0].Count == p.nodes && c.LambdaSweep[0] == p.lambda {
				out = append(out, c)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("FS grid has no %s cell at %d nodes, λ=%g", p.scheduler, p.nodes, p.lambda)
		}
	}
	overload(&out[len(out)-1])
	return out, nil
}

// runServiceCells measures whole passes over the cell slice: OpenCell,
// Cell.Step until drained, Report. An operation is one Cell.Step (one
// event of the serving loop; nearly all of them render or drop a frame).
// The end-to-end values are per-cell figures combined by geometric mean:
// rendered frames per process CPU second of stepping, Step CPU-time
// percentiles on the driving thread, and heap KB per rendered frame. The
// percentiles leave the overloaded cell out: about half of its steps drop
// a frame, at a thirtieth of a render's cost, and the share the seed draws
// decides which of the two its median lands on.
func runServiceCells(b *bench) {
	// Each pass opens its cells itself, so the workload has no set-up of
	// its own beyond the program's start.
	cells, err := sliceCells(b.cfg)
	if err != nil {
		b.fail("expand the FS grids: %v", err)
		return
	}

	// Per-cell totals: how many frames a cell renders, and how many events
	// a pass takes, depend on the seed's arrival draws, so the end-to-end
	// values are per-cell rates combined by geometric mean.
	type cellTotals struct {
		frames     int
		cpuSeconds float64
		allocs     uint64
		stepsLat   []float64 // CPU ms
	}
	totals := make([]cellTotals, len(cells))
	var first []byte
	frames, dropped, evicted := 0, 0, 0
	b.measure(b.cfg.seconds, func(r int) {
		reps := make([]service.CellReport, 0, len(cells))
		for i, c := range cells {
			t := &totals[i]
			a0 := heapAllocs()
			id := b.tr.begin("service.open_cell")
			cell, err := service.OpenCell(c)
			b.tr.end(id)
			if err != nil {
				b.fail("open cell: %v", err)
				continue
			}
			c0 := processCPU()
			for more := true; more; {
				b.tr.nextOp()
				id := b.tr.begin("service.step")
				t0 := now()
				more = cell.Step()
				_, cpu := b.op(t0)
				b.tr.end(id)
				t.stepsLat = append(t.stepsLat, ms(cpu))
			}
			t.cpuSeconds += (processCPU() - c0).Seconds()
			id = b.tr.begin("service.report")
			rep := cell.Report()
			b.tr.end(id)
			t.allocs += heapAllocs() - a0
			t.frames += rep.Frames
			b.check(checkCell(rep, c.DeadlineMs))
			if i == len(cells)-1 {
				b.check(checkOverload(rep))
			}
			reps = append(reps, rep)
		}
		enc, err := json.Marshal(reps)
		b.check(err)
		if r == 0 {
			first = enc
			b.digest = digest(enc)
			for _, rep := range reps {
				frames += rep.Frames
				dropped += rep.DroppedFrames
				evicted += rep.DroppedSessions
			}
		} else if !bytes.Equal(enc, first) {
			b.fail("pass %d cell reports differ from pass 0's", r)
		}
	})
	var rate, p50, p90, kb []float64
	frameTotal := 0
	for _, t := range totals {
		frameTotal += t.frames
		rate = append(rate, float64(t.frames)/t.cpuSeconds)
		p50 = append(p50, quantile(t.stepsLat, 0.5))
		p90 = append(p90, quantile(t.stepsLat, 0.9))
		kb = append(kb, float64(t.allocs)/1024/float64(t.frames))
	}
	capacity := len(cells) - 1
	b.e2e["ops_per_cpu_s"] = geomean(rate)
	b.e2e["op_cpu_ms_p50"] = geomean(p50[:capacity])
	b.e2e["op_cpu_ms_p90"] = geomean(p90[:capacity])
	b.e2e["alloc_kb_per_op"] = geomean(kb)
	b.wl["sim_frames_per_s"] = float64(frameTotal) / b.elapsed
	b.linef("%d cells per pass: %d frames, %d dropped frames, %d evicted sessions; sim_frames_per_s %.4g over the whole run",
		len(cells), frames, dropped, evicted, b.wl["sim_frames_per_s"])
	for i := range totals {
		b.linef("  cell %d: %.4g frames/CPU-s, step CPU p50 %.4gms p90 %.4gms, %.4g KB/frame", i, rate[i], p50[i], p90[i], kb[i])
	}
	if b.tr != nil {
		b.layer["service.frames"] = float64(frames)
		b.layer["service.dropped_frames"] = float64(dropped)
		b.spanQuantile("service.open_cell_ms", "service.open_cell", 0.5, time.Millisecond)
		b.spanQuantile("service.step_us_p50", "service.step", 0.5, time.Microsecond)
		b.spanQuantile("service.step_us_p99", "service.step", 0.99, time.Microsecond)
		groupProbe(b, "DM3-640")
	}
}

// groupProbe times TSL grouping on eight frames of a case: the
// middleware's from-scratch grouping, and the Grouper's signature-hit path
// (a repeated call on an unchanged frame structure). The Grouper's rebuild
// count confirms the timed calls hit.
func groupProbe(b *bench, caseName string) {
	c, ok := workload.CaseByName(caseName)
	if !ok {
		b.fail("unknown case %s", caseName)
		return
	}
	sc := c.Spec.Generate(c.Width, c.Height, 8, b.cfg.seed)
	mw := core.NewMiddleware()
	g := core.NewGrouper(mw)
	for fi := range sc.Frames {
		f := &sc.Frames[fi]
		id := b.tr.begin("core.group_cold")
		mw.GroupFrame(sc, f)
		b.tr.end(id)
		g.GroupFrame(sc, f)
		rebuilds := g.Rebuilds
		id = b.tr.begin("core.group")
		g.GroupFrame(sc, f)
		b.tr.end(id)
		if g.Rebuilds != rebuilds {
			b.fail("grouper rebuilt an unchanged frame %d of %s", fi, caseName)
		}
	}
	b.spanQuantile("core.group_cold_ms_p50", "core.group_cold", 0.5, time.Millisecond)
	b.spanQuantile("core.group_ms_p50", "core.group", 0.5, time.Millisecond)
}

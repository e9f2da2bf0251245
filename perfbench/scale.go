package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"time"

	"oovr/internal/driver"
	"oovr/internal/multigpu"
	"oovr/internal/scene"
	"oovr/internal/spec"
	"oovr/internal/topo"
	"oovr/internal/workload"
)

// scaleConfig is one streamed configuration of the gpm-scale workload and
// how many frames it renders per round. Above 16 GPMs, mem's per-GPM flow
// vectors and per-access scratch dominate a frame; nothing else in the
// benchmark goes past 8 GPMs. Rounds render three frames at 16 GPMs for
// each one at 64, so the operation p50 is a 16-GPM frame and the p90 a
// 64-GPM frame, each well inside its class.
type scaleConfig struct {
	gpms      int
	scheduler string
	perRound  int
}

var scaleConfigs = []scaleConfig{
	{16, "baseline", 3},
	{16, "oovr", 3},
	{64, "baseline", 1},
	{64, "oovr", 1},
}

// warmFrames are rendered during set-up: the cold first frames build the
// planners' caches, so the timed frames are steady-state ones.
const warmFrames = 3

type scaleSession struct {
	cfg       scaleConfig
	st        *workload.Stream
	sys       *multigpu.System
	ses       *driver.Session
	frame     scene.Frame
	submitted int
}

// scaleCase is the streamed scene: HL2-1280, or DM3-640 at 4 and 8 GPMs in
// the short mode.
func scaleCase(cfg config) (workload.Case, []scaleConfig) {
	if cfg.short {
		c, _ := workload.CaseByName("DM3-640")
		return c, []scaleConfig{{4, "baseline", 3}, {4, "oovr", 3}, {8, "baseline", 1}, {8, "oovr", 1}}
	}
	c, _ := workload.CaseByName("HL2-1280")
	return c, scaleConfigs
}

func scaleOptions(gpms int) multigpu.Options {
	opt := multigpu.DefaultOptions()
	opt.Config = opt.Config.WithGPMs(gpms)
	return opt
}

// openScale opens one configuration's unbounded stream and session and
// renders its warm-up frames.
func openScale(b *bench, c workload.Case, sc scaleConfig, seed int64) (*scaleSession, error) {
	s := &scaleSession{cfg: sc, st: c.Spec.Stream(c.Width, c.Height, 0, seed)}
	id := b.tr.begin("multigpu.new")
	a0 := heapAllocs()
	s.sys = multigpu.New(scaleOptions(sc.gpms), s.st.Header())
	if b.tr != nil {
		b.newAllocKB = append(b.newAllocKB, float64(heapAllocs()-a0)/1024)
	}
	b.tr.end(id)
	p, err := spec.NewPlanner(sc.scheduler, nil)
	if err != nil {
		return nil, err
	}
	s.ses = driver.Open(s.sys, p)
	for i := 0; i < warmFrames; i++ {
		name := "driver.warm_frame"
		if i == 0 {
			name = "driver.first_frame"
		}
		s.next(b, name)
	}
	return s, nil
}

// next streams and renders one frame, returning its completion time.
func (s *scaleSession) next(b *bench, name string) float64 {
	id := b.tr.begin("workload.next")
	ok := s.st.NextInto(&s.frame)
	b.tr.end(id)
	if !ok {
		b.fail("stream of %s at %d GPMs ended", s.cfg.scheduler, s.cfg.gpms)
		return 0
	}
	id = b.tr.begin(name)
	done := s.ses.SubmitFrame(&s.frame)
	b.tr.end(id)
	s.submitted++
	return float64(done)
}

// scaleEpochs is how many scenes a run streams, one after another: the
// heap a warm 64-GPM frame allocates, and a 16-GPM frame's time, differ
// between scenes by up to half, so a run averages over several.
const scaleEpochs = 8

// runGPMScale measures rounds of streamed frames across the configurations,
// in scaleEpochs epochs that each open every configuration on a scene of
// their own, measure for an equal share of the run, and close. An
// operation is one SubmitFrame.
func runGPMScale(b *bench) {
	c, configs := scaleCase(b.cfg)
	var first bytes.Buffer
	frames := 0
	lat := map[scaleConfig][]float64{} // frame latencies of all epochs
	for e := 0; e < scaleEpochs; e++ {
		seed := b.cfg.seed*scaleEpochs + int64(e)
		var sessions []*scaleSession
		// Set-up: stream headers, multigpu.New (route tables included) and
		// the warm-up frames of every configuration.
		b.setup(1, func() {
			for _, sc := range configs {
				s, err := openScale(b, c, sc, seed)
				if err != nil {
					b.fail("open %s at %d GPMs: %v", sc.scheduler, sc.gpms, err)
					continue
				}
				sessions = append(sessions, s)
			}
		})
		b.measure(b.cfg.seconds/scaleEpochs, func(r int) {
			for _, s := range sessions {
				for k := 0; k < s.cfg.perRound; k++ {
					b.tr.nextOp()
					t0 := now()
					done := s.next(b, fmt.Sprintf("driver.frame.g%d", s.cfg.gpms))
					_, cpu := b.op(t0)
					lat[s.cfg] = append(lat[s.cfg], ms(cpu))
					if e == 0 && r == 0 {
						binary.Write(&first, binary.LittleEndian, math.Float64bits(done))
					}
				}
			}
		})
		for _, s := range sessions {
			if s.ses.Frames() != s.submitted {
				b.fail("%s at %d GPMs rendered %d of %d frames", s.cfg.scheduler, s.cfg.gpms, s.ses.Frames(), s.submitted)
			}
			m := s.ses.Close()
			if m.Frames != s.submitted {
				b.fail("%s at %d GPMs: metrics count %d frames, %d submitted", s.cfg.scheduler, s.cfg.gpms, m.Frames, s.submitted)
			}
			b.check(checkMetrics(m, ""))
			frames += s.submitted - warmFrames
		}
	}
	for _, sc := range configs {
		b.linef("%s at %d GPMs: %d timed frames over %d scenes, CPU p50 %.4gms", sc.scheduler, sc.gpms, len(lat[sc]), scaleEpochs, quantile(lat[sc], 0.5))
	}
	b.digest = digest(first.Bytes())
	b.wl["sim_frames_per_s"] = float64(frames) / b.elapsed
	if b.tr == nil {
		return
	}
	for _, g := range []int{16, 64} {
		b.spanQuantile(fmt.Sprintf("driver.frame_ms_p50.g%d", g), fmt.Sprintf("driver.frame.g%d", g), 0.5, time.Millisecond)
	}
	b.spanQuantile("workload.next_us_p50", "workload.next", 0.5, time.Microsecond)
	b.spanQuantile("multigpu.new_ms_p50", "multigpu.new", 0.5, time.Millisecond)
	b.spanQuantile("driver.first_frame_ms_p50", "driver.first_frame", 0.5, time.Millisecond)
	b.layer["multigpu.new_alloc_kb"] = quantile(b.newAllocKB, 0.5)

	largest := configs[len(configs)-1].gpms
	id := b.tr.begin("topo.build")
	t0 := time.Now()
	_, err := topo.Build(scaleOptions(largest).Config.TopologyParams())
	b.layer["topo.build_ms"] = ms(time.Since(t0))
	b.tr.end(id)
	b.check(err)

	// Streamed and batch rendering of the same scene must agree exactly;
	// the batch Metrics are also the workload's seed-determined count of
	// simulated work.
	eq := configs[1]
	m, phases, err := streamVersusBatch(c, eq, 4, b.cfg.seed)
	b.check(err)
	var counts simCounts
	counts.add(m, phases)
	counts.report(b.layer)
	groupProbe(b, c.Name)
}

// streamVersusBatch renders frames of a case through a streaming session
// and through a batch driver.Run of the generated scene, and reports an
// error unless the two Metrics are identical.
func streamVersusBatch(c workload.Case, sc scaleConfig, frames int, seed int64) (multigpu.Metrics, multigpu.PhaseCycles, error) {
	planner := func() driver.Planner {
		p, err := spec.NewPlanner(sc.scheduler, nil)
		if err != nil {
			panic(err) // the scheduler opened a session in set-up
		}
		return p
	}
	st := c.Spec.Stream(c.Width, c.Height, frames, seed)
	ses := driver.Open(multigpu.New(scaleOptions(sc.gpms), st.Header()), planner())
	for {
		f, ok := st.Next()
		if !ok {
			break
		}
		ses.SubmitFrame(f)
	}
	streamed := ses.Close()
	sys := multigpu.New(scaleOptions(sc.gpms), c.Spec.Generate(c.Width, c.Height, frames, seed))
	batch := driver.Run(sys, planner())
	a, _ := json.Marshal(streamed)
	bb, _ := json.Marshal(batch)
	if !bytes.Equal(a, bb) {
		return batch, sys.Phases(), fmt.Errorf("%s at %d GPMs: streamed metrics differ from batch driver.Run", sc.scheduler, sc.gpms)
	}
	if err := checkMetrics(batch, ""); err != nil {
		return batch, sys.Phases(), err
	}
	return batch, sys.Phases(), nil
}

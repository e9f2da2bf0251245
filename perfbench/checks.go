package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"oovr/internal/fleet"
	"oovr/internal/multigpu"
	"oovr/internal/service"
	"oovr/internal/stats"
	"oovr/internal/topo"
)

// The checks below test properties the simulator's outputs must have, or
// compare against a result computed apart from the path being checked.
// None of them compares against a stored copy of an earlier output.

// relTol absorbs float summation order: a conservation law computed by
// summing the same byte counts in another order may differ in the last
// bits.
const relTol = 1e-9

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}

// checkMetrics verifies the conservation laws and bounds of one run's
// Metrics. topology names the run's interconnect ("" is the full mesh). On
// the full mesh every flow takes one hop, so per-link bytes must sum to the
// inter-GPM total; on routed topologies a flow is counted on every hop, so
// the sum is at least that total.
func checkMetrics(m multigpu.Metrics, topology string) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	remote := m.RemoteTextureBytes + m.RemoteCompositionBytes + m.RemoteDepthBytes + m.RemoteCommandBytes + m.RemoteVertexBytes
	if !approxEqual(remote, m.InterGPMBytes) {
		bad("remote breakdown sums to %g, inter-GPM bytes are %g", remote, m.InterGPMBytes)
	}
	var linkBytes float64
	for _, l := range m.Links {
		linkBytes += l.Bytes
		if l.Utilization > 1+relTol || l.Utilization < 0 {
			bad("link %s utilization %g outside [0,1]", l.Name, l.Utilization)
		}
	}
	if len(m.Links) > 0 {
		if topo.CanonicalName(topology) == topo.Default {
			if !approxEqual(linkBytes, m.InterGPMBytes) {
				bad("full-mesh link bytes sum to %g, inter-GPM bytes are %g", linkBytes, m.InterGPMBytes)
			}
		} else if linkBytes < m.InterGPMBytes*(1-relTol) {
			bad("routed link bytes sum to %g, below inter-GPM bytes %g", linkBytes, m.InterGPMBytes)
		}
	}
	for g, c := range m.GPMBusyCycles {
		if c > m.TotalCycles*(1+relTol) {
			bad("GPM %d busy %g cycles, run took %g", g, c, m.TotalCycles)
		}
	}
	for f, l := range m.FrameLatencies {
		if l > m.TotalCycles*(1+relTol) {
			bad("frame %d latency %g cycles, run took %g", f, l, m.TotalCycles)
		}
	}
	if len(m.FrameLatencies) != m.Frames {
		bad("%d frame latencies for %d frames", len(m.FrameLatencies), m.Frames)
	}
	if len(m.GPMBusyCycles) == 1 && m.InterGPMBytes != 0 {
		bad("single-GPM run moved %g inter-GPM bytes", m.InterGPMBytes)
	}
	if m.TotalCycles <= 0 || !finite(m.TotalCycles) {
		bad("total cycles %g", m.TotalCycles)
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("%s/%s metrics: %w", m.Workload, m.Scheme, err)
	}
	return nil
}

// checkFigure verifies every value of a figure is finite and positive, and
// that F16's normalizing Baseline series is exactly 1.
func checkFigure(f stats.Figure) error {
	for _, s := range f.Series {
		for i, v := range s.Values {
			if !finite(v) || v <= 0 {
				return fmt.Errorf("%s series %q at %s: value %g", f.ID, s.Name, f.XLabels[i], v)
			}
			if f.ID == "Figure 16" && s.Name == "Baseline" && v != 1 {
				return fmt.Errorf("%s Baseline at %s is %g, want exactly 1", f.ID, f.XLabels[i], v)
			}
		}
	}
	return nil
}

// checkCell verifies a drained cell's conservation laws, percentile order
// and utilization bounds, and recomputes SLOMet from its definition.
func checkCell(c service.CellReport, deadlineMs float64) error {
	var errs []error
	bad := func(format string, args ...any) { errs = append(errs, fmt.Errorf(format, args...)) }
	if c.Arrivals != c.Admitted+c.Rejected {
		bad("arrivals %d != admitted %d + rejected %d", c.Arrivals, c.Admitted, c.Rejected)
	}
	if c.Admitted != c.Completed+c.DroppedSessions {
		bad("admitted %d != completed %d + dropped %d", c.Admitted, c.Completed, c.DroppedSessions)
	}
	sum := 0
	for _, n := range c.NodeSessions {
		sum += n
	}
	if sum != c.Admitted {
		bad("node sessions sum to %d, admitted %d", sum, c.Admitted)
	}
	if !(c.P50Ms <= c.P95Ms && c.P95Ms <= c.P99Ms && c.P99Ms <= c.MaxMs) {
		bad("percentiles out of order: p50 %g p95 %g p99 %g max %g", c.P50Ms, c.P95Ms, c.P99Ms, c.MaxMs)
	}
	for i, u := range c.NodeUtilization {
		if !(u >= 0 && u <= 1) {
			bad("node %d utilization %g outside [0,1]", i, u)
		}
	}
	slo := c.Rejected == 0 && c.DroppedFrames == 0 && c.DroppedSessions == 0 && c.P99Ms <= deadlineMs
	if c.SLOMet != slo {
		bad("slo_met %v, definition gives %v", c.SLOMet, slo)
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("cell nodes=%d lambda=%g: %w", c.Nodes, c.Lambda, err)
	}
	return nil
}

// checkOverload verifies that the overloaded cell is overloaded: it is in
// the slice to run the drop and evict paths, so a report with no dropped
// frame or no evicted session means those paths no longer ran.
func checkOverload(c service.CellReport) error {
	if c.DroppedFrames == 0 || c.DroppedSessions == 0 {
		return fmt.Errorf("overloaded cell nodes=%d lambda=%g: %d dropped frames, %d evicted sessions; both must be non-zero",
			c.Nodes, c.Lambda, c.DroppedFrames, c.DroppedSessions)
	}
	return nil
}

// checkBody verifies a /run response body. A hit must be byte-identical to
// the body the spec's miss returned (stored), which was itself verified; a
// miss (stored nil) must decode as a Result whose embedded spec re-hashes
// to its content address.
func checkBody(body, stored []byte) error {
	if stored != nil {
		if !bytes.Equal(body, stored) {
			return fmt.Errorf("cached body (%d bytes) differs from the body its miss stored (%d bytes)", len(body), len(stored))
		}
		return nil
	}
	_, err := fleet.DecodeVerifiedResult(body)
	return err
}

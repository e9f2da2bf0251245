package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sort"
	"syscall"
	"time"
	"unsafe"
)

// perLayer lists the per-layer metrics the traced mode prints, with their
// units. README.md names the end-to-end metric each one should move. A
// metric whose layer the workload does not reach reads 0.
var perLayer = []struct{ name, unit string }{
	{"experiments.runs", "count"},
	{"experiments.distinct_specs", "count"},
	{"experiments.F15_s", "s"},
	{"experiments.F16_s", "s"},
	{"experiments.F18_s", "s"},
	{"experiments.FT_s", "s"},
	{"spec.resolve_us_p50", "us"},
	{"spec.execute_ms_p50", "ms"},
	{"spec.encode_us_p50", "us"},
	{"spec.hash_us_p50", "us"},
	{"spec.decode_us_p50", "us"},
	{"workload.generate_ms_p50", "ms"},
	{"workload.next_us_p50", "us"},
	{"multigpu.new_ms_p50", "ms"},
	{"multigpu.new_alloc_kb", "KB"},
	{"topo.build_ms", "ms"},
	{"driver.first_frame_ms_p50", "ms"},
	{"driver.frame_ms_p50.g16", "ms"},
	{"driver.frame_ms_p50.g64", "ms"},
	{"core.group_ms_p50", "ms"},
	{"core.group_cold_ms_p50", "ms"},
	{"service.open_cell_ms", "ms"},
	{"service.step_us_p50", "us"},
	{"service.step_us_p99", "us"},
	{"server.hit_us_p50", "us"},
	{"server.runs", "count"},
	{"server.cache_hits", "count"},
	{"server.single_flight_waits", "count"},
	{"fleet.lease_us_p50", "us"},
	{"fleet.complete_us_p50", "us"},
	{"fleet.submit_ms", "ms"},
	{"fleet.collect_ms", "ms"},
	{"sim.total_cycles", "cycles"},
	{"mem.inter_gpm_bytes", "B"},
	{"mem.local_dram_bytes", "B"},
	{"link.busy_cycles", "cycles"},
	{"multigpu.ship_cycles", "cycles"},
	{"multigpu.migrate_cycles", "cycles"},
	{"multigpu.execute_cycles", "cycles"},
	{"multigpu.compose_cycles", "cycles"},
	{"service.frames", "count"},
	{"service.dropped_frames", "count"},
	{"sweep_s", "s"},
	{"sim_frames_per_s", "1/s"},
	{"requests_per_s", "1/s"},
	{"hit_ms_p50", "ms"},
	{"hit_ms_p90", "ms"},
	{"miss_ms_p50", "ms"},
	{"miss_ms_p90", "ms"},
	{"fleet_specs_per_s", "1/s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"peak_rss_mb", "MB"},
	{"trace.overhead_pct", "%"},
}

// childResult is what a measuring child reports to its parent.
type childResult struct {
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Errors     []string           `json:"errors,omitempty"`
	Lines      []string           `json:"lines,omitempty"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Workload   map[string]float64 `json:"workload"`
	Layer      map[string]float64 `json:"layer"`
	Digest     string             `json:"digest"`
	PeakRSSMB  float64            `json:"peak_rss_mb"`
	CPUSeconds float64            `json:"cpu_seconds"`
}

func (r childResult) correct() bool { return len(r.Errors) == 0 }

// maxErrors bounds the check failures a run reports in full; the rest are
// only counted.
const maxErrors = 20

// bench is one child's measurement state: operation latencies, check
// failures, set-up times, and (traced) spans and per-layer metrics.
type bench struct {
	cfg    config
	tr     *tracer   // nil in untraced runs
	lat    []float64 // wall ms per operation
	cpuLat []float64 // CPU ms per operation
	failed int
	errs   []string
	lines  []string
	setups []float64

	elapsed    float64
	cpuSeconds float64 // process CPU time of the measured phases
	allocBytes uint64
	e2e        map[string]float64 // end-to-end values a workload defines itself
	layer      map[string]float64 // per-layer metrics of a traced run
	wl         map[string]float64 // wall-clock workload figures (sweep_s, ...)
	digest     string
	newAllocKB []float64 // heap KB of each traced multigpu.New
}

// newBench pins the calling goroutine, the one that drives the program,
// to its OS thread for good, so that thread's CPU clock is the goroutine's
// own (see threadCPU).
func newBench(cfg config) *bench {
	runtime.LockOSThread()
	b := &bench{cfg: cfg, e2e: map[string]float64{}, layer: map[string]float64{}, wl: map[string]float64{}}
	if cfg.trace {
		b.tr = newTracer()
	}
	return b
}

// stamp is a point in wall time and in the calling thread's CPU time.
type stamp struct {
	wall time.Time
	cpu  time.Duration
}

func now() stamp { return stamp{time.Now(), threadCPU()} }

// threadCPU is the calling OS thread's CPU time. The driving goroutine is
// locked to its thread (newBench), so this is the time that goroutine ran;
// time the hypervisor takes the CPU away does not count.
func threadCPU() time.Duration {
	var ts syscall.Timespec
	const clockThreadCPUTimeID = 3
	// clock_gettime cannot fail for this clock and a valid pointer.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// processCPU is the user and system CPU time of the whole process, garbage
// collection included.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF

	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// op records one completed operation started at s, and returns its wall
// and CPU latencies.
func (b *bench) op(s stamp) (wall, cpu time.Duration) {
	wall, cpu = time.Since(s.wall), threadCPU()-s.cpu
	b.lat = append(b.lat, ms(wall))
	b.cpuLat = append(b.cpuLat, ms(cpu))
	return wall, cpu
}

// fail counts a failed operation: a check on an output did not hold.
func (b *bench) fail(format string, args ...any) {
	b.failed++
	if len(b.errs) < maxErrors {
		b.errs = append(b.errs, fmt.Sprintf(format, args...))
	}
}

// check counts err, if any, as a failed operation.
func (b *bench) check(err error) {
	if err != nil {
		b.fail("%v", err)
	}
}

func (b *bench) linef(format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf(format, args...))
}

// setup runs one set-up n times, taking the process CPU time of each;
// their median is the in-process part of setup_s (the parent adds the
// program's start). The last repetition's state is the one the workload
// keeps.
func (b *bench) setup(n int, fn func()) {
	for i := 0; i < n; i++ {
		runtime.GC()
		c0 := processCPU()
		fn()
		b.setups = append(b.setups, (processCPU() - c0).Seconds())
	}
}

// measure runs whole rounds, at least one, and stops at the round boundary
// nearest to the given seconds of wall time. A collection first makes the
// timed phase start from a settled heap. It adds the wall time taken, the
// process CPU time spent (garbage collection on every thread included) and
// the bytes allocated meanwhile to the run's totals.
func (b *bench) measure(seconds float64, round func(r int)) {
	runtime.GC()
	a0 := heapAllocs()
	c0 := processCPU()
	t0 := time.Now()
	for r := 0; ; r++ {
		round(r)
		done := time.Since(t0).Seconds()
		if done+done/float64(r+1)/2 >= seconds {
			break
		}
	}
	b.elapsed += time.Since(t0).Seconds()
	b.cpuSeconds += (processCPU() - c0).Seconds()
	b.allocBytes += heapAllocs() - a0
}

func (b *bench) result() (childResult, error) {
	n := len(b.lat)
	cpuMs := 0.0
	for _, c := range b.cpuLat {
		cpuMs += c
	}
	e2e := map[string]float64{
		"setup_s":         median(b.setups),
		"ops_per_cpu_s":   float64(n) / b.cpuSeconds,
		"op_cpu_ms_p50":   quantile(b.cpuLat, 0.50),
		"op_cpu_ms_p90":   quantile(b.cpuLat, 0.90),
		"alloc_kb_per_op": float64(b.allocBytes) / 1024 / float64(max(n, 1)),
	}
	for k, v := range b.e2e {
		e2e[k] = v
	}
	b.wl["ops_per_s"] = float64(n) / b.elapsed
	b.wl["op_ms_p50"] = quantile(b.lat, 0.50)
	b.wl["op_ms_p90"] = quantile(b.lat, 0.90)
	b.linef("measured %d ops in %.3fs: %.3fs of process CPU, %.3fs on the driving thread; set-up %.4g CPU-s (median of %d); %.4g KB/op",
		n, b.elapsed, b.cpuSeconds, cpuMs/1000, e2e["setup_s"], len(b.setups), e2e["alloc_kb_per_op"])
	b.linef("  CPU:  %.4g ops/s, op p50 %.4gms p90 %.4gms", e2e["ops_per_cpu_s"], e2e["op_cpu_ms_p50"], e2e["op_cpu_ms_p90"])
	b.linef("  wall: %.4g ops/s, op p50 %.4gms p90 %.4gms", b.wl["ops_per_s"], b.wl["op_ms_p50"], b.wl["op_ms_p90"])
	b.linef("output digest %s", b.digest)
	if b.tr != nil {
		b.lines = append(b.lines, b.tr.selfTimeTable()...)
		path, err := b.tr.write(b.cfg)
		if err != nil {
			return childResult{}, fmt.Errorf("writing spans: %w", err)
		}
		b.linef("spans written to %s", path)
	}
	return childResult{
		Attempted: max(n, 1),
		Failed:    b.failed,
		Errors:    b.errs,
		Lines:     b.lines,
		EndToEnd:  e2e,
		Workload:  b.wl,
		Layer:     b.layer,
		Digest:    b.digest,
	}, nil
}

// heapAllocs is the cumulative count of bytes allocated on the heap.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile is the nearest-rank quantile of an unsorted sample (copied).
func quantile(sample []float64, q float64) float64 {
	if len(sample) == 0 {
		return 0
	}
	s := slices.Clone(sample)
	slices.Sort(s)
	rank := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(rank, 0), len(s)-1)]
}

func median(sample []float64) float64 { return quantile(sample, 0.5) }

// geomean is the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += math.Log(v)
	}
	return math.Exp(s / float64(len(vals)))
}

// span is one timed call into a layer, recorded by the benchmark's own
// code. Spans of one operation share its op id.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

// tracer keeps spans in memory until the run ends. Its methods are no-ops
// on a nil tracer, so untraced runs take the same code path.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32
	op    int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// nextOp starts a new operation; later spans carry its id.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Op: t.op})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// durations returns the durations of every span with the given name, in
// the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// spanQuantile sets layer metric key to quantile q of the named spans.
func (b *bench) spanQuantile(key, name string, q float64, unit time.Duration) {
	if d := b.tr.durations(name, unit); len(d) > 0 {
		b.layer[key] = quantile(d, q)
	}
}

// selfTimeTable aggregates spans by name: a span's self time is its
// duration minus the time its child spans cover.
func (t *tracer) selfTimeTable() []string {
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	var names []string
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - child[i]
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	out := []string{fmt.Sprintf("%-28s %9s %12s %12s", "layer span", "count", "total_ms", "self_ms")}
	for _, n := range names {
		a := by[n]
		out = append(out, fmt.Sprintf("%-28s %9d %12.3f %12.3f", n, a.n, float64(a.total)/1e6, float64(a.self)/1e6))
	}
	return out
}

// write stores the spans as JSON lines in the output directory.
func (t *tracer) write(cfg config) (string, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// Command perfbench is the repository's benchmark. It runs one workload
// against the simulator and its serving stack, through the public functions
// of the oovr/internal packages only, checks the workload's outputs, and
// prints its metrics. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root, through perfbench/run.sh, which builds
// this package first):
//
//	perfbench --workload figure-sweep|service-cells|oovrd-mix|gpm-scale
//	          --seed N --seconds S --trace 0|1 [--out DIR] [--commit SHA]
//
// setup_s is the program's start (the median CPU time of startups
// processes of this binary that exit as soon as they have started) plus
// the workload's own set-up, where it has one.
//
// Each measured run happens in a fresh child process (this binary re-run
// with --child), so no run inherits a warm heap or warm caches from
// another, and the child's peak RSS is read from its rusage. With
// --trace 0 one untraced child measures for S seconds and the end-to-end
// metrics are printed. With --trace 1 an untraced child and a traced child
// each measure for S/2 seconds; the traced child records spans around the
// calls into each layer, writes them to DIR, and the per-layer metrics are
// printed together with the tracing overhead. The two children's outputs
// (figures, cell reports, response bodies) must be identical.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads maps each workload name to the function that runs it inside a
// child process.
var workloads = map[string]func(b *bench){
	"figure-sweep":  runFigureSweep,
	"service-cells": runServiceCells,
	"oovrd-mix":     runOovrdMix,
	"gpm-scale":     runGPMScale,
}

// endToEnd lists the end-to-end metrics every workload prints with
// --trace 0, with their units. README.md says what an operation is in
// each workload.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_cpu_s", "1/s"},
	{"op_cpu_ms_p50", "ms"},
	{"op_cpu_ms_p90", "ms"},
	{"alloc_kb_per_op", "KB"},
}

// runTimeout bounds the child processes of one run together: the whole
// command must finish within 180 seconds.
const runTimeout = 170 * time.Second

// startups is how many times a --trace 0 run starts the program to time
// its start.
const startups = 15

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	short    bool // tiny inputs, for the package's own tests
	out      string
}

func main() {
	var cfg config
	var trace int
	var child, startup bool
	var commit string
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: figure-sweep, service-cells, oovrd-mix, gpm-scale")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; every input is generated from it")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run (whole rounds; at least one)")
	flag.IntVar(&trace, "trace", 0, "1: run an untraced and a traced child and print the per-layer metrics")
	flag.StringVar(&cfg.out, "out", ".bench_build/perfbench-out", "directory for span files")
	flag.StringVar(&commit, "commit", "unknown", "commit of the code under test, printed as metadata")
	flag.BoolVar(&child, "child", false, "internal: measure in this process and print the raw result")
	flag.BoolVar(&startup, "startup", false, "internal: exit as soon as the program has started")
	flag.Parse()
	if startup {
		return
	}

	run, ok := workloads[cfg.workload]
	if !ok || flag.NArg() > 0 || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	cfg.trace = trace == 1
	if child {
		b := newBench(cfg)
		run(b)
		res, err := b.result()
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}

	fmt.Printf("# perfbench workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, trace)
	fmt.Printf("# commit=%s go=%s gomaxprocs=%d cpu=%q\n", commit, runtime.Version(), runtime.GOMAXPROCS(0), cpuModel())
	if err := parent(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// parent runs the child processes a mode needs and prints the result line.
func parent(cfg config) error {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	if !cfg.trace {
		start, err := startupCPU(ctx)
		if err != nil {
			return err
		}
		res, err := spawn(ctx, cfg, cfg.seconds, false)
		if err != nil {
			return err
		}
		printLines(res)
		fmt.Printf("child process: peak RSS %.1f MB, CPU %.3fs\n", res.PeakRSSMB, res.CPUSeconds)
		fmt.Printf("program start: %.4g CPU-ms (median of %d starts); setup_s = start + workload set-up %.4g s\n",
			start*1000, startups, res.EndToEnd["setup_s"])
		res.EndToEnd["setup_s"] += start
		out := output{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{Value: res.EndToEnd[m.name], Unit: m.unit}
		}
		return printJSON(out)
	}

	half := cfg.seconds / 2
	plain, err := spawn(ctx, cfg, half, false)
	if err != nil {
		return err
	}
	traced, err := spawn(ctx, cfg, half, true)
	if err != nil {
		return err
	}
	printLines(plain)
	printLines(traced)
	correct := plain.correct() && traced.correct()
	failed := plain.Failed + traced.Failed
	if plain.Digest != traced.Digest {
		fmt.Printf("CHECK FAILED: traced outputs differ from untraced (%s vs %s)\n", short(traced.Digest), short(plain.Digest))
		correct = false
		failed++
	}
	layer := traced.Layer
	// Workload-level figures come from the untraced child: they are the
	// numbers a user waits for, without span recording in the way.
	for k, v := range plain.Workload {
		layer[k] = v
	}
	overhead := 0.0
	if o := traced.EndToEnd["ops_per_cpu_s"]; o > 0 {
		overhead = (plain.EndToEnd["ops_per_cpu_s"]/o - 1) * 100
	}
	layer["trace.overhead_pct"] = overhead
	layer["peak_rss_mb"] = plain.PeakRSSMB
	fmt.Printf("tracing overhead: %.1f%% (untraced %.4g ops/CPU-s, traced %.4g ops/CPU-s)\n",
		overhead, plain.EndToEnd["ops_per_cpu_s"], traced.EndToEnd["ops_per_cpu_s"])
	out := output{Correct: correct, Attempted: plain.Attempted + traced.Attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		out.Metrics[m.name] = metric{Value: layer[m.name], Unit: m.unit}
	}
	return printJSON(out)
}

func printLines(res childResult) {
	for _, l := range res.Lines {
		fmt.Println(l)
	}
	for _, e := range res.Errors {
		fmt.Println("CHECK FAILED:", e)
	}
}

func printJSON(out output) error {
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func short(s string) string {
	if len(s) > 12 {
		return s[:12]
	}
	return s
}

// spawn runs one measuring child of this binary and returns its result,
// with the child's peak RSS taken from its rusage.
func spawn(ctx context.Context, cfg config, seconds float64, traced bool) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "--child",
		"--workload", cfg.workload,
		"--seed", strconv.FormatInt(cfg.seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"--trace", map[bool]string{false: "0", true: "1"}[traced],
		"--out", cfg.out)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return childResult{}, fmt.Errorf("child %s: %w", cfg.workload, err)
	}
	var res childResult
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
		return childResult{}, fmt.Errorf("child %s: bad result: %w", cfg.workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	res.CPUSeconds = (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds()
	return res, nil
}

// startupCPU starts this binary startups times, each exiting as soon as
// its flags are parsed, and returns the median CPU seconds of one start:
// the Go runtime and the initialisation of every oovr/internal package the
// benchmark links, which every command of the program pays before its
// first operation.
func startupCPU(ctx context.Context) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cpu := make([]float64, 0, startups)
	for i := 0; i < startups; i++ {
		cmd := exec.CommandContext(ctx, exe, "--startup")
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("program start: %w", err)
		}
		cpu = append(cpu, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	}
	return median(cpu), nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// cpuModel reads the processor name for the run's metadata.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(io.LimitReader(f, 1<<20))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

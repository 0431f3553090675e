// Command perfbench is carsgo's benchmark. It runs one named workload
// for a fixed window, checks the program's outputs, and prints one
// JSON object as the last line of standard output:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":V,"unit":"U"},...}}
//
// Untraced (--trace 0) it reports the end-to-end metrics; traced
// (--trace 1) it records spans around its own calls into each layer,
// writes them to .bench_build/traces/, and reports the per-layer
// metrics. See README.md for the workloads and every metric.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload sim-fig08 --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// setupReps is how many times each workload sets up per run; setup_s
// is the median.
const setupReps = 5

// attributionFloorPct is the least tolerance the span-attribution
// check allows when the measured tracing overhead is smaller (or
// negative, from run-to-run noise).
const attributionFloorPct = 1.0

type metricDef struct{ name, unit string }

// e2eMetrics are printed untraced, on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"warp_instrs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are printed traced, on every workload; a layer that
// does no work on a workload reports 0.
var layerMetrics = []metricDef{
	{"abi.compile_ms", "ms"},
	{"sim.new_ms", "ms"},
	{"sim.new_alloc_mb", "MB"},
	{"workloads.setup_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.host_ns_per_warp_instr", "ns"},
	{"sim.host_ns_per_cycle", "ns"},
	{"sim.allocs_per_warp_instr", "count"},
	{"sim.alloc_bytes_per_warp_instr", "B"},
	{"sim.scan_yield", "ratio"},
	{"sim.cycles", "count"},
	{"sim.warp_instrs", "count"},
	{"mem.l1d_accesses", "count"},
	{"mem.l1d_misses", "count"},
	{"mem.l2_misses", "count"},
	{"mem.dram_sectors", "count"},
	{"stats.spill_fill_instrs", "count"},
	{"cars.trap_calls", "count"},
	{"cars.trap_slots", "count"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"net.client_overhead_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.result_kb", "KB"},
	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions", "count"},
	{"cache.bytes", "B"},
	{"singleflight.executions", "count"},
	{"singleflight.collapsed", "count"},
	{"jobq.rejected", "count"},
	{"jobq.queue_depth_mean", "count"},
	{"jobq.inflight_mean", "count"},
	{"serve.sim_runs", "count"},
	{"serve.timeouts", "count"},
	{"load.late_p99_ms", "ms"},
	{"load.late_max_ms", "ms"},
	{"load.sent", "count"},
	{"latency_p90_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"error_rate", "ratio"},
	{"go.gc_cycles", "count"},
	{"go.gc_pause_ms", "ms"},
	{"spec.generate_invalid", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

// opts is one run's settings.
type opts struct {
	seed   uint64
	window time.Duration
	tr     *tracer // nil when untraced
}

// outcome is what a workload measured and how many operations failed.
type outcome struct {
	attempted, failed int
	errs              []string
	e2e, layer        map[string]float64
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few reasons.
func (o *outcome) fail(err error) {
	o.failed++
	if len(o.errs) < 10 {
		o.errs = append(o.errs, err.Error())
	}
}

// checkAttribution requires the layer spans of every traced
// simulation to cover its wall time, up to the measured tracing
// overhead: what the spans miss is the facade's own bookkeeping.
func (o *outcome) checkAttribution() {
	tol := max(o.layer["trace.overhead_pct"], attributionFloorPct)
	if u := o.layer["trace.unattributed_pct"]; u > tol {
		o.fail(fmt.Errorf("span self times leave %.2f%% of a simulation unattributed (tolerance %.2f%%)", u, tol))
	}
}

// gcStats is a reading of the Go runtime's collector counters.
type gcStats struct {
	cycles  uint32
	pauseNs uint64
}

func readGC() gcStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcStats{m.NumGC, m.PauseTotalNs}
}

func (g gcStats) since(before gcStats) gcStats {
	return gcStats{g.cycles - before.cycles, g.pauseNs - before.pauseNs}
}

func (g gcStats) metrics(m map[string]float64) {
	m["go.gc_cycles"] = float64(g.cycles)
	m["go.gc_pause_ms"] = float64(g.pauseNs) / 1e6
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// rssPhases measures the peak RSS of a run's phases. Each phase begins
// from a collected heap returned to the OS, and with the kernel's peak
// (VmHWM) reset, so a phase's peak is its own. Set-up repeats, so its
// peak is the median over the repetitions, as with setup_s; the run
// reports the larger of that and the window's peak. Where the reset is
// not permitted, every reading is the process's peak so far.
type rssPhases struct {
	setup  []float64
	window float64
}

func (r *rssPhases) begin() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func (r *rssPhases) endSetup() error {
	v, err := peakRSSMB()
	r.setup = append(r.setup, v)
	return err
}

func (r *rssPhases) endWindow() (err error) {
	r.window, err = peakRSSMB()
	return err
}

func (r *rssPhases) peak() float64 { return max(median(r.setup), r.window) }

var workloadRuns = map[string]func(context.Context, opts) (*outcome, error){
	"sim-fig08":  runSimFig08,
	"serve-hot":  runServeHot,
	"serve-cold": runServeCold,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload: sim-fig08, serve-hot or serve-cold")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 30, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	record := flag.Bool("record-digests", false, "print the Fig. 8 slice's digest file and exit")
	flag.Parse()

	if *record {
		text, err := recordDigests()
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
		return
	}
	run, ok := workloadRuns[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload sim-fig08|serve-hot|serve-cold --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	o := opts{seed: *seed, window: time.Duration(*seconds) * time.Second}
	if *trace == 1 {
		o.tr = newTracer()
	}
	out, err := run(context.Background(), o)
	if err != nil {
		fatal(err)
	}
	out.layer["error_rate"] = float64(out.failed) / float64(max(out.attempted, 1))
	if o.tr != nil {
		path := filepath.Join(".bench_build", "traces", fmt.Sprintf("trace-%s-seed%d.jsonl", *workload, *seed))
		if err := o.tr.write(path); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans written to %s\n", path)
	}
	for _, e := range out.errs {
		fmt.Fprintf(os.Stderr, "perfbench: FAILED: %s\n", e)
	}

	defs, vals := e2eMetrics, out.e2e
	if o.tr != nil {
		defs, vals = layerMetrics, out.layer
	}
	res := resultOut{Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed,
		Metrics: map[string]metricOut{}}
	if out.attempted == 0 {
		res.Correct, res.Failed = false, 1
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	os.Exit(1)
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"time"

	"carsgo"
	"carsgo/internal/load"
	"carsgo/internal/power"
	"carsgo/internal/sim"
	"carsgo/internal/stats"
	"carsgo/internal/workloads"
)

// fig08Workloads is the Fig. 8 slice: MST baseline is memory-bound
// with many stalled warps, FIB recurses into CARS traps, and the rest
// sit between them.
var fig08Workloads = []string{"MST", "SSSP", "GOL", "NBD", "RAY", "FIB"}

// simCase is one simulation of the slice.
type simCase struct {
	wl  *workloads.Workload
	cfg carsgo.Config
}

func (c simCase) key() string { return c.wl.Name + " " + c.cfg.Name }

// fig08Cases is the slice × {baseline, CARS}, in a fixed order.
func fig08Cases() ([]simCase, error) {
	var cs []simCase
	for _, name := range fig08Workloads {
		w, err := carsgo.Workload(name)
		if err != nil {
			return nil, err
		}
		cs = append(cs, simCase{w, carsgo.Baseline()}, simCase{w, carsgo.CARS()})
	}
	return cs, nil
}

// caseOrder is the seed's permutation of n cases (Fisher-Yates). The
// seed changes only the order the simulations run in; their results
// are the same under every seed.
func caseOrder(seed uint64, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r := load.NewRNG(seed ^ 0xF1608)
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// digestOf hashes a result's functional output and its full
// stats.Kernel counters.
func digestOf(r *carsgo.Result) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	enc.Encode(r.Output)
	enc.Encode(r.Stats)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

//go:embed fig08.digests
var recordedDigests string

// parseDigests reads "<workload> <config> <digest>" lines; blank lines
// and # comments are skipped.
func parseDigests(text string) (map[string]string, error) {
	out := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("digest line %q: want <workload> <config> <digest>", line)
		}
		out[f[0]+" "+f[1]] = f[2]
	}
	return out, sc.Err()
}

// checkDigest compares one result against the recorded digests.
func checkDigest(expect map[string]string, c simCase, r *carsgo.Result) error {
	want, ok := expect[c.key()]
	if !ok {
		return fmt.Errorf("%s: no recorded digest", c.key())
	}
	if got := digestOf(r); got != want {
		return fmt.Errorf("%s: digest %s, recorded %s", c.key(), got, want)
	}
	return nil
}

// checkOutputsAgree requires each workload's baseline and CARS outputs
// to be equal: CARS changes timing, never results.
func checkOutputsAgree(cases []simCase, results []*carsgo.Result) []error {
	var errs []error
	for i := 0; i+1 < len(cases); i += 2 {
		a, b := results[i], results[i+1]
		if a == nil || b == nil {
			continue
		}
		if !slices.Equal(a.Output, b.Output) {
			errs = append(errs, fmt.Errorf("%s: baseline and CARS outputs differ", cases[i].wl.Name))
		}
	}
	return errs
}

// prepare compiles, allocates and initialises one case without
// simulating it: the part of a simulation before its first cycle.
func prepare(c simCase) error {
	prog, err := carsgo.Compile(c.cfg, c.wl.Modules(), false)
	if err != nil {
		return err
	}
	gpu, err := sim.New(c.cfg, prog)
	if err != nil {
		return err
	}
	_, err = c.wl.Setup(gpu)
	return err
}

// simCost is one traced simulation: the ids of its spans and the
// allocation deltas measured around sim.New and the launches.
type simCost struct {
	root, compile, newGPU, setup int64
	runs                         []int64
	newAllocBytes                uint64
	runAllocs, runAllocBytes     uint64
}

// tracedRun is carsgo.Run with a span around each layer call: the
// facade's compile, the simulator's construction, the workload's
// set-up and every launch. It builds the Result exactly as
// carsgo.Run does, so the two are bit-identical.
func tracedRun(ctx context.Context, tr *tracer, cfg carsgo.Config, w *workloads.Workload) (*carsgo.Result, simCost, error) {
	var c simCost
	c.root = tr.start("carsgo.Run", 0)
	defer tr.end(c.root)

	c.compile = tr.start("carsgo.Compile", c.root)
	prog, err := carsgo.Compile(cfg, w.Modules(), false)
	tr.end(c.compile)
	if err != nil {
		return nil, c, err
	}
	_, b0 := heapAllocs()
	c.newGPU = tr.start("sim.New", c.root)
	gpu, err := sim.New(cfg, prog)
	tr.end(c.newGPU)
	_, b1 := heapAllocs()
	c.newAllocBytes = b1 - b0
	if err != nil {
		return nil, c, err
	}
	c.setup = tr.start("Workload.Setup", c.root)
	launches, err := w.Setup(gpu)
	tr.end(c.setup)
	if err != nil {
		return nil, c, err
	}
	res := &carsgo.Result{Config: cfg.Name, Workload: w.Name}
	res.Stats.Name = w.Name
	n0, b0 := heapAllocs()
	for _, l := range launches {
		id := tr.start("GPU.RunContext", c.root)
		st, err := gpu.RunContext(ctx, l)
		tr.end(id)
		c.runs = append(c.runs, id)
		if err != nil {
			return nil, c, err
		}
		res.PerLaunch = append(res.PerLaunch, st)
		res.Stats.Merge(st)
	}
	n1, b1 := heapAllocs()
	c.runAllocs, c.runAllocBytes = n1-n0, b1-b0
	res.Output = w.Output(gpu)
	res.EnergyNJ = power.NewModel(cfg.NumSMs).Energy(&res.Stats).TotalNJ()
	return res, c, nil
}

// heapAllocs reads the runtime's cumulative heap allocation counts
// (objects, bytes) without stopping the world.
func heapAllocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// simLayers accumulates traced simulations into the sim-side
// per-layer metrics.
type simLayers struct {
	compile, newGPU, setup, run, unattributed []float64 // ms or %
	encode, resultKB                          []float64
	newAllocMB                                []float64
	runAllocs, runAllocBytes                  uint64
	counts                                    stats.Kernel
}

// add folds one traced simulation in, using the span self times.
func (l *simLayers) add(self map[int64]int64, spans map[int64]span, c simCost, st *stats.Kernel) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var run int64
	for _, id := range c.runs {
		run += self[id]
	}
	wall := spans[c.root].End - spans[c.root].Start
	l.compile = append(l.compile, ms(self[c.compile]))
	l.newGPU = append(l.newGPU, ms(self[c.newGPU]))
	l.setup = append(l.setup, ms(self[c.setup]))
	l.run = append(l.run, ms(run))
	l.unattributed = append(l.unattributed, 100*float64(self[c.root])/float64(max(wall, 1)))
	l.newAllocMB = append(l.newAllocMB, float64(c.newAllocBytes)/(1<<20))
	l.runAllocs += c.runAllocs
	l.runAllocBytes += c.runAllocBytes
	l.counts.Merge(st)
}

// encode replays the daemon's result encoding (json.Marshal of the
// Result) under a span and records its time and size.
func (l *simLayers) encodeResult(tr *tracer, r *carsgo.Result) ([]byte, error) {
	id := tr.start("json.Marshal", 0)
	t0 := time.Now()
	b, err := json.Marshal(r)
	d := time.Since(t0)
	tr.end(id)
	l.encode = append(l.encode, float64(d.Nanoseconds())/1e6)
	l.resultKB = append(l.resultKB, float64(len(b))/1024)
	return b, err
}

// metrics writes the sim-side per-layer metrics: times are means per
// simulation, so compile + new + setup + run (+ unattributed) add up
// to the mean simulation wall time.
func (l *simLayers) metrics(m map[string]float64) {
	k := &l.counts
	instrs := float64(k.TotalInstructions())
	runNs := mean(l.run) * 1e6 * float64(len(l.run))
	m["abi.compile_ms"] = mean(l.compile)
	m["sim.new_ms"] = mean(l.newGPU)
	m["sim.new_alloc_mb"] = mean(l.newAllocMB)
	m["workloads.setup_ms"] = mean(l.setup)
	m["sim.run_ms"] = mean(l.run)
	m["trace.unattributed_pct"] = maxOf(l.unattributed)
	if instrs > 0 {
		m["sim.host_ns_per_warp_instr"] = runNs / instrs
		m["sim.allocs_per_warp_instr"] = float64(l.runAllocs) / instrs
		m["sim.alloc_bytes_per_warp_instr"] = float64(l.runAllocBytes) / instrs
	}
	if k.Cycles > 0 {
		m["sim.host_ns_per_cycle"] = runNs / float64(k.Cycles)
	}
	if k.WarpCycles > 0 {
		m["sim.scan_yield"] = instrs / float64(k.WarpCycles)
	}
	m["sim.cycles"] = float64(k.Cycles)
	m["sim.warp_instrs"] = instrs
	m["mem.l1d_accesses"] = float64(k.L1D.TotalAccesses())
	m["mem.l1d_misses"] = float64(k.L1D.TotalMisses())
	m["mem.l2_misses"] = float64(k.L2.TotalMisses())
	m["mem.dram_sectors"] = float64(k.DRAMSectors)
	m["stats.spill_fill_instrs"] = float64(k.Instructions[stats.CatSpillFill])
	m["cars.trap_calls"] = float64(k.TrapCalls)
	m["cars.trap_slots"] = float64(k.TrapSpillSlots + k.TrapFillSlots)
	m["serve.encode_ms"] = median(l.encode)
	m["serve.result_kb"] = mean(l.resultKB)
}

// runSimFig08 runs the Fig. 8 slice one simulation at a time through
// carsgo.RunContext until the window closes, after at least one full
// pass. Every result is checked against its recorded digest. Each
// simulation starts from a collected heap, so its time includes the
// collection of its own garbage and none of its predecessors'. Traced,
// each case also runs through tracedRun next to its untraced run, and
// the paired times give the tracing overhead.
func runSimFig08(ctx context.Context, o opts) (*outcome, error) {
	cases, err := fig08Cases()
	if err != nil {
		return nil, err
	}
	expect, err := parseDigests(recordedDigests)
	if err != nil {
		return nil, err
	}
	out := newOutcome()

	var setups []float64
	var rss rssPhases
	for range setupReps {
		var d time.Duration
		rss.begin()
		for _, c := range cases {
			runtime.GC()
			t0 := time.Now()
			err := prepare(c)
			d += time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s: set-up: %w", c.key(), err)
			}
		}
		setups = append(setups, d.Seconds())
		if err := rss.endSetup(); err != nil {
			return nil, err
		}
	}
	out.e2e["setup_s"] = median(setups)

	fib, _ := carsgo.Workload("FIB")
	if _, err := carsgo.RunContext(ctx, carsgo.Baseline(), fib); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	results := make([]*carsgo.Result, len(cases))
	times := make([][]float64, len(cases))
	tracedTimes := make([][]float64, len(cases))
	type tracedSim struct {
		cost simCost
		st   *stats.Kernel
	}
	var firstPass []tracedSim
	untraced := func(round, i int) {
		c := cases[i]
		runtime.GC()
		t0 := time.Now()
		r, err := carsgo.RunContext(ctx, c.cfg, c.wl)
		d := time.Since(t0).Seconds()
		out.attempted++
		if err == nil {
			err = checkDigest(expect, c, r)
		}
		if err != nil {
			out.fail(err)
			return
		}
		times[i] = append(times[i], d)
		if round == 0 {
			results[i] = r
		}
	}
	traced := func(round, i int) {
		c := cases[i]
		runtime.GC()
		t0 := time.Now()
		r, cost, err := tracedRun(ctx, o.tr, c.cfg, c.wl)
		d := time.Since(t0).Seconds()
		out.attempted++
		if err == nil {
			err = checkDigest(expect, c, r)
		}
		if err != nil {
			out.fail(err)
			return
		}
		tracedTimes[i] = append(tracedTimes[i], d)
		if round == 0 {
			firstPass = append(firstPass, tracedSim{cost, &r.Stats})
		}
	}
	gc0 := readGC()
	rss.begin()
	deadline := time.Now().Add(o.window)
passes:
	for round := 0; ; round++ {
		for k, i := range caseOrder(o.seed, len(cases)) {
			if round > 0 && time.Now().After(deadline) {
				break passes
			}
			switch {
			case o.tr == nil:
				untraced(round, i)
			case (round+k)%2 == 0: // alternate which of a pair runs first
				untraced(round, i)
				traced(round, i)
			default:
				traced(round, i)
				untraced(round, i)
			}
		}
	}
	gc := readGC().since(gc0)
	if err := rss.endWindow(); err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = rss.peak()
	for _, err := range checkOutputsAgree(cases, results) {
		out.fail(err)
	}
	if out.failed > 0 {
		return out, nil
	}

	// A pass's time is the sum of each case's mean time: the mix stays
	// the slice's whatever part of a second pass the window held.
	var pass, tracedPass float64
	var instrs uint64
	for i, r := range results {
		pass += mean(times[i])
		tracedPass += mean(tracedTimes[i])
		instrs += r.Stats.TotalInstructions()
	}
	out.e2e["latency_p50_ms"] = 1000 * pass
	out.e2e["throughput_rps"] = float64(len(cases)) / pass
	out.e2e["warp_instrs_per_s"] = float64(instrs) / pass

	if o.tr != nil {
		spans := o.tr.snapshot()
		self, byID := selfTimes(spans), spanIndex(spans)
		var layers simLayers
		for _, t := range firstPass {
			layers.add(self, byID, t.cost, t.st)
		}
		for _, r := range results {
			if _, err := layers.encodeResult(o.tr, r); err != nil {
				out.fail(err)
			}
		}
		layers.metrics(out.layer)
		out.layer["trace.overhead_pct"] = 100 * (tracedPass/pass - 1)
		out.checkAttribution()
	}
	gc.metrics(out.layer)
	return out, nil
}

// recordDigests runs every case once and prints the digest file.
func recordDigests() (string, error) {
	cases, err := fig08Cases()
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	b.WriteString("# Fig. 8 slice: <workload> <config> <sha256(Output, stats.Kernel), 128 bits>\n")
	b.WriteString("# Regenerate with: cd perfbench && go run . --record-digests > fig08.digests\n")
	for _, c := range cases {
		r, err := carsgo.Run(c.cfg, c.wl)
		if err != nil {
			return "", fmt.Errorf("%s: %w", c.key(), err)
		}
		fmt.Fprintf(&b, "%s %s\n", c.key(), digestOf(r))
	}
	return b.String(), nil
}

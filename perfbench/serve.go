package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"carsgo"
	"carsgo/internal/config"
	"carsgo/internal/load"
	"carsgo/internal/serve"
	"carsgo/internal/serve/metrics"
	"carsgo/internal/spec"
	"carsgo/internal/workloads"
)

const (
	// hotKeys and hotSkew shape serve-hot's population: 64 generated
	// specs drawn with zipf skew 1.
	hotKeys = 64
	hotSkew = 1
	// openRate is serve-hot's open-loop arrival rate, well under the
	// closed loop's capacity on two cores.
	openRate = 500.0
	// windowSlices is how many alternating open- and closed-loop slices
	// serve-hot's window is cut into.
	windowSlices = 16
	// crossChecks is how many serve-cold responses are re-simulated
	// directly and compared byte for byte.
	crossChecks = 8
	// spanHeader carries the client span's id to the handler span.
	spanHeader = "X-Perfbench-Span"
)

// Salts keep the benchmark's streams apart from each other.
const (
	hotCorpus  = 0x4075E7
	zipfSalt   = 0x21BF
	closedSalt = 0xC105ED
	coldSalt   = 0xC01D
)

// warmSpecSeed names the fixed spec serve-cold warms each fresh daemon
// with; it is not drawn from the seed, so set-up costs the same under
// every seed.
const warmSpecSeed = 0x5EED

// simulateBody is the /v1/simulate document for a spec.
func simulateBody(sp *spec.Spec) []byte {
	b, err := json.Marshal(serve.SimulateRequest{Config: "base", Spec: json.RawMessage(spec.Canon(sp))})
	if err != nil {
		panic(err) // a struct of strings always encodes
	}
	return b
}

// hotSet is serve-hot's population: a fixed corpus of generated
// specs. It does not depend on the run's seed, which draws only the
// request sequence over it: a spec's payload size sets much of a hit's
// cost, and a zipf head of a few keys takes most requests, so a hot
// set redrawn per seed would move the metrics more than any change to
// the serving code would.
func hotSet() [][]byte {
	r := load.NewRNG(hotCorpus)
	bodies := make([][]byte, hotKeys)
	for i := range bodies {
		bodies[i] = simulateBody(spec.Generate(r.Uint64()))
	}
	return bodies
}

// hotDraws returns the seed's sequence of hot-set keys, zipf-skewed;
// it is safe for concurrent use.
func hotDraws(seed uint64) func() int {
	zipf := load.NewZipf(load.NewRNG(seed^zipfSalt), hotKeys, hotSkew)
	var mu sync.Mutex
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return zipf.Next()
	}
}

// coldStream yields serve-cold's documents: each is a spec never seen
// before, so every request misses the cache. Document i is the same
// under a given seed however the clients interleave.
type coldStream struct {
	mu      sync.Mutex
	r       *load.RNG
	n       int
	first   [][]byte // the first crossChecks documents, for the cross-check
	invalid []error  // seeds spec.Generate failed on, skipped
}

func newColdStream(seed uint64) *coldStream {
	return &coldStream{r: load.NewRNG(seed ^ coldSalt)}
}

func (s *coldStream) next() (int, []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sp, err := generate(s.r.Uint64())
	for err != nil {
		s.invalid = append(s.invalid, err)
		sp, err = generate(s.r.Uint64())
	}
	body := simulateBody(sp)
	i := s.n
	s.n++
	if i < crossChecks {
		s.first = append(s.first, body)
	}
	return i, body
}

// generate is spec.Generate, except that it returns the generator's
// panic as an error. For about one seed in 4000 the generator emits a
// spec that its own Validate rejects (a function with five direct
// calls, where four is the limit). That is a defect of internal/spec,
// not of the serving path serve-cold measures: the stream skips such
// a seed, and the run reports it under spec.generate_invalid.
func generate(seed uint64) (sp *spec.Spec, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("spec.Generate(%#x): %v", seed, r)
		}
	}()
	return spec.Generate(seed), nil
}

// daemon is an in-process carsd on a loopback listener.
type daemon struct {
	srv     *serve.Server
	hs      *http.Server
	url     string
	served  chan error
	tr      *tracer
	tracing atomic.Bool
}

func startDaemon(tr *tracer) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:    serve.New(serve.Options{Workers: runtime.NumCPU()}),
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		tr:     tr,
	}
	d.hs = &http.Server{Handler: d}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// ServeHTTP hands the request to carsd, inside a span when tracing.
func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !d.tracing.Load() {
		d.srv.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
	id := d.tr.start("serve.Server.ServeHTTP", parent)
	d.srv.ServeHTTP(w, r)
	d.tr.end(id)
}

// snapshot reads the daemon's metrics registry.
func (d *daemon) snapshot() metrics.Snapshot {
	id := d.tr.start("metrics.Registry.Snapshot", 0)
	defer d.tr.end(id)
	return d.srv.Registry().Snapshot()
}

// close shuts the listener, drains the daemon and waits for Serve. It
// runs on every exit path, so its deadline is its own.
func (d *daemon) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if cerr := d.srv.Close(ctx); err == nil {
		err = cerr
	}
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// client posts simulate requests over at most conns connections.
type client struct {
	hc *http.Client
	d  *daemon
}

func newClient(d *daemon, conns int) *client {
	return &client{d: d, hc: &http.Client{Transport: &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		DisableCompression:  true,
	}}}
}

// simulate posts one document and returns the status and body.
func (c *client) simulate(ctx context.Context, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.d.url+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	var id int64
	if c.d.tracing.Load() {
		id = c.d.tr.start("client.simulate", 0)
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		defer c.d.tr.end(id)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// simResponse is the part of carsd's envelope the benchmark reads.
type simResponse struct {
	Cached bool            `json:"cached"`
	Shared bool            `json:"shared"`
	Result json.RawMessage `json:"result"`
}

// decodeResponse checks the status and decodes the envelope and the
// result's warp-instruction count.
func decodeResponse(code int, body []byte) (simResponse, uint64, error) {
	var r simResponse
	if code != http.StatusOK {
		return r, 0, fmt.Errorf("status %d: %.200s", code, body)
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return r, 0, err
	}
	var res struct {
		Stats struct{ Instructions []uint64 }
	}
	if err := json.Unmarshal(r.Result, &res); err != nil {
		return r, 0, err
	}
	var n uint64
	for _, v := range res.Stats.Instructions {
		n += v
	}
	return r, n, nil
}

// forEach runs fn(i) for every i in [0,n) on conns goroutines, in
// index order as goroutines free up.
func forEach(n, conns int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// openResult is an open loop's record: per request, the latency from
// its due time and how late its send started (both ms), and whether it
// succeeded.
type openResult struct {
	lat, late []float64
	ok        []bool
}

// openLoop offers n requests at rate per second over at most conns
// connections. Request i is due at start + i/rate. Its latency runs
// from that due time, not from when a connection picked it up, so a
// stall also charges every request queued behind it; late records how
// far behind schedule each send began.
func openLoop(n int, rate float64, conns int, do func(i int) error) openResult {
	res := openResult{lat: make([]float64, n), late: make([]float64, n), ok: make([]bool, n)}
	start := time.Now()
	forEach(n, conns, func(i int) {
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sleepUntil(due)
		sent := time.Now()
		err := do(i)
		end := time.Now()
		res.late[i] = ms(sent.Sub(due))
		res.lat[i] = ms(end.Sub(due))
		res.ok[i] = err == nil
	})
	return res
}

// sleepUntil blocks the calling thread until t. The runtime's timers
// round a sub-millisecond sleep up to a millisecond, which would make
// the generator's own lateness most of a hit's latency; nanosleep
// wakes within the kernel's timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// closedResult is a closed loop's record.
type closedResult struct {
	lat      []float64 // ms, successful requests
	inWindow int       // successful requests that finished in the window
	sent     int
}

// closedLoop runs conns clients, each sending its next request as soon
// as the previous one answers, until the window closes. do reports
// success; the loop stops sending at the deadline and waits for the
// requests in flight.
func closedLoop(window time.Duration, conns int, do func() error) closedResult {
	var mu sync.Mutex
	var res closedResult
	deadline := time.Now().Add(window)
	forEach(conns, conns, func(int) {
		for time.Now().Before(deadline) {
			t0 := time.Now()
			err := do()
			t1 := time.Now()
			mu.Lock()
			res.sent++
			if err == nil {
				res.lat = append(res.lat, ms(t1.Sub(t0)))
				if !t1.After(deadline) {
					res.inWindow++
				}
			}
			mu.Unlock()
		}
	})
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// gaugeSampler averages carsd's queue-depth and in-flight gauges.
type gaugeSampler struct {
	stop, done chan struct{}
	depth      []float64
	inflight   []float64
}

func sampleGauges(d *daemon, every time.Duration) *gaugeSampler {
	g := &gaugeSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(g.done)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				s := d.srv.Registry().Snapshot()
				v, _ := s.Value("carsd_queue_depth")
				g.depth = append(g.depth, v)
				v, _ = s.Value("carsd_inflight_jobs")
				g.inflight = append(g.inflight, v)
			}
		}
	}()
	return g
}

func (g *gaugeSampler) finish(m map[string]float64) {
	close(g.stop)
	<-g.done
	m["jobq.queue_depth_mean"] = mean(g.depth)
	m["jobq.inflight_mean"] = mean(g.inflight)
}

// daemonDeltas writes the /metricsz counter deltas over the window.
func daemonDeltas(before, after metrics.Snapshot, m map[string]float64) {
	delta := func(name string) float64 { return metrics.Delta(before, after, name) }
	hits, misses := delta("carsd_cache_hits_total"), delta("carsd_cache_misses_total")
	m["cache.hits"] = hits
	m["cache.misses"] = misses
	if hits+misses > 0 {
		m["cache.hit_ratio"] = hits / (hits + misses)
	}
	m["cache.evictions"] = delta("carsd_cache_evictions_total")
	m["cache.bytes"], _ = after.Value("carsd_cache_bytes")
	m["singleflight.executions"] = delta("carsd_singleflight_executions_total")
	m["singleflight.collapsed"] = delta("carsd_singleflight_collapsed_total")
	m["jobq.rejected"] = delta("carsd_queue_rejected_total")
	m["serve.sim_runs"] = delta("carsd_sim_runs_total")
	m["serve.timeouts"] = delta("carsd_request_timeouts_total")
}

// handlerMetrics splits the latency of the client spans that keep
// accepts: handler time is the span around ServeHTTP, client overhead
// is the client's span minus it.
func handlerMetrics(spans []span, keep func(id int64) bool, m map[string]float64) {
	client := map[int64]span{}
	for _, s := range spans {
		if s.Name == "client.simulate" && keep(s.ID) {
			client[s.ID] = s
		}
	}
	var handler, overhead []float64
	for _, s := range spans {
		if s.Name != "serve.Server.ServeHTTP" {
			continue
		}
		c, ok := client[s.Parent]
		if !ok {
			continue
		}
		h := float64(s.End-s.Start) / 1e6
		handler = append(handler, h)
		overhead = append(overhead, float64(c.End-c.Start)/1e6-h)
	}
	hs := sorted(handler)
	m["serve.handler_p50_ms"] = quantile(hs, 500)
	m["serve.handler_p99_ms"] = tail(hs, 990)
	m["net.client_overhead_ms"] = median(overhead)
}

// preload fills a fresh daemon with the hot set: every document once
// (each a miss that simulates), then once more to capture the cached
// response body each later hit must equal. It returns those bodies, and
// the warp-instructions simulated and the time taken by the fill.
func preload(ctx context.Context, c *client, bodies [][]byte, conns int) ([][]byte, uint64, time.Duration, error) {
	var instrs atomic.Uint64
	errs := make([]error, len(bodies))
	t0 := time.Now()
	forEach(len(bodies), conns, func(i int) {
		code, b, err := c.simulate(ctx, bodies[i])
		if err != nil {
			errs[i] = err
			return
		}
		r, n, err := decodeResponse(code, b)
		if err == nil && r.Cached {
			err = fmt.Errorf("hot document %d was cached before the preload", i)
		}
		errs[i] = err
		instrs.Add(n)
	})
	fill := time.Since(t0)
	if err := errors.Join(errs...); err != nil {
		return nil, 0, 0, err
	}
	expected := make([][]byte, len(bodies))
	for i, body := range bodies {
		code, b, err := c.simulate(ctx, body)
		if err != nil {
			return nil, 0, 0, err
		}
		r, _, err := decodeResponse(code, b)
		if err == nil && !r.Cached {
			err = fmt.Errorf("hot document %d missed after the preload", i)
		}
		if err != nil {
			return nil, 0, 0, err
		}
		expected[i] = b
	}
	return expected, instrs.Load(), fill, nil
}

// runServeHot measures carsd's hit path: a fresh daemon preloaded with
// the hot set, then slices of an open loop at openRate alternating with
// slices of a closed loop of nproc clients. Every response must equal
// the hot key's cached body, and the daemon must count exactly the
// cached responses the client saw and run no simulation.
func runServeHot(ctx context.Context, o opts) (*outcome, error) {
	out := newOutcome()
	conns := runtime.NumCPU()
	bodies := hotSet()

	var setups []float64
	var rss rssPhases
	var fillInstrs, fillSeconds float64
	var d *daemon
	var c *client
	var expected [][]byte
	for range setupReps {
		if d != nil {
			c.hc.CloseIdleConnections()
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		rss.begin()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(o.tr); err != nil {
			return nil, err
		}
		c = newClient(d, conns)
		var instrs uint64
		var fill time.Duration
		if expected, instrs, fill, err = preload(ctx, c, bodies, conns); err != nil {
			d.close()
			return nil, fmt.Errorf("preload: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		fillInstrs += float64(instrs)
		fillSeconds += fill.Seconds()
		if err := rss.endSetup(); err != nil {
			return nil, err
		}
	}
	defer d.close()
	defer c.hc.CloseIdleConnections()
	out.e2e["setup_s"] = median(setups)
	out.e2e["warp_instrs_per_s"] = fillInstrs / fillSeconds

	var cachedSeen atomic.Int64
	var fmu sync.Mutex
	hit := func(k int) error {
		code, b, err := c.simulate(ctx, bodies[k])
		if err == nil && (code != http.StatusOK || !bytes.Equal(b, expected[k])) {
			err = fmt.Errorf("hot key %d: status %d, body differs from its cached response", k, code)
		}
		if err != nil {
			fmu.Lock()
			out.fail(err)
			fmu.Unlock()
			return err
		}
		cachedSeen.Add(1)
		return nil
	}

	// Open-loop and closed-loop slices alternate through the window, so
	// both phases sample the whole of it.
	slice := o.window / windowSlices
	nOpen := int(openRate * slice.Seconds())
	openDraw, closedDraw := hotDraws(o.seed), hotDraws(o.seed^closedSalt)
	var gauges *gaugeSampler
	if o.tr != nil {
		gauges = sampleGauges(d, 10*time.Millisecond)
	}
	before := d.snapshot()
	gc0 := readGC()
	rss.begin()
	var lat, lates []float64
	var openIDs [][2]int64 // span ids (from, to] of the open slices
	var closedDone, sent int
	var rps [2][]float64 // closed-slice throughput, untraced and traced
	for s := range windowSlices {
		if s%2 == 0 {
			keys := make([]int, nOpen)
			for i := range keys {
				keys[i] = openDraw()
			}
			d.tracing.Store(o.tr != nil)
			from := o.tr.mark()
			r := openLoop(nOpen, openRate, conns, func(i int) error { return hit(keys[i]) })
			openIDs = append(openIDs, [2]int64{from, o.tr.mark()})
			for i, ok := range r.ok {
				if ok {
					lat = append(lat, r.lat[i])
				}
			}
			lates = append(lates, r.late...)
			sent += nOpen
			continue
		}
		// Traced, closed slices alternate untraced and traced; their
		// throughputs give the tracing overhead.
		on := o.tr != nil && (s/2)%2 == 1
		d.tracing.Store(on)
		r := closedLoop(slice, conns, func() error { return hit(closedDraw()) })
		closedDone += r.inWindow
		sent += r.sent
		if on {
			rps[1] = append(rps[1], float64(r.inWindow)/slice.Seconds())
		} else {
			rps[0] = append(rps[0], float64(r.inWindow)/slice.Seconds())
		}
	}
	d.tracing.Store(false)
	gc := readGC().since(gc0)
	if err := rss.endWindow(); err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = rss.peak()
	after := d.snapshot()
	out.attempted += sent

	if got, want := metrics.Delta(before, after, "carsd_requests_cached_total"), float64(cachedSeen.Load()); got != want {
		out.fail(fmt.Errorf("carsd counted %v cached requests, the client saw %v", got, want))
	}
	if runs := metrics.Delta(before, after, "carsd_sim_runs_total"); runs != 0 {
		out.fail(fmt.Errorf("carsd ran %v simulations in the hot window", runs))
	}

	ls := sorted(lat)
	out.e2e["latency_p50_ms"] = quantile(ls, 500)
	out.e2e["throughput_rps"] = float64(closedDone) / (slice.Seconds() * windowSlices / 2)

	m := out.layer
	m["latency_p99_ms"] = tail(ls, 990)
	m["latency_p90_ms"] = tail(ls, 900)
	m["load.late_p99_ms"] = tail(sorted(lates), 990)
	m["load.late_max_ms"] = maxOf(lates)
	m["load.sent"] = float64(len(lates))
	daemonDeltas(before, after, m)
	gc.metrics(m)
	if o.tr != nil {
		gauges.finish(m)
		m["trace.overhead_pct"] = 100 * (mean(rps[0])/mean(rps[1]) - 1)
		handlerMetrics(o.tr.snapshot(), func(id int64) bool {
			for _, r := range openIDs {
				if id > r[0] && id <= r[1] {
					return true
				}
			}
			return false
		}, m)
		var layers simLayers
		for _, b := range expected {
			var r struct{ Result *carsgo.Result }
			if err := json.Unmarshal(b, &r); err != nil {
				return nil, err
			}
			if _, err := layers.encodeResult(o.tr, r.Result); err != nil {
				return nil, err
			}
		}
		m["serve.encode_ms"] = median(layers.encode)
		m["serve.result_kb"] = mean(layers.resultKB)
	}
	return out, nil
}

// runServeCold measures carsd's miss path: a closed loop of nproc
// clients, each waiting on its reply, sends documents the daemon has
// never seen, so every request misses, simulates and fills a cache
// entry. Afterwards the first documents are simulated directly through
// carsgo.RunContext and must match the daemon's results byte for byte.
func runServeCold(ctx context.Context, o opts) (*outcome, error) {
	out := newOutcome()
	conns := runtime.NumCPU()
	warm := simulateBody(spec.Generate(warmSpecSeed))

	var setups []float64
	var rss rssPhases
	var d *daemon
	var c *client
	for range setupReps {
		if d != nil {
			c.hc.CloseIdleConnections()
			if err := d.close(); err != nil {
				return nil, err
			}
		}
		rss.begin()
		t0 := time.Now()
		var err error
		if d, err = startDaemon(o.tr); err != nil {
			return nil, err
		}
		c = newClient(d, conns)
		code, b, err := c.simulate(ctx, warm)
		if err == nil {
			_, _, err = decodeResponse(code, b)
		}
		if err != nil {
			d.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err := rss.endSetup(); err != nil {
			return nil, err
		}
	}
	defer d.close()
	defer c.hc.CloseIdleConnections()
	out.e2e["setup_s"] = median(setups)

	stream := newColdStream(o.seed)
	var mu sync.Mutex
	results := make([][]byte, crossChecks)
	var instrsInWindow uint64
	var gauges *gaugeSampler
	if o.tr != nil {
		gauges = sampleGauges(d, 10*time.Millisecond)
		d.tracing.Store(true)
	}
	before := d.snapshot()
	gc0 := readGC()
	rss.begin()
	deadline := time.Now().Add(o.window)
	closed := closedLoop(o.window, conns, func() error {
		i, body := stream.next()
		code, b, err := c.simulate(ctx, body)
		var r simResponse
		var n uint64
		if err == nil {
			r, n, err = decodeResponse(code, b)
		}
		if err == nil && (r.Cached || r.Shared) {
			err = fmt.Errorf("cold document %d was served without simulating", i)
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			out.fail(err)
			return err
		}
		if i < crossChecks {
			results[i] = r.Result
		}
		if !time.Now().After(deadline) {
			instrsInWindow += n
		}
		return nil
	})
	d.tracing.Store(false)
	gc := readGC().since(gc0)
	if err := rss.endWindow(); err != nil {
		return nil, err
	}
	out.e2e["peak_rss_mb"] = rss.peak()
	after := d.snapshot()
	out.attempted += closed.sent
	ok := len(closed.lat)

	if runs := metrics.Delta(before, after, "carsd_sim_runs_total"); runs != float64(ok) {
		out.fail(fmt.Errorf("carsd ran %v simulations for %d cold requests", runs, ok))
	}
	if cached := metrics.Delta(before, after, "carsd_requests_cached_total"); cached != 0 {
		out.fail(fmt.Errorf("carsd answered %v cold requests from its cache", cached))
	}

	ls := sorted(closed.lat)
	out.e2e["latency_p50_ms"] = quantile(ls, 500)
	out.e2e["throughput_rps"] = float64(closed.inWindow) / o.window.Seconds()
	out.e2e["warp_instrs_per_s"] = float64(instrsInWindow) / o.window.Seconds()

	m := out.layer
	m["latency_p90_ms"] = tail(ls, 900)
	m["latency_p99_ms"] = tail(ls, 990)
	m["load.sent"] = float64(closed.sent)
	daemonDeltas(before, after, m)
	gc.metrics(m)
	if gauges != nil {
		gauges.finish(m)
		handlerMetrics(o.tr.snapshot(), func(int64) bool { return true }, m)
	}

	m["spec.generate_invalid"] = float64(len(stream.invalid))
	for _, err := range stream.invalid {
		fmt.Fprintf(os.Stderr, "perfbench: skipped an invalid generated spec: %v\n", err)
	}
	if err := crossCheck(ctx, o, stream.first, results, out); err != nil {
		return nil, err
	}
	return out, nil
}

// crossCheck simulates each recorded cold document directly through
// carsgo.RunContext and requires the daemon's result to match byte for
// byte. Traced, each document is also replayed through tracedRun; the
// replays give the sim-side layer metrics and, against the untraced
// runs, the tracing overhead.
func crossCheck(ctx context.Context, o opts, docs, results [][]byte, out *outcome) error {
	cfg, _, err := config.Named("base")
	if err != nil {
		return err
	}
	type replay struct {
		cost simCost
		res  *carsgo.Result
	}
	var replays []replay
	var plain, traced float64
	for i, doc := range docs {
		if results[i] == nil {
			continue // the request failed and is already counted
		}
		var req serve.SimulateRequest
		if err := json.Unmarshal(doc, &req); err != nil {
			return err
		}
		sp, err := spec.Parse(req.Spec)
		if err != nil {
			return err
		}
		w := workloads.FromSpec(sp)
		direct := func() {
			out.attempted++
			runtime.GC()
			t0 := time.Now()
			r, err := carsgo.RunContext(ctx, cfg, w)
			plain += time.Since(t0).Seconds()
			if err == nil {
				err = sameResult(r, results[i])
			}
			if err != nil {
				out.fail(fmt.Errorf("cold document %d: carsgo.RunContext: %w", i, err))
			}
		}
		if o.tr == nil {
			direct()
			continue
		}
		replayed := func() {
			out.attempted++
			runtime.GC()
			t0 := time.Now()
			r, cost, err := tracedRun(ctx, o.tr, cfg, w)
			traced += time.Since(t0).Seconds()
			if err == nil {
				err = sameResult(r, results[i])
			}
			if err != nil {
				out.fail(fmt.Errorf("cold document %d: traced replay: %w", i, err))
				return
			}
			replays = append(replays, replay{cost, r})
		}
		if i%2 == 0 { // alternate which of a pair runs first
			direct()
			replayed()
		} else {
			replayed()
			direct()
		}
	}
	if o.tr == nil {
		return nil
	}
	spans := o.tr.snapshot()
	self, byID := selfTimes(spans), spanIndex(spans)
	var layers simLayers
	for _, r := range replays {
		layers.add(self, byID, r.cost, &r.res.Stats)
		if _, err := layers.encodeResult(o.tr, r.res); err != nil {
			return err
		}
	}
	layers.metrics(out.layer)
	if plain > 0 {
		out.layer["trace.overhead_pct"] = 100 * (traced/plain - 1)
	}
	out.checkAttribution()
	return nil
}

// sameResult requires r to encode to exactly the daemon's result bytes.
func sameResult(r *carsgo.Result, daemon []byte) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	if !bytes.Equal(b, daemon) {
		return fmt.Errorf("result differs from the daemon's")
	}
	return nil
}

// spanIndex maps span ids to spans.
func spanIndex(spans []span) map[int64]span {
	m := make(map[int64]span, len(spans))
	for _, s := range spans {
		m[s.ID] = s
	}
	return m
}

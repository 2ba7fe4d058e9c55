package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/server"
	"repro/internal/sigcache"
	"repro/internal/techmap"
	"repro/internal/verify"
)

// serviceExcluded are the Table 2 circuits left out of the service pool:
// the ten slowest to synthesize, so that a miss stays a request rather
// than a batch job.
var serviceExcluded = map[string]bool{
	"i4": true, "t481": true, "i3": true, "sym10": true, "rd84": true,
	"my_adder": true, "pcler8": true, "mlp4": true, "pcle": true, "frg1": true,
}

const (
	serviceClients  = 2 // closed loop: each client waits for its reply
	serviceVariants = 4 // renamed bodies per circuit
	hitsPerMiss     = 4 // one request in five forces a miss
	// serviceSetupRuns is smaller than setupRuns because each set-up
	// synthesizes the whole pool to warm the cache.
	serviceSetupRuns = 3
)

// poolCircuit is one circuit the clients submit.
type poolCircuit struct {
	name   string
	spec   *network.Network
	bodies [][]byte // BLIF with internal signals renamed per variant
}

// reqPlan is one request of the seeded stream.
type reqPlan struct {
	circuit, variant int
	miss             bool // sent with X-Rmsynd-No-Cache: 1
	pass             int  // set when the request is handed out
}

// sample is one completed request as the client saw it.
type sample struct {
	plan      reqPlan
	done      time.Duration // completion, from the start of the window
	latMS     float64
	elapsedMS float64 // X-Rmsynd-Elapsed-Ms
	source    string  // X-Rmsynd-Cache
}

// service is an in-process rmsynd on a loopback listener.
type service struct {
	srv     *server.Server
	http    *http.Server
	served  chan error
	url     string
	client  *http.Client
	retries atomic.Int64 // requests sent again after a 429
}

// startService starts a server with the rmsynd binary's defaults.
func startService() (*service, error) {
	pol := server.DefaultPolicy()
	srv := server.New(server.Config{
		Workers:      runtime.GOMAXPROCS(0),
		Policy:       pol,
		CacheEntries: 1024,
		CacheBytes:   64 << 20,
		Adaptive:     true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &service{
		srv:    srv,
		http:   &http.Server{Handler: srv, ReadHeaderTimeout: 5 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/synthesize",
		client: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: serviceClients},
		},
	}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop drains the server, closes the listener and waits for Serve to
// return.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if herr := s.http.Shutdown(ctx); err == nil {
		err = herr
	}
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// maxSheds bounds how often one request is retried after a 429.
const maxSheds = 20

// post sends one BLIF body and returns the response body and headers.
// A request the server sheds with 429 is sent again after the server's
// retry_after_ms, as a well-behaved client does; the wait counts in its
// latency and the retry in s.retries.
func (s *service) post(body []byte, miss bool) ([]byte, http.Header, error) {
	for shed := 0; ; shed++ {
		b, h, status, err := s.send(body, miss)
		if err != nil {
			return nil, nil, err
		}
		if status == http.StatusOK {
			return b, h, nil
		}
		var eb server.ErrorBody
		if status != http.StatusTooManyRequests || shed == maxSheds || json.Unmarshal(b, &eb) != nil {
			return nil, nil, fmt.Errorf("status %d: %s", status, strings.TrimSpace(string(b)))
		}
		s.retries.Add(1)
		time.Sleep(time.Duration(eb.Error.RetryAfterMS) * time.Millisecond)
	}
}

func (s *service) send(body []byte, miss bool) ([]byte, http.Header, int, error) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, 0, err
	}
	req.Header.Set("Content-Type", "application/x-blif")
	if miss {
		req.Header.Set("X-Rmsynd-No-Cache", "1")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, 0, err
	}
	return b, resp.Header, resp.StatusCode, nil
}

// buildPool builds the pool's specifications and their renamed bodies,
// and returns the time spent building specifications.
func buildPool(tr *Tracer, seed int64) ([]poolCircuit, time.Duration, error) {
	var pool []poolCircuit
	var build time.Duration
	for _, c := range bench.Circuits() {
		if serviceExcluded[c.Name] {
			continue
		}
		var spec *network.Network
		build += tr.Time(0, "bench", "bench.Circuit.Build", c.Name, func() { spec = c.Build() })
		var blif bytes.Buffer
		if err := spec.WriteBLIF(&blif); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", c.Name, err)
		}
		pc := poolCircuit{name: c.Name, spec: spec}
		for v := 0; v < serviceVariants; v++ {
			pc.bodies = append(pc.bodies, renameInternal(blif.Bytes(), fmt.Sprintf("w%x_%d_", seed, v)))
		}
		pool = append(pool, pc)
	}
	return pool, build, nil
}

// renameInternal renames every signal of a BLIF body that is neither an
// input nor an output to prefix plus its order of appearance, the way
// a regenerated file differs from the one already submitted.
func renameInternal(blif []byte, prefix string) []byte {
	external := map[string]bool{}
	lines := strings.Split(string(blif), "\n")
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) > 0 && (f[0] == ".inputs" || f[0] == ".outputs") {
			for _, n := range f[1:] {
				external[n] = true
			}
		}
	}
	renamed := map[string]string{}
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) == 0 || f[0] != ".names" {
			continue
		}
		for j, n := range f[1:] {
			if external[n] {
				continue
			}
			r, ok := renamed[n]
			if !ok {
				r = prefix + strconv.Itoa(len(renamed))
				renamed[n] = r
			}
			f[j+1] = r
		}
		lines[i] = strings.Join(f, " ")
	}
	return []byte(strings.Join(lines, "\n"))
}

// planPass draws one pass of the request stream: every pool circuit
// once as a forced miss and hitsPerMiss times as a hit, with seeded
// order and body variants. Every pass has the same mix, so runs differ
// only in order.
func planPass(rng *rand.Rand, pool int) []reqPlan {
	var plans []reqPlan
	for c := 0; c < pool; c++ {
		plans = append(plans, reqPlan{circuit: c, miss: true})
		for h := 0; h < hitsPerMiss; h++ {
			plans = append(plans, reqPlan{circuit: c})
		}
	}
	rng.Shuffle(len(plans), func(i, j int) { plans[i], plans[j] = plans[j], plans[i] })
	for i := range plans {
		plans[i].variant = rng.Intn(serviceVariants)
	}
	return plans
}

// stream hands requests to the clients pass by pass. Once the window
// has ended it stops at the next pass boundary, so that every window
// covers whole passes.
type stream struct {
	mu       sync.Mutex
	rng      *rand.Rand
	pool     int
	pass     []reqPlan
	next     int // index into pass
	issued   int64
	passes   int
	deadline time.Time
}

func newStream(seed int64, pool int) *stream {
	return &stream{rng: rand.New(rand.NewSource(seed)), pool: pool}
}

// window starts a window of length d at the next pass boundary.
func (s *stream) window(d time.Duration) {
	s.mu.Lock()
	s.deadline = time.Now().Add(d)
	s.mu.Unlock()
}

// take returns the next request and its id, or false once the window
// has ended and the current pass is used up.
func (s *stream) take() (reqPlan, int64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.next == len(s.pass) {
		if !time.Now().Before(s.deadline) {
			return reqPlan{}, 0, false
		}
		s.pass, s.next = planPass(s.rng, s.pool), 0
		s.passes++
	}
	p := s.pass[s.next]
	p.pass = s.passes - 1
	s.next++
	s.issued++
	return p, s.issued - 1, true
}

// served collects every distinct response body per circuit with how
// often it was served. Under the server's wall-clock grant a hedged
// race cancels its losing arm by timing, so one circuit can be served
// more than one netlist; each distinct one is checked.
type served struct {
	mu     sync.Mutex
	bodies []map[[sha256.Size]byte]*servedBody
}

type servedBody struct {
	body []byte
	n    int
}

func newServed(circuits int) *served {
	s := &served{bodies: make([]map[[sha256.Size]byte]*servedBody, circuits)}
	for i := range s.bodies {
		s.bodies[i] = map[[sha256.Size]byte]*servedBody{}
	}
	return s
}

func (s *served) add(circuit int, body []byte) {
	h := sha256.Sum256(body)
	s.mu.Lock()
	defer s.mu.Unlock()
	if b := s.bodies[circuit][h]; b != nil {
		b.n++
		return
	}
	s.bodies[circuit][h] = &servedBody{body: body, n: 1}
}

// list returns the distinct bodies of circuit, the most served first
// (ties broken by content, so the order repeats).
func (s *served) list(circuit int) [][]byte {
	var bs []*servedBody
	for _, b := range s.bodies[circuit] {
		bs = append(bs, b)
	}
	sort.Slice(bs, func(i, j int) bool {
		if bs[i].n != bs[j].n {
			return bs[i].n > bs[j].n
		}
		return bytes.Compare(bs[i].body, bs[j].body) < 0
	})
	out := make([][]byte, len(bs))
	for i, b := range bs {
		out[i] = b.body
	}
	return out
}

// extra is the number of bodies beyond one per circuit.
func (s *served) extra() int {
	n := 0
	for _, m := range s.bodies {
		n += len(m) - 1
	}
	return n
}

// loadRun is what one closed-loop window measured.
type loadRun struct {
	samples []sample
	passes  []passStat
	allocMB float64 // per pass
	failed  []string
}

// passStat is one pass of a window: its request rate, counting from the
// end of the previous pass, and its latency median and tail.
type passStat struct {
	perS, p50, tail float64
}

// runService measures rmsynd under a closed loop of serviceClients
// clients. A traced run spends the first half of its time untraced and
// the second half traced.
func runService(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	var setups []float64
	var pool []poolCircuit
	var svc *service
	var bodies *served
	var builds []float64
	for i := 0; i < serviceSetupRuns; i++ {
		var tr *Tracer
		if i == serviceSetupRuns-1 {
			tr = cfg.tracer
		}
		if svc != nil {
			if err := svc.stop(); err != nil {
				return nil, fmt.Errorf("stopping set-up server: %w", err)
			}
		}
		start := time.Now()
		var err error
		var build time.Duration
		if pool, build, err = buildPool(tr, cfg.seed); err != nil {
			return nil, err
		}
		builds = append(builds, build.Seconds())
		if svc, err = startService(); err != nil {
			return nil, err
		}
		bodies = newServed(len(pool))
		for c, pc := range pool {
			var b []byte
			tr.Time(0, "client", "POST /v1/synthesize", "warm-"+pc.name, func() { b, _, err = svc.post(pc.bodies[0], false) })
			if err != nil {
				svc.stop()
				return nil, fmt.Errorf("warming %s: %w", pc.name, err)
			}
			bodies.add(c, b)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer svc.stop()
	out.set("setup_s", Median(setups))

	reqs := newStream(cfg.seed, len(pool))
	before := ParseMetrics(svc.srv.Metrics())
	var run, traced loadRun
	if cfg.tracer == nil {
		run = svc.load(pool, bodies, reqs, cfg.seconds, nil)
	} else {
		run = svc.load(pool, bodies, reqs, cfg.seconds/2, nil)
		traced = svc.load(pool, bodies, reqs, cfg.seconds/2, cfg.tracer)
	}
	delta := MetricDeltas(before, ParseMetrics(svc.srv.Metrics()))

	for _, r := range []loadRun{run, traced} {
		out.attempted += len(r.samples) + len(r.failed)
		out.failures = append(out.failures, r.failed...)
	}
	counts, layer, checked, err := checkResponses(pool, bodies)
	out.attempted += checked
	if err != nil {
		out.failures = append(out.failures, err.Error())
	}
	// Which netlist a circuit is served depends on hedge timing, so the
	// service's counts are reported but not held to repeat.
	for k, v := range counts {
		out.set(k, float64(v))
	}
	out.set("server.extra_bodies", float64(bodies.extra()))

	// Synthesis through the service: each circuit's median forced-miss
	// latency, summed over the pool.
	perCircuit := make([][]float64, len(pool))
	for _, s := range run.samples {
		if s.plan.miss {
			perCircuit[s.plan.circuit] = append(perCircuit[s.plan.circuit], s.latMS)
		}
	}
	var medians []float64
	for c, xs := range perCircuit {
		if len(xs) == 0 {
			out.failures = append(out.failures, "no forced miss of "+pool[c].name)
			continue
		}
		medians = append(medians, Median(xs))
	}
	out.set("synth_s", Sum(medians)/1000)
	out.set("synth_geomean_ms", GeoMean(medians))
	out.set("alloc_mb", run.allocMB)
	// Request metrics are medians over passes, so a stretch of the run
	// slowed by the host moves them less than pooled percentiles.
	var perS, p50, tail []float64
	for _, p := range run.passes {
		perS, p50, tail = append(perS, p.perS), append(p50, p.p50), append(tail, p.tail)
	}
	out.set("req_p50_ms", Median(p50))
	out.set("req_tail_ms", Median(tail))
	out.set("req_per_s", Median(perS))
	out.note("requests: p50 and tail of each pass of %d, medians over %d passes", len(pool)*(1+hitsPerMiss), len(run.passes))

	if cfg.tracer != nil {
		out.addLayer(layer)
		out.finishLayers(1)
		out.set("bench.build_s", Median(builds))
		layerService(out, traced, delta, svc.retries.Load())
		if err := timeServerLayers(out, pool, bodies, cfg.tracer); err != nil {
			out.failures = append(out.failures, err.Error())
		}
		out.set("trace.overhead_ratio", meanLatency(traced.samples)/meanLatency(run.samples))
	}
	out.note("%d passes, %d requests, %d bodies beyond one per circuit",
		reqs.passes, len(run.samples)+len(traced.samples), bodies.extra())
	return out, nil
}

// load runs the closed loop for a window of d and returns what it
// measured.
func (s *service) load(pool []poolCircuit, bodies *served, reqs *stream, d time.Duration, tr *Tracer) loadRun {
	var mu sync.Mutex
	var run loadRun
	var wg sync.WaitGroup
	before, firstPass := totalAlloc(), reqs.passes
	start := time.Now()
	reqs.window(d)
	for c := 0; c < serviceClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				p, i, ok := reqs.take()
				if !ok {
					return
				}
				pc := pool[p.circuit]
				id := tr.Begin(0, "client", "POST /v1/synthesize", "r"+strconv.FormatInt(i, 10))
				t0 := time.Now()
				b, h, err := s.post(pc.bodies[p.variant], p.miss)
				done := time.Now()
				lat := done.Sub(t0)
				tr.End(id)
				if err == nil {
					bodies.add(p.circuit, b)
				}
				mu.Lock()
				if err != nil {
					run.failed = append(run.failed, fmt.Sprintf("request %d (%s): %v", i, pc.name, err))
				} else {
					el, _ := strconv.ParseFloat(h.Get("X-Rmsynd-Elapsed-Ms"), 64)
					run.samples = append(run.samples, sample{
						plan: p, done: done.Sub(start), latMS: float64(lat) / float64(time.Millisecond),
						elapsedMS: el, source: h.Get("X-Rmsynd-Cache"),
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	n := reqs.passes - firstPass
	run.allocMB = float64(totalAlloc()-before) / (1 << 20) / float64(n)
	lat := make([][]float64, n)
	end := make([]time.Duration, n)
	for _, s := range run.samples {
		k := s.plan.pass - firstPass
		lat[k] = append(lat[k], s.latMS)
		end[k] = max(end[k], s.done)
	}
	var prev time.Duration
	for k := range lat {
		if len(lat[k]) == 0 {
			continue // every request of the pass failed
		}
		p50, _ := Percentile(lat[k], 50)
		_, tail, _ := Tail(lat[k])
		run.passes = append(run.passes, passStat{perS: float64(len(lat[k])) / (end[k] - prev).Seconds(), p50: p50, tail: tail})
		prev = end[k]
	}
	return run
}

// decodeNetlist parses a response body and its netlist.
func decodeNetlist(body []byte) (*server.Response, *network.Network, error) {
	var resp server.Response
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, nil, fmt.Errorf("decoding response: %w", err)
	}
	if resp.Stats == nil {
		return nil, nil, errors.New("response carries no stats")
	}
	got, err := network.ReadBLIF(strings.NewReader(resp.NetworkBLIF))
	if err != nil {
		return nil, nil, fmt.Errorf("parsing netlist: %w", err)
	}
	return &resp, got, nil
}

// checkResponses checks every distinct served netlist against its
// specification. It returns the counts and pipeline counters of the
// most served netlist per circuit, mapped, and the number of netlists
// checked.
func checkResponses(pool []poolCircuit, bodies *served) (counts map[string]int64, layer map[string]float64, checked int, err error) {
	counts, layer = map[string]int64{}, map[string]float64{}
	lib := techmap.Library()
	var errs []error
	for c, pc := range pool {
		for i, body := range bodies.list(c) {
			checked++
			if err := checkResponse(pc, body, i == 0, lib, counts, layer); err != nil {
				errs = append(errs, fmt.Errorf("%s: %w", pc.name, err))
			}
		}
	}
	return counts, layer, checked, errors.Join(errs...)
}

// checkResponse checks one served netlist against its specification
// and, for the most served one, adds its mapped counts and counters.
func checkResponse(pc poolCircuit, body []byte, mostServed bool, lib []techmap.Cell, counts map[string]int64, layer map[string]float64) error {
	resp, got, err := decodeNetlist(body)
	if err != nil {
		return err
	}
	eq, err := verify.Equivalent(pc.spec, got)
	if err != nil || !eq || !resp.Verified {
		return fmt.Errorf("served netlist is not equivalent to the specification (%v)", err)
	}
	if !mostServed {
		return nil
	}
	m, err := techmap.Map(got, lib)
	if err != nil {
		return fmt.Errorf("techmap.Map: %w", err)
	}
	counts["map_lits"] += int64(m.Lits)
	counts["map_gates"] += int64(m.Gates)
	addResultCounts(counts, resp.Stats.BasisChoices, resp.Stats.Budget.Steps, resp.Literals, len(resp.Degradations))
	if resp.Stats.Obs != nil {
		addObs(layer, *resp.Stats.Obs)
	}
	return nil
}

// layerService sets the request-path metrics of the traced window.
func layerService(out *outcome, r loadRun, delta map[string]float64, retries int64) {
	var front, elapsed, hits, misses []float64
	for _, s := range r.samples {
		front = append(front, s.latMS-s.elapsedMS)
		elapsed = append(elapsed, s.elapsedMS)
		if s.source == "hit" {
			hits = append(hits, s.latMS)
		}
		if s.plan.miss {
			misses = append(misses, s.latMS)
		}
	}
	set := func(name string, xs []float64, p float64) {
		v, _ := Percentile(xs, p)
		out.set(name, v)
	}
	set("server.front_ms_p50", front, 50)
	set("client.hit_p50_ms", hits, 50)
	set("client.miss_p50_ms", misses, 50)
	_, v, _ := Tail(elapsed)
	out.set("server.elapsed_tail_ms", v)
	_, v, _ = Tail(misses)
	out.set("client.miss_tail_ms", v)
	out.set("server.hit_ratio", float64(len(hits))/float64(len(r.samples)))
	out.set("server.coalesced", delta["rmsynd_cache_coalesced_total"])
	out.set("server.shed", delta["rmsynd_shed_total"])
	out.set("server.admission_shrinks", delta["rmsynd_admission_shrinks_total"])
	out.set("client.retries", float64(retries))
}

// timeServerLayers times, outside the load, the public calls a request
// makes inside the server: parsing every body, signing every parsed
// specification, and the simulation re-check of every served netlist.
func timeServerLayers(out *outcome, pool []poolCircuit, bodies *served, tr *Tracer) error {
	var parse, sign, sim []float64
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for c, pc := range pool {
		for v, body := range pc.bodies {
			item := fmt.Sprintf("%s/%d", pc.name, v)
			var spec *network.Network
			var err error
			parse = append(parse, ms(tr.Time(0, "network", "network.ReadBLIF", item, func() {
				spec, err = network.ReadBLIF(bytes.NewReader(body))
			})))
			if err != nil {
				return fmt.Errorf("%s: %w", item, err)
			}
			sign = append(sign, ms(tr.Time(0, "sigcache", "sigcache.Signature", item, func() { sigcache.Signature(spec, 0) })))
		}
		_, got, err := decodeNetlist(bodies.list(c)[0])
		if err != nil {
			return fmt.Errorf("%s: %w", pc.name, err)
		}
		call := "verify.Exhaustive"
		if pc.spec.NumPIs() > 16 {
			call = "verify.RandomCheck"
		}
		var ok bool
		sim = append(sim, ms(tr.Time(0, "verify", call, pc.name, func() { ok, err = simCheck(pc.spec, got) })))
		if err != nil || !ok {
			return fmt.Errorf("%s: simulation re-check failed (%v)", pc.name, err)
		}
	}
	for name, xs := range map[string][]float64{
		"network.read_blif_ms_p50":  parse,
		"sigcache.signature_ms_p50": sign,
		"verify.sim_ms_p50":         sim,
	} {
		v, _ := Percentile(xs, 50)
		out.set(name, v)
	}
	return nil
}

// simCheck is the server's re-verification: exhaustive simulation up to
// 16 inputs, 2048 random vectors beyond.
func simCheck(spec, got *network.Network) (bool, error) {
	if spec.NumPIs() <= 16 {
		return verify.Exhaustive(spec, got)
	}
	bad, err := verify.RandomCheck(spec, got, 2048, 1)
	return bad < 0, err
}

func meanLatency(ss []sample) float64 {
	var sum float64
	for _, s := range ss {
		sum += s.latMS
	}
	return sum / float64(len(ss))
}

package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/server"
)

// ServerSweepOptions configures a server-level chaos sweep, which runs
// every scenario against serverSweepCircuit traffic.
type ServerSweepOptions struct {
	// Logf receives one line per scenario when set.
	Logf func(format string, args ...any)
}

const (
	// serverSweepCircuit is the bench circuit driving the scenarios:
	// multi-output, fast, small enough for exhaustive verification.
	serverSweepCircuit = "cm82a"
	// shedBurst is the N in "queue capacity + N requests shed exactly N".
	shedBurst = 3
)

// ServerSweep drives the rmsynd request path through every server-level
// fault class — worker-pool trips, cache poisoning attempts, client
// disconnection mid-request, slow-loris bodies, core-level faults over
// HTTP, malformed/oversized/duplicate submissions, overload bursts, and
// drain — and asserts the service contract: every response is either a
// verified network with a truthful degradation record or a structured
// rmsynd/v1 error; the process survives everything; poisoned results
// are never served or cached; shedding is exact.
//
// Each scenario gets a fresh server.Server behind a real httptest
// listener, so the asserted path is the production one: HTTP parsing,
// read deadlines, admission, the pool, the cache.
func ServerSweep(opt ServerSweepOptions) []Violation {
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	c, _ := bench.ByName(serverSweepCircuit)
	spec := blifBody(c.Build())

	var vs []Violation
	scenarios := []struct {
		name string
		run  func(spec []byte, bad func(invariant, detail string))
	}{
		{"cache-identity", runCacheIdentity},
		{"pool-panic", runPoolPanic},
		{"poison-result", runPoison},
		{"cancel-mid-request", runCancelMid},
		{"slow-loris", runSlowLoris},
		{"core-fault-degrade", runCoreFaultDegrade},
		{"core-fault-panic", runCoreFaultPanic},
		{"malformed", runMalformed},
		{"overload-shed", runOverload},
		{"drain", runDrain},
		{"overload-storm", runOverloadStorm},
		{"cache-crash-recovery", runCacheCrashRecovery},
		{"drain-under-load", runDrainUnderLoad},
	}
	for _, sc := range scenarios {
		bad := func(invariant, detail string) {
			vs = append(vs, Violation{Circuit: serverSweepCircuit, Plan: "server/" + sc.name, Invariant: invariant, Detail: detail})
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					bad("no-panic", fmt.Sprintf("scenario panicked: %v", r))
				}
			}()
			sc.run(spec, bad)
		}()
		logf("chaos: server/%s: done (%d violations so far)", sc.name, len(vs))
	}
	return vs
}

// blifBody serializes a network as a request body.
func blifBody(n *network.Network) []byte {
	var b bytes.Buffer
	if err := n.WriteBLIF(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// srvResp is one observed response.
type srvResp struct {
	status int
	body   []byte
	cache  string // X-Rmsynd-Cache
	err    error
}

func post(client *http.Client, url string, body []byte, hdr map[string]string) srvResp {
	return postCtx(context.Background(), client, url, body, hdr)
}

func postCtx(ctx context.Context, client *http.Client, url string, body []byte, hdr map[string]string) srvResp {
	req, err := http.NewRequestWithContext(ctx, "POST", url+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		return srvResp{err: err}
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return srvResp{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return srvResp{status: resp.StatusCode, err: err}
	}
	return srvResp{status: resp.StatusCode, body: b, cache: resp.Header.Get("X-Rmsynd-Cache")}
}

// errorCode extracts the rmsynd/v1 structured error code, "" if the
// body is not a structured error.
func errorCode(body []byte) string {
	var e server.ErrorBody
	if json.Unmarshal(body, &e) != nil {
		return ""
	}
	return e.Error.Code
}

// verifiedResponse asserts a 200 body parses as rmsynd/v1 with
// Verified set, returning the parsed response.
func verifiedResponse(r srvResp, bad func(string, string), where string) *server.Response {
	if r.err != nil {
		bad("alive", where+": request error: "+r.err.Error())
		return nil
	}
	if r.status != http.StatusOK {
		bad("status", fmt.Sprintf("%s: status %d, body %.200s", where, r.status, r.body))
		return nil
	}
	var resp server.Response
	if err := json.Unmarshal(r.body, &resp); err != nil {
		bad("structured", where+": 200 body is not rmsynd/v1: "+err.Error())
		return nil
	}
	if resp.Schema != server.Schema {
		bad("structured", where+": schema "+resp.Schema)
	}
	if !resp.Verified {
		bad("equivalent", where+": response not marked verified")
	}
	return &resp
}

// structuredError asserts a response is a structured rmsynd/v1 error
// with the wanted code.
func structuredError(r srvResp, wantStatus int, wantCode string, bad func(string, string), where string) {
	if r.err != nil {
		bad("alive", where+": request error: "+r.err.Error())
		return
	}
	if r.status != wantStatus {
		bad("status", fmt.Sprintf("%s: status %d, want %d (body %.200s)", where, r.status, wantStatus, r.body))
		return
	}
	if code := errorCode(r.body); code != wantCode {
		bad("structured", fmt.Sprintf("%s: error code %q, want %q (body %.200s)", where, code, wantCode, r.body))
	}
}

func newTestServer(cfg server.Config) (*server.Server, *httptest.Server) {
	srv := server.New(cfg)
	return srv, httptest.NewServer(srv)
}

// runCacheIdentity: a repeated identical submission is a hit whose body
// is byte-identical to the miss, and a functionally identical but
// textually different submission hits too.
func runCacheIdentity(spec []byte, bad func(string, string)) {
	_, ts := newTestServer(server.Config{Workers: 2})
	defer ts.Close()

	first := post(ts.Client(), ts.URL, spec, nil)
	if verifiedResponse(first, bad, "miss") == nil {
		return
	}
	if first.cache != "miss" {
		bad("cache", "first submission was "+first.cache+", want miss")
	}
	second := post(ts.Client(), ts.URL, spec, nil)
	if verifiedResponse(second, bad, "hit") == nil {
		return
	}
	if second.cache != "hit" {
		bad("cache", "repeated submission was "+second.cache+", want hit")
	}
	if !bytes.Equal(first.body, second.body) {
		bad("cache", "hit body differs from miss body")
	}
	// Textually different, functionally identical: append comments and
	// reparse-stable whitespace. The BLIF parser ignores both, and the
	// signature is functional, so this must hit.
	variant := append([]byte("# regenerated file\n\n"), spec...)
	third := post(ts.Client(), ts.URL, variant, nil)
	if verifiedResponse(third, bad, "variant") == nil {
		return
	}
	if third.cache != "hit" {
		bad("cache", "functionally identical variant was "+third.cache+", want hit")
	}
	// An explicit bypass must re-synthesize.
	fourth := post(ts.Client(), ts.URL, spec, map[string]string{"X-Rmsynd-No-Cache": "1"})
	if verifiedResponse(fourth, bad, "bypass") == nil {
		return
	}
	if fourth.cache != "miss" {
		bad("cache", "no-cache submission was "+fourth.cache+", want miss")
	}
	if !bytes.Equal(fourth.body, first.body) {
		bad("cache", "fresh bypass body differs from cached body")
	}
}

// runPoolPanic: a panic at the worker-pool boundary is contained to a
// structured 500 and releases the request's pool slots.
func runPoolPanic(spec []byte, bad func(string, string)) {
	var jobs atomic.Int64
	_, ts := newTestServer(server.Config{
		Workers: 2,
		Hooks: &server.Hooks{JobStart: func(string) {
			if jobs.Add(1) == 1 {
				panic(Marker + "injected worker-pool trip")
			}
		}},
	})
	defer ts.Close()

	r := post(ts.Client(), ts.URL, spec, nil)
	structuredError(r, http.StatusInternalServerError, "internal", bad, "tripped job")
	if !strings.Contains(string(r.body), Marker) {
		bad("truthful", "500 body does not carry the chaos marker: "+string(r.body))
	}
	// The pool must have recovered its slots: a clean request succeeds.
	if verifiedResponse(post(ts.Client(), ts.URL, spec, nil), bad, "after trip") == nil {
		return
	}
	// And the panicked flight must not have cached anything.
	r3 := post(ts.Client(), ts.URL, spec, nil)
	if r3.cache != "hit" {
		bad("cache", "clean run after trip not cached: "+r3.cache)
	}
}

// runPoison: a mutation of the synthesized result before caching is
// caught by server-side verification — the client gets a truthful 500
// and the cache stays clean.
func runPoison(spec []byte, bad func(string, string)) {
	var jobs atomic.Int64
	_, ts := newTestServer(server.Config{
		Workers: 2,
		Hooks: &server.Hooks{MutateResult: func(n *network.Network) {
			if jobs.Add(1) == 1 && len(n.POs) > 0 {
				// Flip the first output: a functional corruption the
				// structural stats would never notice.
				n.POs[0].Gate = n.AddGate(network.Not, n.POs[0].Gate)
			}
		}},
	})
	defer ts.Close()

	structuredError(post(ts.Client(), ts.URL, spec, nil),
		http.StatusInternalServerError, "not_equivalent", bad, "poisoned job")
	// The poisoned result must not have been cached: the next identical
	// submission re-synthesizes (miss), cleanly.
	r := post(ts.Client(), ts.URL, spec, nil)
	if verifiedResponse(r, bad, "after poison") == nil {
		return
	}
	if r.cache != "miss" {
		bad("cache", "request after poisoning was "+r.cache+", want miss (nothing may be served from a poisoned flight)")
	}
}

// runCancelMid: the client disconnects while its request is
// synthesizing; the flight is detached, completes, and populates the
// cache — a later identical submission hits.
func runCancelMid(spec []byte, bad func(string, string)) {
	entered := make(chan struct{}, 8)
	release := make(chan struct{})
	var once sync.Once
	_, ts := newTestServer(server.Config{
		Workers: 2,
		Hooks: &server.Hooks{JobStart: func(string) {
			entered <- struct{}{}
			<-release
		}},
	})
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan srvResp, 1)
	go func() { done <- postCtx(ctx, ts.Client(), ts.URL, spec, nil) }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		bad("alive", "request never reached the worker pool")
		once.Do(func() { close(release) })
		return
	}
	cancel() // client walks away mid-synthesis
	r := <-done
	if r.err == nil && r.status == http.StatusOK {
		bad("status", "canceled client still got a 200 before its flight finished")
	}
	once.Do(func() { close(release) })

	// The detached flight finishes and caches; poll briefly for the hit.
	deadline := time.Now().Add(10 * time.Second)
	for {
		r := post(ts.Client(), ts.URL, spec, nil)
		if r.err == nil && r.status == http.StatusOK && r.cache == "hit" {
			return
		}
		if time.Now().After(deadline) {
			bad("cache", fmt.Sprintf("abandoned flight never cached (last: status %d cache %q)", r.status, r.cache))
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// runSlowLoris: a body that trickles in past the read deadline gets a
// structured 408 and does not wedge the server.
func runSlowLoris(spec []byte, bad func(string, string)) {
	_, ts := newTestServer(server.Config{Workers: 2, ReadTimeout: 300 * time.Millisecond})
	defer ts.Close()

	conn, err := net.Dial("tcp", ts.Listener.Addr().String())
	if err != nil {
		bad("alive", "dial: "+err.Error())
		return
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/synthesize?format=blif HTTP/1.1\r\nHost: rmsynd\r\nContent-Length: %d\r\n\r\n", len(spec)+4096)
	conn.Write(spec[:8]) // a taste, then silence
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 8192)
	n, rerr := conn.Read(buf)
	if rerr != nil {
		bad("status", "no response to a stalled body: "+rerr.Error())
		return
	}
	head := string(buf[:n])
	if !strings.Contains(head, "408") {
		bad("status", fmt.Sprintf("stalled body answered %.120q, want a 408", head))
	}
	if !strings.Contains(head, "read_timeout") {
		bad("structured", fmt.Sprintf("stalled-body response carries no read_timeout code: %.200q", head))
	}
	// The server still serves normal traffic afterwards.
	verifiedResponse(post(ts.Client(), ts.URL, spec, nil), bad, "after slow-loris")
}

// runCoreFaultDegrade: a core-level injected trip driven through the
// HTTP path yields a 200 whose degradation record carries the chaos
// marker — and the degraded result is never cached.
func runCoreFaultDegrade(spec []byte, bad func(string, string)) {
	plan := Plan{Name: "bdd-alloc-tiny", FailBDDAlloc: 8}
	var armed atomic.Bool
	armed.Store(true)
	_, ts := newTestServer(server.Config{
		Workers: 2,
		Hooks: &server.Hooks{CoreHooks: func() *core.ProbeHooks {
			if !armed.Load() {
				return nil
			}
			return plan.Hooks(nil)
		}},
	})
	defer ts.Close()

	r := post(ts.Client(), ts.URL, spec, nil)
	resp := verifiedResponse(r, bad, "degraded run")
	if resp == nil {
		return
	}
	marked := false
	for _, d := range resp.Degradations {
		if strings.Contains(d.Reason, Marker) {
			marked = true
		}
	}
	if !marked {
		bad("truthful", fmt.Sprintf("injected core trip left no chaos-marked degradation (%d recorded)", len(resp.Degradations)))
	}
	// Degraded results are served, never cached: with the fault
	// disarmed, the same submission must be a miss and come back clean.
	armed.Store(false)
	r2 := post(ts.Client(), ts.URL, spec, nil)
	resp2 := verifiedResponse(r2, bad, "after disarm")
	if resp2 == nil {
		return
	}
	if r2.cache != "miss" {
		bad("cache", "degraded result was cached: follow-up was "+r2.cache)
	}
	if len(resp2.Degradations) != 0 {
		bad("truthful", "clean run reports stale degradations")
	}
}

// runCoreFaultPanic: an injected panic inside a core phase surfaces as
// a structured 500 carrying the marker; the process survives.
func runCoreFaultPanic(spec []byte, bad func(string, string)) {
	plan := Plan{Name: "panic-fprm", PanicAtPhase: "fprm"}
	var jobs atomic.Int64
	_, ts := newTestServer(server.Config{
		Workers: 2,
		Hooks: &server.Hooks{CoreHooks: func() *core.ProbeHooks {
			if jobs.Add(1) > 1 {
				return nil
			}
			return plan.Hooks(nil)
		}},
	})
	defer ts.Close()

	r := post(ts.Client(), ts.URL, spec, nil)
	structuredError(r, http.StatusInternalServerError, "synth_failed", bad, "core panic")
	if !strings.Contains(string(r.body), Marker) {
		bad("truthful", "core-panic 500 does not carry the chaos marker: "+string(r.body))
	}
	verifiedResponse(post(ts.Client(), ts.URL, spec, nil), bad, "after core panic")
}

// runMalformed: garbage, unparseable, oversized, and bad-option
// requests each get their own structured error, and none of them
// disturb later valid traffic.
func runMalformed(spec []byte, bad func(string, string)) {
	_, ts := newTestServer(server.Config{Workers: 2, MaxBodyBytes: 2048})
	defer ts.Close()
	client := ts.Client()

	structuredError(post(client, ts.URL, []byte("certainly not a netlist\n"), nil),
		http.StatusUnsupportedMediaType, "bad_format", bad, "garbage body")
	structuredError(post(client, ts.URL, []byte(".i 2\n.o 1\nthis is not a cover\n.e\n"), nil),
		http.StatusBadRequest, "bad_spec", bad, "broken PLA")
	structuredError(post(client, ts.URL, []byte(".model x\n.inputs a\n.outputs y\n.names a y\nz 1\n.end\n"), nil),
		http.StatusBadRequest, "bad_spec", bad, "broken BLIF")
	structuredError(post(client, ts.URL, bytes.Repeat([]byte("#pad\n"), 4096), nil),
		http.StatusRequestEntityTooLarge, "spec_too_large", bad, "oversized body")
	structuredError(post(client, ts.URL, spec, map[string]string{"X-Rmsynd-Timeout": "soonish"}),
		http.StatusBadRequest, "bad_option", bad, "bad timeout header")
	structuredError(post(client, ts.URL, spec, map[string]string{"X-Rmsynd-Workers": "-4"}),
		http.StatusBadRequest, "bad_option", bad, "negative workers header")
	structuredError(post(client, ts.URL, spec, map[string]string{"X-Rmsynd-Max-Ofdd-Nodes": "-1"}),
		http.StatusBadRequest, "bad_option", bad, "negative OFDD node budget header")

	verifiedResponse(post(client, ts.URL, spec, nil), bad, "after malformed barrage")
}

// runOverload: with the admission pipe full, a burst of
// capacity+shedBurst requests sheds exactly shedBurst with 429 and
// serves every admitted one.
func runOverload(spec []byte, bad func(string, string)) {
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	srv, ts := newTestServer(server.Config{
		Workers:    1,
		QueueDepth: 2,
		Hooks:      &server.Hooks{JobStart: func(string) { <-release }},
	})
	defer ts.Close()
	capacity := srv.QueueCapacity()

	// Distinct specs so nothing coalesces: the spec's BLIF with a
	// renamed model/output per request (different interface = different
	// signature).
	variant := func(i int) []byte {
		c, _ := bench.ByName("f2")
		n := c.Build()
		n.Name = fmt.Sprintf("f2_v%d", i)
		n.POs[0].Name = fmt.Sprintf("y_v%d", i)
		return blifBody(n)
	}

	total := capacity + shedBurst
	results := make(chan srvResp, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		// Stagger sequentially into admission: each request must hold
		// its token before the next fires, so exactly `capacity` are in
		// the system when the burst tail arrives. A goroutine per
		// request carries it to completion.
		body := variant(i)
		wg.Add(1)
		started := make(chan struct{})
		go func() {
			defer wg.Done()
			close(started)
			results <- post(ts.Client(), ts.URL, body, map[string]string{"X-Rmsynd-Timeout": "30s"})
		}()
		<-started
		// Wait until this request is either holding an admission token
		// or has been shed, before firing the next.
		waitAccounted(srv, i+1)
	}
	// Every request is now pinned: capacity of them hold tokens, the
	// rest are shed. Open the gate and let the admitted ones finish.
	once.Do(func() { close(release) })
	wg.Wait()
	close(results)

	var ok, shed int
	for r := range results {
		switch {
		case r.err == nil && r.status == http.StatusOK:
			ok++
		case r.err == nil && r.status == http.StatusTooManyRequests:
			shed++
			if code := errorCode(r.body); code != "queue_full" {
				bad("structured", "429 without queue_full code: "+string(r.body))
			}
		default:
			bad("status", fmt.Sprintf("burst request: err=%v status=%d body=%.120s", r.err, r.status, r.body))
		}
	}
	if shed != shedBurst {
		bad("shed", fmt.Sprintf("shed %d of a capacity+%d burst, want exactly %d", shed, shedBurst, shedBurst))
	}
	if ok != capacity {
		bad("shed", fmt.Sprintf("served %d, want all %d admitted", ok, capacity))
	}
}

// waitAccounted polls the metrics until `fired` requests are accounted
// for — holding an admission token (running or queued) or shed — which
// removes the overload scenario's scheduling nondeterminism: every
// fired request lands in exactly one of those states and stays there
// until the gate opens.
func waitAccounted(srv *server.Server, fired int) {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		m := srv.Metrics()
		total := promGauge(m, "rmsynd_inflight") + promGauge(m, "rmsynd_queue_depth") + promGauge(m, "rmsynd_shed_total")
		if total >= int64(fired) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// promGauge extracts one un-labelled metric value from a Prometheus
// text rendering (0 when absent).
func promGauge(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v int64
			fmt.Sscanf(line[len(name)+1:], "%d", &v)
			return v
		}
	}
	return 0
}

// runDrain: BeginDrain stops admission with a structured 503 while
// in-flight work completes; Shutdown returns once it has.
func runDrain(spec []byte, bad func(string, string)) {
	entered := make(chan struct{}, 4)
	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	srv, ts := newTestServer(server.Config{
		Workers: 2,
		Hooks:   &server.Hooks{JobStart: func(string) { entered <- struct{}{}; <-release }},
	})
	defer ts.Close()

	inflight := make(chan srvResp, 1)
	go func() { inflight <- post(ts.Client(), ts.URL, spec, nil) }()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		bad("drain", "in-flight request never started")
		return
	}

	srv.BeginDrain()
	structuredError(post(ts.Client(), ts.URL, spec, nil),
		http.StatusServiceUnavailable, "draining", bad, "post-drain admission")

	done := make(chan error, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	go func() { done <- srv.Shutdown(ctx) }()
	once.Do(func() { close(release) })

	if r := <-inflight; r.err != nil || r.status != http.StatusOK {
		bad("drain", fmt.Sprintf("in-flight request during drain: err=%v status=%d", r.err, r.status))
	}
	if err := <-done; err != nil {
		bad("drain", "graceful Shutdown returned "+err.Error())
	}
}

package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/network"
	"repro/internal/server"
)

var update = flag.Bool("update", false, "rewrite the golden rmsynd/v1 fixtures")

// The golden tests pin the rmsynd/v1 wire format byte for byte: the
// success body, the degraded body, and the 429 shed body. Any schema
// drift — a renamed field, a reordered key, a float that picks up
// jitter — fails here before a client sees it. Regenerate deliberately
// with `go test ./internal/server -run TestGolden -update`.

func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden (run with -update if deliberate)\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func benchBLIF(t *testing.T, name string) []byte {
	t.Helper()
	c, ok := bench.ByName(name)
	if !ok {
		t.Fatalf("bench circuit %s missing", name)
	}
	var b bytes.Buffer
	if err := c.Build().WriteBLIF(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func postBLIF(t *testing.T, ts *httptest.Server, body []byte, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/v1/synthesize", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestGoldenSuccess(t *testing.T) {
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := benchBLIF(t, "cm82a")
	// Workers pinned to 1 for a scheduling-independent body (the stats
	// are volatile-stripped anyway; this is belt and braces).
	hdrs := map[string]string{"X-Rmsynd-Workers": "1"}
	resp, miss := postBLIF(t, ts, spec, hdrs)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, miss)
	}
	if got := resp.Header.Get("X-Rmsynd-Cache"); got != "miss" {
		t.Errorf("first request X-Rmsynd-Cache = %q, want miss", got)
	}
	goldenCompare(t, "success.json", miss)

	// Acceptance: the identical resubmission is a cache hit and its body
	// is byte-identical to the miss.
	resp2, hit := postBLIF(t, ts, spec, hdrs)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Rmsynd-Cache"); got != "hit" {
		t.Errorf("repeat X-Rmsynd-Cache = %q, want hit", got)
	}
	if !bytes.Equal(miss, hit) {
		t.Errorf("cache hit body differs from its miss (%d vs %d bytes)", len(miss), len(hit))
	}
}

// TestModelNameKeysCache: adr4 and radd compute the same functions over
// the same PI and PO names. The body embeds the model name, so radd must
// not be served adr4's cached body.
func TestModelNameKeysCache(t *testing.T) {
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	for _, name := range []string{"adr4", "radd"} {
		resp, body := postBLIF(t, ts, benchBLIF(t, name), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", name, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Rmsynd-Cache"); got != "miss" {
			t.Errorf("%s: X-Rmsynd-Cache = %q, want miss", name, got)
		}
		var r server.Response
		if err := json.Unmarshal(body, &r); err != nil {
			t.Fatal(err)
		}
		if r.Circuit != name {
			t.Errorf("%s: body reads circuit %q", name, r.Circuit)
		}
		if model := ".model " + name + "_rm\n"; !strings.Contains(r.NetworkBLIF, model) {
			t.Errorf("%s: network BLIF lacks %q", name, model)
		}
	}
}

func TestGoldenDegraded(t *testing.T) {
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// A one-cube budget trips the ladder deterministically; one worker
	// keeps the degradation record order fixed.
	resp, body := postBLIF(t, ts, benchBLIF(t, "cm82a"), map[string]string{
		"X-Rmsynd-Max-Cubes": "1",
		"X-Rmsynd-Workers":   "1",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	goldenCompare(t, "degraded.json", body)
	if !bytes.Contains(body, []byte(`"degradations": [`)) || bytes.Contains(body, []byte(`"degradations": []`)) {
		t.Errorf("degraded body carries no degradation record:\n%s", body)
	}
	// Degraded results are served, never cached.
	if resp.Header.Get("X-Rmsynd-Cache") != "miss" {
		t.Errorf("degraded response X-Rmsynd-Cache = %q", resp.Header.Get("X-Rmsynd-Cache"))
	}
	if n := srv.Cache().Len(); n != 0 {
		t.Errorf("degraded run populated the cache (%d entries)", n)
	}
}

// TestWideConeRequest: a 26-input OR at basis xor passes the OFDD
// method's cube-count limit. The request is answered 200 with the
// limit's degradation; without the limit its factoring exhausts the
// process's memory and takes the server down with it.
func TestWideConeRequest(t *testing.T) {
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	spec := network.New("or26")
	pis := make([]int, 26)
	for i := range pis {
		pis[i] = spec.AddPI("")
	}
	spec.AddPO("z", spec.AddGate(network.Or, pis...))
	var blif bytes.Buffer
	if err := spec.WriteBLIF(&blif); err != nil {
		t.Fatal(err)
	}
	resp, body := postBLIF(t, ts, blif.Bytes(), map[string]string{"X-Rmsynd-Basis": "xor"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var r server.Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Degradations) != 1 || !strings.Contains(r.Degradations[0].Reason, "over the OFDD method's limit") {
		t.Errorf("degradations %+v, want the OFDD method's limit", r.Degradations)
	}
}

func TestGoldenShed(t *testing.T) {
	gate := make(chan struct{})
	srv := server.New(server.Config{
		Workers:    1,
		QueueDepth: -1, // capacity exactly 1
		Hooks:      &server.Hooks{JobStart: func(string) { <-gate }},
	})
	ts := httptest.NewServer(srv)
	// Open the gate before ts.Close (defers run LIFO): Close waits for
	// the gated first request, which waits for the gate.
	defer ts.Close()
	defer close(gate)
	if got := srv.QueueCapacity(); got != 1 {
		t.Fatalf("QueueCapacity = %d, want 1", got)
	}

	spec := benchBLIF(t, "cm82a")
	first := make(chan struct{})
	go func() {
		defer close(first)
		// Raw post: this goroutine may outlive the test body, so no
		// t-helpers here. Its only job is to hold the admission token.
		resp, err := ts.Client().Post(ts.URL+"/v1/synthesize", "text/blif", bytes.NewReader(spec))
		if err == nil {
			resp.Body.Close()
		}
	}()
	// Wait until the first request holds the admission token (it is
	// gated inside JobStart, so it shows up as inflight).
	for i := 0; ; i++ {
		if bytes.Contains([]byte(srv.Metrics()), []byte("rmsynd_inflight 1")) {
			break
		}
		if i > 5000 {
			t.Fatal("first request never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postBLIF(t, ts, spec, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body %s", resp.StatusCode, body)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	// retry_after_ms is deliberately jittered (±20% around the queue-
	// derived base, here 1000ms with one request in system) so shed
	// clients do not return in lockstep. Assert the range, then pin the
	// field to the base so the rest of the body stays byte-golden.
	var shed struct {
		Error struct {
			RetryAfterMS int64 `json:"retry_after_ms"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &shed); err != nil {
		t.Fatalf("unparseable shed body: %v\n%s", err, body)
	}
	if ms := shed.Error.RetryAfterMS; ms < 800 || ms > 1200 {
		t.Errorf("retry_after_ms = %d, want within the jitter window [800, 1200]", ms)
	}
	body = regexp.MustCompile(`"retry_after_ms": \d+`).ReplaceAll(body, []byte(`"retry_after_ms": 1000`))
	goldenCompare(t, "shed.json", body)
}

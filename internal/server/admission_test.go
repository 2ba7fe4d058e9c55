package server_test

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// TestZeroConfigRunsAIMD: a Config that leaves Adaptive unset admits
// through the AIMD limiter rmsynd ships. A shed past capacity is a
// congestion signal, so it cuts the effective cap below the static
// capacity.
func TestZeroConfigRunsAIMD(t *testing.T) {
	gate := make(chan struct{})
	srv := server.New(server.Config{
		Workers:    1,
		QueueDepth: 1,
		Hooks:      &server.Hooks{JobStart: func(string) { <-gate }},
	})
	ts := httptest.NewServer(srv)
	// Open the gate before ts.Close (defers run LIFO): Close waits for
	// the gated requests, which wait for the gate.
	defer ts.Close()
	defer close(gate)

	spec := benchBLIF(t, "cm82a")
	// Fill capacity: one request parked at the gate, one queued behind
	// it. Raw posts: these goroutines may outlive the test body.
	for i := 0; i < srv.QueueCapacity(); i++ {
		go func() {
			resp, err := ts.Client().Post(ts.URL+"/v1/synthesize", "text/blif", bytes.NewReader(spec))
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	for i := 0; !strings.Contains(srv.Metrics(), "rmsynd_admission_in_system 2\n"); i++ {
		if i > 5000 {
			t.Fatal("capacity never filled")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postBLIF(t, ts, spec, nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("request past capacity: status %d, want 429; body %s", resp.StatusCode, body)
	}

	m := scrape(t, ts.URL)
	if got := metricValue(m, "rmsynd_admission_shrinks_total"); got != 1 {
		t.Errorf("rmsynd_admission_shrinks_total = %d, want 1", got)
	}
	limit, capacity := metricValue(m, "rmsynd_admission_limit"), metricValue(m, "rmsynd_admission_capacity")
	if limit >= capacity {
		t.Errorf("rmsynd_admission_limit = %d, want below rmsynd_admission_capacity %d", limit, capacity)
	}
}

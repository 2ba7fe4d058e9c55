package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func shedBody(ms int64) string {
	return fmt.Sprintf(`{"schema":"rmsynd/v1","error":{"code":"queue_full","message":"shed","retry_after_ms":%d}}`, ms)
}

// flaky is a backend that sheds its first n requests, then succeeds.
func flaky(t *testing.T, shedFirst int64, retryMS int64) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= shedFirst {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, shedBody(retryMS))
			return
		}
		w.Header().Set("X-Rmsynd-Cache", "miss")
		fmt.Fprint(w, `{"schema":"rmsynd/v1"}`)
	}))
	t.Cleanup(ts.Close)
	return ts, &calls
}

// TestRetryHonorsRetryAfter: shed responses are retried with a backoff
// floored by the server's retry_after_ms, and the call eventually
// succeeds.
func TestRetryHonorsRetryAfter(t *testing.T) {
	ts, calls := flaky(t, 2, 40)
	c, err := New(Config{BaseURL: ts.URL, MaxRetries: 3, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := c.Synthesize(context.Background(), []byte(".i 1"), Options{})
	if err != nil {
		t.Fatalf("Synthesize after sheds: %v", err)
	}
	if got := calls.Load(); got != 3 {
		t.Errorf("backend saw %d calls, want 3 (2 sheds + success)", got)
	}
	if res.Attempts != 3 {
		t.Errorf("Attempts = %d, want 3", res.Attempts)
	}
	// Two waits, each floored at the server's 40ms: the exponential
	// backoff alone (≤5ms cap) could never take this long.
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Errorf("retries ignored the server's Retry-After: total %v < 80ms", elapsed)
	}
}

// TestNonRetryableFailsFast: a 400 is the client's own fault —
// resubmitting the same bad spec is pure load.
func TestNonRetryableFailsFast(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		fmt.Fprint(w, `{"schema":"rmsynd/v1","error":{"code":"bad_spec","message":"nope"}}`)
	}))
	defer ts.Close()
	c, _ := New(Config{BaseURL: ts.URL, MaxRetries: 5, BaseBackoff: time.Millisecond})
	_, err := c.Synthesize(context.Background(), []byte("garbage"), Options{})
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != "bad_spec" {
		t.Fatalf("err = %v, want bad_spec APIError", err)
	}
	if got := calls.Load(); got != 1 {
		t.Errorf("backend saw %d calls for a non-retryable error, want 1", got)
	}
}

// TestDeadlinePropagation: Options.Timeout travels to the server as
// X-Rmsynd-Timeout so the server's grant matches the client's patience.
func TestDeadlinePropagation(t *testing.T) {
	var got atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get("X-Rmsynd-Timeout"))
		fmt.Fprint(w, `{"schema":"rmsynd/v1"}`)
	}))
	defer ts.Close()
	c, _ := New(Config{BaseURL: ts.URL})
	if _, err := c.Synthesize(context.Background(), []byte("x"), Options{Timeout: 1500 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if h, _ := got.Load().(string); h != "1.5s" {
		t.Errorf("X-Rmsynd-Timeout = %q, want 1.5s", h)
	}
}

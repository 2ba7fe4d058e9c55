package server_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

func getStatus(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestReadyzLifecycle walks the readiness contract end to end: ready
// when idle, not ready at admission capacity, ready again when load
// clears, not ready the moment a drain begins (while liveness holds),
// and only the completed shutdown flips liveness.
func TestReadyzLifecycle(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(gate) })
	srv := server.New(server.Config{
		Workers:    1,
		QueueDepth: 1,
		Hooks:      &server.Hooks{JobStart: func(string) { <-gate }},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if st, _ := getStatus(t, ts.URL+"/healthz"); st != http.StatusOK {
		t.Fatalf("idle /healthz = %d, want 200", st)
	}
	if st, _ := getStatus(t, ts.URL+"/readyz"); st != http.StatusOK {
		t.Fatalf("idle /readyz = %d, want 200", st)
	}

	// Fill the admission window: one request parked at the gate plus one
	// queued is the whole capacity (workers 1 + queue 1).
	var wg sync.WaitGroup
	for i := 0; i < srv.QueueCapacity(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/synthesize", "text/blif", strings.NewReader(string(benchBLIF(t, "cm82a"))))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, body := getStatus(t, ts.URL+"/readyz")
		if st == http.StatusServiceUnavailable {
			if !strings.Contains(body, "saturated") {
				t.Errorf("saturated /readyz body = %q, want a saturation notice", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never went unready at admission capacity")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st, _ := getStatus(t, ts.URL+"/healthz"); st != http.StatusOK {
		t.Errorf("saturated /healthz = %d, want 200 (liveness is not load)", st)
	}

	once.Do(func() { close(gate) })
	wg.Wait()
	deadline = time.Now().Add(10 * time.Second)
	for {
		if st, _ := getStatus(t, ts.URL+"/readyz"); st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never recovered after the load cleared")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Drain flips readiness immediately; liveness holds until the
	// shutdown completes, so an orchestrator stops routing before it
	// considers the process dead.
	srv.BeginDrain()
	if st, body := getStatus(t, ts.URL+"/readyz"); st != http.StatusServiceUnavailable || !strings.Contains(body, "draining") {
		t.Errorf("draining /readyz = %d %q, want 503 draining", st, body)
	}
	if st, _ := getStatus(t, ts.URL+"/healthz"); st != http.StatusOK {
		t.Errorf("draining /healthz = %d, want 200 until shutdown completes", st)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if st, _ := getStatus(t, ts.URL+"/healthz"); st != http.StatusServiceUnavailable {
		t.Errorf("post-shutdown /healthz = %d, want 503", st)
	}
}

// TestReadyzCacheWarm: with a persistent cache configured, readiness
// waits for the startup scan, then reports ready with the tier attached.
func TestReadyzCacheWarm(t *testing.T) {
	srv := server.New(server.Config{Workers: 1, CacheDir: t.TempDir()})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if st, _ := getStatus(t, ts.URL+"/readyz"); st == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/readyz never reported ready after the cache scan")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if srv.Cache().Disk() == nil {
		t.Error("ready with a cache dir configured but no persistent tier attached")
	}
}

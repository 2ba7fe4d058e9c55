package server_test

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestSoakBinary is the end-to-end service soak: it builds the real
// rmsynd binary, runs one clean instance and one with a core chaos plan
// injected into every request, hammers both with mixed valid, malformed,
// oversized, and duplicate traffic, and then asserts the service
// contract from the outside — no crashes, structured errors only, cache
// hits observed, and a clean SIGTERM drain with exit code 0.
func TestSoakBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("binary soak is not short")
	}
	bin := buildRmsynd(t)

	t.Run("clean", func(t *testing.T) {
		inst := startRmsynd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2", "-queue", "4", "-max-body", "65536")
		soakTraffic(t, inst.url, false)

		// The concurrent duplicates coalesce onto one flight; a sequential
		// resubmission after the storm is the genuine cache hit.
		resp, err := http.Post(inst.url+"/v1/synthesize", "text/blif", bytes.NewReader(benchBLIF(t, "cm82a")))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if got := resp.Header.Get("X-Rmsynd-Cache"); got != "hit" {
			t.Errorf("post-storm duplicate X-Rmsynd-Cache = %q, want hit", got)
		}

		m := scrape(t, inst.url)
		if hits := metricValue(m, "rmsynd_cache_hits_total"); hits <= 0 {
			t.Errorf("rmsynd_cache_hits_total = %d after duplicate traffic, want > 0", hits)
		}
		if p := metricValue(m, "rmsynd_panics_total"); p != 0 {
			t.Errorf("rmsynd_panics_total = %d on clean traffic", p)
		}
		inst.drain(t)
	})

	t.Run("chaos", func(t *testing.T) {
		inst := startRmsynd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2", "-max-body", "65536",
			"-chaos-plan", "bdd-alloc-tiny")
		soakTraffic(t, inst.url, true)
		inst.drain(t)
	})
}

// TestRestartSoak is the crash-recovery soak: a real rmsynd with a
// persistent cache dir is killed with SIGKILL mid-traffic — no drain, no
// flush — and a second instance on the same directory must come up warm:
// disk hits observed, zero corrupt entries, and the recovered bytes
// identical to the pre-crash response.
func TestRestartSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("restart soak is not short")
	}
	bin := buildRmsynd(t)
	cacheDir := t.TempDir()
	blif := benchBLIF(t, "cm82a")

	inst := startRmsynd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2", "-cache-dir", cacheDir)

	// Populate: post until the entry lands on disk (the tier attaches
	// asynchronously), remembering the clean bytes.
	var firstBody []byte
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Post(inst.url+"/v1/synthesize", "text/blif", bytes.NewReader(blif))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("populate: status %d: %.200s", resp.StatusCode, body)
		}
		if firstBody == nil {
			firstBody = body
		}
		if metricValue(scrape(t, inst.url), "rmsynd_sigcache_disk_entries") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("entry never reached the persistent tier before the crash")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// Background traffic so the kill lands mid-flight, then SIGKILL: the
	// process gets no chance to drain or finish a write.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(inst.url+"/v1/synthesize", "text/blif", bytes.NewReader(blif))
			if err != nil {
				return // the kill severed the connection — expected
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	if err := inst.cmd.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	<-inst.done
	close(stop)
	wg.Wait()

	// Second life on the same directory.
	inst2 := startRmsynd(t, bin, "-addr", "127.0.0.1:0", "-workers", "2", "-cache-dir", cacheDir)
	deadline = time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(inst2.url + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("restarted rmsynd never became ready")
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Post(inst2.url+"/v1/synthesize", "text/blif", bytes.NewReader(blif))
	if err != nil {
		t.Fatal(err)
	}
	warmBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm request: status %d: %.200s", resp.StatusCode, warmBody)
	}
	if got := resp.Header.Get("X-Rmsynd-Cache"); got != "disk" {
		t.Errorf("post-crash X-Rmsynd-Cache = %q, want disk", got)
	}
	if !bytes.Equal(warmBody, firstBody) {
		t.Error("disk-recovered body differs from the pre-crash response")
	}

	m := scrape(t, inst2.url)
	if v := metricValue(m, "rmsynd_sigcache_scan_recovered_total"); v <= 0 {
		t.Errorf("rmsynd_sigcache_scan_recovered_total = %d after restart, want > 0", v)
	}
	if v := metricValue(m, "rmsynd_cache_disk_hits_total"); v <= 0 {
		t.Errorf("rmsynd_cache_disk_hits_total = %d after warm request, want > 0", v)
	}
	if v := metricValue(m, "rmsynd_sigcache_quarantined_total"); v != 0 {
		t.Errorf("rmsynd_sigcache_quarantined_total = %d, want 0 corrupt entries from a kill -9", v)
	}
	inst2.drain(t)
}

// buildRmsynd compiles cmd/rmsynd with the race detector into a temp
// dir, so the soak exercises the same binary an operator deploys.
func buildRmsynd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rmsynd")
	cmd := exec.Command("go", "build", "-race", "-o", bin, "repro/cmd/rmsynd")
	cmd.Dir = "../.." // module root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building rmsynd: %v\n%s", err, out)
	}
	return bin
}

type instance struct {
	cmd    *exec.Cmd
	url    string
	stderr *prefixBuffer
	done   chan error
}

// startRmsynd launches the binary on an ephemeral port and parses the
// bound address from its startup line.
func startRmsynd(t *testing.T, bin string, args ...string) *instance {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	inst := &instance{cmd: cmd, stderr: &prefixBuffer{}, done: make(chan error, 1)}

	addrCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			inst.stderr.add(line)
			if strings.HasPrefix(line, "rmsynd: listening on ") {
				f := strings.Fields(line)
				select {
				case addrCh <- f[3]:
				default:
				}
			}
		}
	}()
	go func() { inst.done <- cmd.Wait() }()

	select {
	case addr := <-addrCh:
		inst.url = "http://" + addr
	case err := <-inst.done:
		t.Fatalf("rmsynd exited before listening: %v\n%s", err, inst.stderr.String())
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("rmsynd never printed its listen line\n%s", inst.stderr.String())
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			<-inst.done
		}
		inst.dumpLog(t)
	})
	return inst
}

// dumpLog writes the instance's captured stderr to $RMSYND_LOG_DIR when
// the test failed. CI points the variable at a scratch directory and
// uploads it as an artifact on failure, so a soak flake ships the full
// server log instead of a bare exit code.
func (in *instance) dumpLog(t *testing.T) {
	dir := os.Getenv("RMSYND_LOG_DIR")
	if dir == "" || !t.Failed() {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("RMSYND_LOG_DIR: %v", err)
		return
	}
	name := strings.ReplaceAll(t.Name(), "/", "-")
	path := filepath.Join(dir, fmt.Sprintf("%s-pid%d.log", name, in.cmd.Process.Pid))
	if err := os.WriteFile(path, []byte(in.stderr.String()+"\n"), 0o644); err != nil {
		t.Logf("writing rmsynd log: %v", err)
		return
	}
	t.Logf("rmsynd stderr captured to %s", path)
}

// drain sends SIGTERM and asserts the documented contract: exit code 0
// and the "drained cleanly" line.
func (in *instance) drain(t *testing.T) {
	t.Helper()
	if err := in.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-in.done:
		if err != nil {
			t.Errorf("rmsynd exit after SIGTERM: %v\n%s", err, in.stderr.String())
		}
	case <-time.After(60 * time.Second):
		in.cmd.Process.Kill()
		t.Fatalf("rmsynd did not drain within 60s of SIGTERM\n%s", in.stderr.String())
	}
	if !strings.Contains(in.stderr.String(), "rmsynd: drained cleanly") {
		t.Errorf("no clean-drain line in stderr:\n%s", in.stderr.String())
	}
}

// soakTraffic fires the mixed workload. chaosMode relaxes the success
// assertions: with a fault plan injected into every request, a valid
// spec may come back degraded-but-verified (200) or as a structured
// 5xx — both are contract-conforming; an unstructured response is not.
func soakTraffic(t *testing.T, url string, chaosMode bool) {
	t.Helper()
	blif := benchBLIF(t, "cm82a")
	pla := []byte(".i 2\n.o 1\n.p 3\n11 1\n10 1\n01 1\n.e\n")
	malformed := []byte(".model bad\n.inputs a\n.outputs y\n.names a y\nz 1\n.end\n")
	oversized := bytes.Repeat([]byte("# padding line to push the body over the configured cap\n"), 2000)

	type shot struct {
		name string
		body []byte
		hdr  map[string]string
		want func(status int, body []byte) error
	}
	structured := func(status int, body []byte) error {
		if status == http.StatusOK {
			if !bytes.Contains(body, []byte(`"schema": "rmsynd/v1"`)) || !bytes.Contains(body, []byte(`"verified": true`)) {
				return fmt.Errorf("200 body is not a verified rmsynd/v1 response: %.200s", body)
			}
			return nil
		}
		if !bytes.Contains(body, []byte(`"schema": "rmsynd/v1"`)) || !bytes.Contains(body, []byte(`"code"`)) {
			return fmt.Errorf("status %d without a structured error body: %.200s", status, body)
		}
		return nil
	}
	wantStatus := func(s int) func(int, []byte) error {
		return func(status int, body []byte) error {
			if status != s {
				return fmt.Errorf("status %d, want %d: %.200s", status, s, body)
			}
			return structured(status, body)
		}
	}
	ok200 := wantStatus(http.StatusOK)
	if chaosMode {
		ok200 = structured // fault plan may legitimately turn 200 into a truthful 5xx
	}

	shots := []shot{
		{"valid-blif", blif, nil, ok200},
		{"dup-blif", blif, nil, ok200}, // duplicate: cache hit on the clean instance
		{"valid-pla", pla, map[string]string{"Content-Type": "text/pla"}, ok200},
		{"malformed", malformed, nil, wantStatus(http.StatusBadRequest)},
		{"oversized", oversized, nil, wantStatus(http.StatusRequestEntityTooLarge)},
		{"bad-header", blif, map[string]string{"X-Rmsynd-Timeout": "soon"}, wantStatus(http.StatusBadRequest)},
		{"unknown-format", []byte("what is this\n"), nil, wantStatus(http.StatusUnsupportedMediaType)},
	}

	const rounds = 6
	var wg sync.WaitGroup
	errCh := make(chan error, rounds*len(shots))
	for r := 0; r < rounds; r++ {
		for _, sh := range shots {
			wg.Add(1)
			go func(sh shot) {
				defer wg.Done()
				req, err := http.NewRequest("POST", url+"/v1/synthesize", bytes.NewReader(sh.body))
				if err != nil {
					errCh <- err
					return
				}
				for k, v := range sh.hdr {
					req.Header.Set(k, v)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					errCh <- fmt.Errorf("%s: %v", sh.name, err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				// 429/503 under load are contract-conforming sheds, not failures.
				if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
					if err := structured(resp.StatusCode, body); err != nil {
						errCh <- fmt.Errorf("%s: %v", sh.name, err)
					}
					return
				}
				if err := sh.want(resp.StatusCode, body); err != nil {
					errCh <- fmt.Errorf("%s: %v", sh.name, err)
				}
			}(sh)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func metricValue(text, name string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			v, err := strconv.ParseInt(strings.TrimSpace(line[len(name)+1:]), 10, 64)
			if err == nil {
				return v
			}
		}
	}
	return -1
}

// prefixBuffer is a line log safe for the stderr-reader goroutine and
// the test to share.
type prefixBuffer struct {
	mu    sync.Mutex
	lines []string
}

func (b *prefixBuffer) add(l string) {
	b.mu.Lock()
	b.lines = append(b.lines, l)
	b.mu.Unlock()
}

func (b *prefixBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return strings.Join(b.lines, "\n")
}

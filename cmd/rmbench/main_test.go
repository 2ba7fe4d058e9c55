package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestCommandLine pins rmbench's command-line contract: the exit codes,
// the gate's findings on doctored baselines of both schemas, option
// validation before any entry runs, and the partial artifact an
// interrupt leaves behind.
func TestCommandLine(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rmbench")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/rmbench")
	build.Dir = "../.." // module root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rmbench: %v\n%s", err, out)
	}

	t.Run("table gate findings", func(t *testing.T) {
		// One doctored cost per circuit run, plus a baseline entry the
		// run leaves out.
		base := doctor(t, "bench_baseline.json", "circuits", map[string]string{
			"adr4":  "",
			"cm82a": "ours_map_gates",
			"rd53":  "ours_map_lits",
			"z4ml":  "ours_lits",
		})
		code, _, stderr := invoke(t, bin, "-only", "z4ml,cm82a,rd53", "-check", base)
		if code != exitRegress {
			t.Fatalf("exit %d, want %d\n%s", code, exitRegress, stderr)
		}
		want := [][2]string{{"adr4", "missing"}, {"cm82a", "map-gates"}, {"rd53", "map-literals"}, {"z4ml", "literals"}}
		if got := findings(stderr); !reflect.DeepEqual(got, want) {
			t.Errorf("findings = %v, want %v\n%s", got, want, stderr)
		}
	})

	t.Run("scale gate findings", func(t *testing.T) {
		base := doctor(t, "scale_baseline.json", "points", map[string]string{
			"parity8":  "",
			"parity16": "ours_lits",
		})
		code, _, stderr := invoke(t, bin, "-family", "parity", "-widths", "8,16", "-check", base)
		if code != exitRegress {
			t.Fatalf("exit %d, want %d\n%s", code, exitRegress, stderr)
		}
		want := [][2]string{{"parity16", "literals"}}
		if got := findings(stderr); !reflect.DeepEqual(got, want) {
			t.Errorf("findings = %v, want %v\n%s", got, want, stderr)
		}
	})

	t.Run("unknown circuit", func(t *testing.T) {
		if code, _, stderr := invoke(t, bin, "-only", "nosuch"); code != exitFail || !strings.Contains(stderr, "nosuch") {
			t.Errorf("exit %d, want %d naming the circuit\n%s", code, exitFail, stderr)
		}
	})

	t.Run("bad method", func(t *testing.T) {
		code, stdout, stderr := invoke(t, bin, "-only", "z4ml", "-method", "3")
		if code != exitFail {
			t.Errorf("exit %d, want %d\n%s", code, exitFail, stderr)
		}
		if strings.Contains(stdout, "z4ml") {
			t.Errorf("a row ran before the options were rejected:\n%s", stdout)
		}
	})

	t.Run("interrupt leaves a partial artifact", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "partial.json")
		cmd := exec.Command(bin, "-only", "adr4,cm82a,mlp4,rd53,t481,z4ml", "-json", out)
		var stdout bytes.Buffer
		cmd.Stdout = &stdout
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// The second "running" line means the first entry is finished
		// and flushed.
		sc := bufio.NewScanner(stderr)
		started := 0
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), "running ") {
				if started++; started == 2 {
					if err := cmd.Process.Signal(os.Interrupt); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		err = cmd.Wait()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != exitFail {
			t.Fatalf("wait: %v, want exit %d", err, exitFail)
		}
		raw, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		var rep struct {
			Schema   string            `json:"schema"`
			Circuits []json.RawMessage `json:"circuits"`
		}
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatalf("partial artifact does not parse: %v", err)
		}
		if rep.Schema != "rmbench/v1" || len(rep.Circuits) == 0 || len(rep.Circuits) >= 6 {
			t.Errorf("partial artifact: schema %q with %d circuits, want rmbench/v1 with 1 to 5", rep.Schema, len(rep.Circuits))
		}
	})
}

// invoke executes the binary and returns its exit code and output.
func invoke(t *testing.T, bin string, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stdout.String(), stderr.String()
	case errors.As(err, &exit):
		return exit.ExitCode(), stdout.String(), stderr.String()
	}
	t.Fatal(err)
	return 0, "", ""
}

// doctor writes a copy of a committed baseline that keeps only the
// named entries, each in the file's order, lowering the named cost by
// one ("" keeps the entry as it is), and returns its path.
func doctor(t *testing.T, file, list string, keep map[string]string) string {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("../..", file))
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	var kept []any
	for _, e := range rep[list].([]any) {
		entry := e.(map[string]any)
		cost, ok := keep[entry["name"].(string)]
		if !ok {
			continue
		}
		if cost != "" {
			entry[cost] = entry[cost].(float64) - 1
		}
		kept = append(kept, entry)
	}
	if len(kept) != len(keep) {
		t.Fatalf("%s: kept %d of the %d named entries", file, len(kept), len(keep))
	}
	rep[list] = kept
	out, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), file)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// findings returns the (entry, kind) pairs of the gate's report, in the
// order printed.
func findings(stderr string) [][2]string {
	var fs [][2]string
	listing := false
	for _, line := range strings.Split(stderr, "\n") {
		if strings.Contains(line, "regression(s) against") {
			listing = true
			continue
		}
		if !listing || !strings.HasPrefix(line, "  ") {
			continue
		}
		parts := strings.SplitN(strings.TrimSpace(line), ": ", 3)
		if len(parts) == 3 {
			fs = append(fs, [2]string{parts[0], parts[1]})
		}
	}
	return fs
}

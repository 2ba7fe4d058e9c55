package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
)

// Usage errors exit 1, malformed flag values and options Validate
// rejects included; a plain synthesis run exits 0.
func TestUsageExitCode(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rmsyn")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/rmsyn")
	build.Dir = "../.." // module root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rmsyn: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-circuit", "z4ml", "-j", "x"}, exitUsage},
		{[]string{"-circuit", "z4ml", "-no-such-flag"}, exitUsage},
		{[]string{"-circuit", "z4ml", "-retry-factor", "2"}, exitUsage},
		{[]string{"-circuit", "nosuch"}, exitUsage},
		{[]string{"-circuit", "z4ml", "-max-nodes", "-1"}, exitUsage},
		{[]string{"-circuit", "z4ml", "-map=false"}, 0},
	} {
		err := exec.Command(bin, tc.args...).Run()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("%v: %v", tc.args, err)
		}
		if code != tc.code {
			t.Errorf("%v: exit %d, want %d", tc.args, code, tc.code)
		}
	}
}

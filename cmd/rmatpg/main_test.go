package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
)

// Usage errors exit 1, malformed flag values included; 2 is the
// synthesis-failure code.
func TestUsageExitCode(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "rmatpg")
	build := exec.Command("go", "build", "-o", bin, "repro/cmd/rmatpg")
	build.Dir = "../.." // module root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building rmatpg: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-circuit", "z4ml", "-j", "x"},
		{"-circuit", "z4ml", "-no-such-flag"},
		{"-circuit", "z4ml", "-retry-factor", "2"},
		{"-circuit", "nosuch"},
	} {
		err := exec.Command(bin, args...).Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%v: %v, want exit 1", args, err)
		}
	}
}

package persephone_test

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks the benchmark against this checkout.
// bench/ is a module of its own, so `go build ./...` and `go test ./...`
// stop at its boundary, and a change that breaks a signature it imports
// (the facade, spsc, darc, frontend, ...) would otherwise surface only
// when the benchmark is next run. It builds offline, as bench/run.sh
// does.
func TestBenchModuleVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	cmd := exec.Command(goBin, "vet", ".")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOFLAGS=-mod=mod", "GOPROXY=off", "GOTOOLCHAIN=local")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet in bench/: %v\n%s", err, out)
	}
}

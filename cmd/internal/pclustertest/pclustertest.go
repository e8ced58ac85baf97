// Package pclustertest drives the pcluster binary from the tests of the
// commands folded into it: proclus, clique and orclus are now
// `pcluster -algo <name>`, and their directories keep only their tests.
package pclustertest

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var bin string // the pcluster binary built by Main

// Main builds pcluster into a temporary directory, runs the tests and
// removes the binary. Call it from TestMain.
func Main(m *testing.M) int {
	dir, err := os.MkdirTemp("", "pcluster-bin-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	bin = filepath.Join(dir, "pcluster")
	// go test puts its own toolchain first on the test binary's PATH.
	if out, err := exec.Command("go", "build", "-o", bin, "proclus/cmd/pcluster").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building pcluster: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// Run runs `pcluster -algo algo args...` with its standard output sent
// to out. A failed run's error carries pcluster's standard error.
func Run(algo string, args []string, out io.Writer) error {
	var stderr strings.Builder
	cmd := exec.Command(bin, append([]string{"-algo", algo}, args...)...)
	cmd.Stdout, cmd.Stderr = out, &stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return nil
}

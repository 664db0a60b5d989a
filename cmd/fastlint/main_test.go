package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-analyzers", "bogus", "./..."}, &out, &errb); code != 2 {
		t.Fatalf("run -analyzers bogus = %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown analyzer") {
		t.Errorf("stderr = %q, want unknown analyzer error", errb.String())
	}
}

// TestTreeIsClean runs the full suite over the module — the same gate
// CI enforces — so a determinism or mask regression fails go test too.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	var out, errb bytes.Buffer
	if code := run([]string{"-C", root, "./..."}, &out, &errb); code != 0 {
		t.Fatalf("fastlint ./... = %d\n%s%s", code, out.String(), errb.String())
	}
}

// moduleRoot finds the module directory containing dir.
func moduleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", err
	}
	gomod := strings.TrimSpace(string(out))
	if gomod == "" || gomod == os.DevNull {
		return "", fmt.Errorf("no module for %s", dir)
	}
	return filepath.Dir(gomod), nil
}

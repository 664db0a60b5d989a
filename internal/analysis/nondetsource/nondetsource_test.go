package nondetsource

import (
	"testing"

	"fast/internal/analysis/analysistest"
)

func TestNondetsource(t *testing.T) {
	old := inScope
	inScope = func(path string) bool { return path == "nds" }
	defer func() { inScope = old }()
	analysistest.Run(t, "testdata", Analyzer, "nds")
}

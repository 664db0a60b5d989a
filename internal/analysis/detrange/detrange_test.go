package detrange

import (
	"testing"

	"fast/internal/analysis/analysistest"
)

func TestDetrange(t *testing.T) {
	old := inScope
	inScope = func(path string) bool { return path == "detr" }
	defer func() { inScope = old }()
	analysistest.Run(t, "testdata", Analyzer, "detr")
}

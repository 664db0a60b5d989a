package nondetsource

import (
	"testing"

	"fast/internal/analysis/analysistest"
)

func TestNondetsource(t *testing.T) {
	old := scopePaths
	scopePaths = []string{"nds"}
	defer func() { scopePaths = old }()
	analysistest.Run(t, "testdata", Analyzer, "nds")
}

package detrange

import (
	"testing"

	"fast/internal/analysis/analysistest"
)

func TestDetrange(t *testing.T) {
	old := scopePaths
	scopePaths = []string{"detr"}
	defer func() { scopePaths = old }()
	analysistest.Run(t, "testdata", Analyzer, "detr")
}

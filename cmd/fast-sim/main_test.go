package main

import (
	"regexp"
	"testing"
)

// TestPercent: a gap prints in fixed notation, never as 0.0% when it is
// not zero, and in the form the bench harness parses (`gap ([0-9.]+)%`).
func TestPercent(t *testing.T) {
	parsable := regexp.MustCompile(`^[0-9.]+$`)
	for _, tc := range []struct {
		ratio float64
		want  string
	}{
		{0, "0.0"},
		{0.471, "47.1"},
		{0.004, "0.4"},
		{0.00084, "0.08"},
		{0.00039, "0.04"},
		{1.4e-5, "0.001"},
		{3e-9, "0.0000003"},
	} {
		got := percent(tc.ratio)
		if got != tc.want || !parsable.MatchString(got) {
			t.Errorf("percent(%g) = %q, want %q", tc.ratio, got, tc.want)
		}
	}
}

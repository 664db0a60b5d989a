package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestClassification(t *testing.T) {
	base := errors.New("disk on fire")
	r := Retryable("store.append", base)
	if ClassOf(r) != ClassRetryable {
		t.Fatalf("Retryable error misclassified: class=%v", ClassOf(r))
	}
	tm := Terminal("store.corrupt", base)
	if ClassOf(tm) != ClassTerminal {
		t.Fatalf("Terminal error misclassified: class=%v", ClassOf(tm))
	}
	if ClassOf(base) != ClassUnknown {
		t.Fatalf("unclassified error must be ClassUnknown")
	}
	if ClassOf(nil) != ClassUnknown {
		t.Fatalf("nil error must be ClassUnknown")
	}
}

func TestNilPassThrough(t *testing.T) {
	if Retryable("op", nil) != nil || Terminal("op", nil) != nil {
		t.Fatal("classifying nil must return nil")
	}
}

func TestClassSurvivesWrapping(t *testing.T) {
	base := errors.New("fsync failed")
	wrapped := fmt.Errorf("study x/y: %w", Retryable("store.append", base))
	if ClassOf(wrapped) != ClassRetryable {
		t.Fatal("class lost through fmt.Errorf %%w wrapping")
	}
	if !errors.Is(wrapped, base) {
		t.Fatal("cause lost through classification")
	}
	// The outermost classification wins when layers re-classify.
	reclassified := Terminal("serve.quota", wrapped)
	if ClassOf(reclassified) != ClassTerminal {
		t.Fatal("outermost classification must win")
	}
}

func TestErrorString(t *testing.T) {
	e := Retryable("store.append", errors.New("boom"))
	s := e.Error()
	for _, want := range []string{"store.append", "retryable", "boom"} {
		if !strings.Contains(s, want) {
			t.Fatalf("error string %q missing %q", s, want)
		}
	}
	if got := (&Error{Class: ClassTerminal, Err: errors.New("x")}).Error(); !strings.Contains(got, "terminal") {
		t.Fatalf("op-less error string %q missing class", got)
	}
}

func TestClassString(t *testing.T) {
	if ClassRetryable.String() != "retryable" || ClassTerminal.String() != "terminal" || ClassUnknown.String() != "unknown" {
		t.Fatal("Class.String names drifted")
	}
}

// Package fault is the serving stack's structured error taxonomy: every
// error crossing a layer boundary (store → serve, dispatch → serve,
// serve → HTTP client) is classified as retryable or terminal, so each
// layer reacts by class instead of by string-matching messages.
//
// The classes mean exactly one thing each:
//
//   - Retryable: the operation failed against a resource that may
//     recover on its own — a slow or briefly failing disk, a dying
//     worker, a full queue. Retrying the same request later can
//     succeed, so HTTP surfaces map it to 503 + Retry-After and
//     background loops back off and try again.
//   - Terminal: retrying the identical request can never succeed —
//     corrupt data, a version mismatch, a quota that will not refill by
//     waiting, a panicked objective. HTTP surfaces map it to a 4xx/5xx
//     without Retry-After and callers give up.
//
// Classification travels with errors.Is/errors.As through arbitrary
// wrapping (fmt.Errorf %w included), so intermediate layers may add
// context freely without re-classifying.
package fault

import (
	"errors"
	"fmt"
)

// Class partitions errors by what a retry of the same operation can
// achieve.
type Class int

const (
	// ClassUnknown is the zero class: the error was never classified.
	// Surfaces treat it as terminal (the conservative reading: do not
	// promise a retry will help).
	ClassUnknown Class = iota
	// ClassRetryable marks errors a later retry can clear.
	ClassRetryable
	// ClassTerminal marks errors no retry of the same request can clear.
	ClassTerminal
)

// String names the class for logs and API payloads.
func (c Class) String() string {
	switch c {
	case ClassRetryable:
		return "retryable"
	case ClassTerminal:
		return "terminal"
	default:
		return "unknown"
	}
}

// Error is a classified error: the operation that failed, its class,
// and the cause. It wraps transparently (errors.Is/As reach the cause).
type Error struct {
	// Op names the failed operation ("store.append", "dispatch.worker",
	// "serve.admission", ...).
	Op string
	// Class is the retry semantics of the failure.
	Class Class
	// Err is the underlying cause.
	Err error
}

func (e *Error) Error() string {
	if e.Op == "" {
		return fmt.Sprintf("%s: %v", e.Class, e.Err)
	}
	return fmt.Sprintf("%s (%s): %v", e.Op, e.Class, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Retryable classifies err as retryable under op. A nil err returns
// nil.
func Retryable(op string, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Op: op, Class: ClassRetryable, Err: err}
}

// Terminal classifies err as terminal under op. A nil err returns nil.
func Terminal(op string, err error) error {
	if err == nil {
		return nil
	}
	return &Error{Op: op, Class: ClassTerminal, Err: err}
}

// ClassOf reports err's class: the class of the outermost *Error in its
// wrap chain, or ClassUnknown when no layer classified it.
func ClassOf(err error) Class {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Class
	}
	return ClassUnknown
}

// panicError marks an error as a recovered panic, so quarantine
// accounting (metrics, logs) can distinguish "the objective crashed"
// from ordinary terminal failures without string matching.
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// FromPanic classifies a recovered panic value as a terminal error
// under op: re-running the identical request panics again.
func FromPanic(op string, v any) error {
	return &Error{Op: op, Class: ClassTerminal, Err: &panicError{val: v}}
}

// IsPanic reports whether err (anywhere in its wrap chain) came from a
// recovered panic via FromPanic.
func IsPanic(err error) bool {
	var pe *panicError
	return errors.As(err, &pe)
}

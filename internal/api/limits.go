// Package api defines the versioned serving surface shared by pyserve
// and the fuzz/soak tooling: the canonical resource-budget type
// (Limits), the /v1 request and result structs, and the machine-readable
// error envelope. Every layer that previously carried its own budget
// struct — the interpreter governor, the scheduler, the HTTP request
// body — now shares this one, and all clamping and validation lives in
// Normalize.
package api

import (
	"encoding/json"
	"fmt"
	"math"
	"time"
)

// Limits is the canonical resource budget: hard caps a hostile or buggy
// program cannot exceed. Each limit surfaces as an in-language exception
// (TimeoutError, MemoryError, RecursionError, OutputLimitError) that
// unwinds through normal PyError handling, so the host survives any
// program. Zero values mean unlimited.
//
// On the wire Deadline is carried as integer milliseconds (deadlineMs).
type Limits struct {
	// MaxSteps caps the bytecodes executed per run (compiled-trace
	// operations count against it too). Exceeding it raises TimeoutError.
	MaxSteps uint64
	// MaxHeapBytes caps the live heap footprint. The collector attempts
	// one emergency full collection before raising MemoryError.
	MaxHeapBytes uint64
	// MaxRecursionDepth caps the Python call depth, raising
	// RecursionError (the VM's built-in depth valve stays in place and
	// keeps raising RuntimeError, matching CPython 2.7).
	MaxRecursionDepth int
	// Deadline bounds wall-clock time per run, raising TimeoutError.
	Deadline time.Duration
	// MaxOutputBytes caps bytes written to stdout, raising
	// OutputLimitError.
	MaxOutputBytes uint64
}

// MaxDeadline caps a request deadline at 24 hours — far above any sane
// serving budget, far below the ~2^63 ns where a milliseconds→Duration
// conversion overflows into a negative (already-expired) deadline.
const MaxDeadline = 24 * time.Hour

// MaxDeadlineMs is MaxDeadline on the wire.
const MaxDeadlineMs = int64(MaxDeadline / time.Millisecond)

// Enabled reports whether any limit is set.
func (l Limits) Enabled() bool {
	return l.MaxSteps != 0 || l.MaxHeapBytes != 0 || l.MaxRecursionDepth != 0 ||
		l.Deadline != 0 || l.MaxOutputBytes != 0
}

// Normalize validates l and returns the canonical form. It is the single
// owner of budget validation: negative budgets are rejected (a negative
// Deadline is nonzero, so it would bypass serving defaults and skew
// watchdog derivation), and the deadline is capped at MaxDeadline.
// Errors are *Error values with machine-readable codes.
func (l Limits) Normalize() (Limits, error) {
	if l.Deadline < 0 {
		return l, &Error{Code: CodeInvalidLimits, Message: "limits.deadlineMs must be >= 0"}
	}
	if l.Deadline > MaxDeadline {
		return l, &Error{Code: CodeInvalidLimits,
			Message: fmt.Sprintf("limits.deadlineMs must be <= %d", MaxDeadlineMs)}
	}
	if l.MaxRecursionDepth < 0 {
		return l, &Error{Code: CodeInvalidLimits, Message: "limits.maxRecursionDepth must be >= 0"}
	}
	return l, nil
}

// WithDefaults resolves unset budgets against defaults d: zero (or, for
// the signed fields, non-positive) fields inherit the default. This is
// the serving pool's per-job resolution step; the result of defaulting a
// positive-Deadline d always has a positive Deadline, which watchdog
// horizons are derived from.
func (l Limits) WithDefaults(d Limits) Limits {
	if l.MaxSteps == 0 {
		l.MaxSteps = d.MaxSteps
	}
	if l.MaxHeapBytes == 0 {
		l.MaxHeapBytes = d.MaxHeapBytes
	}
	if l.MaxRecursionDepth <= 0 {
		l.MaxRecursionDepth = d.MaxRecursionDepth
	}
	if l.Deadline <= 0 {
		l.Deadline = d.Deadline
	}
	if l.MaxOutputBytes == 0 {
		l.MaxOutputBytes = d.MaxOutputBytes
	}
	return l
}

// limitsWire is the JSON shape: deadlines travel as integer
// milliseconds. The unsigned fields reject negative JSON numbers at
// decode time, before Normalize ever runs.
type limitsWire struct {
	MaxSteps          uint64 `json:"maxSteps,omitempty"`
	MaxHeapBytes      uint64 `json:"maxHeapBytes,omitempty"`
	MaxRecursionDepth int    `json:"maxRecursionDepth,omitempty"`
	DeadlineMs        int64  `json:"deadlineMs,omitempty"`
	MaxOutputBytes    uint64 `json:"maxOutputBytes,omitempty"`
}

// MarshalJSON renders the wire form (deadlineMs).
func (l Limits) MarshalJSON() ([]byte, error) {
	return json.Marshal(limitsWire{
		MaxSteps:          l.MaxSteps,
		MaxHeapBytes:      l.MaxHeapBytes,
		MaxRecursionDepth: l.MaxRecursionDepth,
		DeadlineMs:        int64(l.Deadline / time.Millisecond),
		MaxOutputBytes:    l.MaxOutputBytes,
	})
}

// UnmarshalJSON decodes the wire form. A deadlineMs too large for the
// ms→Duration multiply saturates to a value above MaxDeadline instead of
// overflowing negative, so Normalize reports it as an over-cap deadline
// rather than letting a wrapped negative masquerade as "unset".
func (l *Limits) UnmarshalJSON(b []byte) error {
	var w limitsWire
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	var d time.Duration
	switch {
	case w.DeadlineMs > math.MaxInt64/int64(time.Millisecond):
		d = math.MaxInt64 // saturate: > MaxDeadline, rejected by Normalize
	default:
		d = time.Duration(w.DeadlineMs) * time.Millisecond
	}
	*l = Limits{
		MaxSteps:          w.MaxSteps,
		MaxHeapBytes:      w.MaxHeapBytes,
		MaxRecursionDepth: w.MaxRecursionDepth,
		Deadline:          d,
		MaxOutputBytes:    w.MaxOutputBytes,
	}
	return nil
}

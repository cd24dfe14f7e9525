package exec

import (
	"context"
	"errors"
	"fmt"
)

// Typed execution errors. All wrap the corresponding context error, so
// callers classify with errors.Is against either the exec sentinel or
// context.Canceled / context.DeadlineExceeded — whichever layer they think
// in. Note that an *admitted* query that runs out of budget mid-flight does
// NOT return an error: it returns its sound partial Answer with
// Answer.Outcome set. These errors surface only where no answer exists at
// all — above all at the admission gate.
var (
	// ErrDeadlineExceeded marks a query whose deadline expired before any
	// execution happened.
	ErrDeadlineExceeded = fmt.Errorf("exec: query deadline exceeded: %w", context.DeadlineExceeded)
	// ErrCanceled marks a query whose caller went away before any execution
	// happened.
	ErrCanceled = fmt.Errorf("exec: query canceled: %w", context.Canceled)
	// ErrShed marks a query turned away by admission control: it queued for
	// an execution slot and its deadline expired before one freed up.
	// Shedding the doomed query at the gate is the overload valve — the slot
	// goes to a query that can still meet its deadline. Wraps
	// ErrDeadlineExceeded (and therefore context.DeadlineExceeded).
	ErrShed = fmt.Errorf("exec: query shed at admission: %w", ErrDeadlineExceeded)
)

// ErrSiteUnavailable classifies a site-bound step that got no answer: the
// site is dead, unreachable or partitioned away. Both transports' failures
// report it through errors.Is — the in-process fault plan's downError here,
// remote.SiteError over TCP — so one classifier (settle) serves every
// fan-out leg.
var ErrSiteUnavailable = errors.New("exec: site unavailable")

// downError is the in-process transport's unavailable error: the fault
// plan's reason, verbatim, so degradation reports read the same as before.
type downError string

func (e downError) Error() string      { return string(e) }
func (downError) Is(target error) bool { return target == ErrSiteUnavailable }

// IsInterrupted reports whether err carries a context cancellation or
// deadline expiry — from either side of the wire.
func IsInterrupted(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

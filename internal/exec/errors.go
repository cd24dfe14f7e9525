package exec

import (
	"context"
	"errors"
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

package tracer

import "errors"

// This file is the error taxonomy shared by every transport: the paper's
// campaign only works on the real Internet if the measurement layer can tell
// "try again in a moment" from "this will never work", so transports
// classify their failures into exactly those two kinds and the measure
// package's retry/quarantine policy keys on the distinction.
//
// Transient errors (a full socket buffer, an interrupted syscall, a
// simulated outage window) are wrapped with Transient; everything else —
// probe-build failures, closed sockets, cancellation — is fatal. The
// classification survives any number of %w wrappings, so callers test with
// IsTransient at whatever level they hold the error.
//
// A transport reports a failed probe in one place, the probe's
// ProbeResult.Err, apart from a star (OK false, Err nil): the probe went out
// and nothing came back, which is a measurement. The ladder ends a trace on
// the first Err among the hops it consumes; the free function Exchange,
// which has no error channel, counts a failure as a star.

// errTransient is the sentinel every transient transport error matches:
// errors.Is(err, errTransient) reports whether a retry may succeed.
var errTransient = errors.New("transient transport error")

// transientError carries an underlying error while matching errTransient.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() []error { return []error{e.err, errTransient} }

// Transient marks err as transient: the returned error matches both err and
// errTransient under errors.Is. A nil err returns nil; an already-transient
// err is returned unchanged.
func Transient(err error) error {
	if err == nil || IsTransient(err) {
		return err
	}
	return &transientError{err: err}
}

// IsTransient reports whether err is marked transient, through any chain of
// %w wrappings.
func IsTransient(err error) bool { return errors.Is(err, errTransient) }

// Package cli is the front end the binaries share: the flag groups that
// select a topology (Topo) or the real network (Live), the one way a live mux
// and its capture are opened and closed, the two-signal context, and the exit
// codes. anomaly-study, measured and paris-traceroute parse, open, capture
// and exit through it, so a flag means the same thing in each of them.
package cli

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// The exit-code contract, the same for every binary.
const (
	exitOK = 0
	// exitFailure is a runtime failure: a trace error, a capture or
	// checkpoint that cannot be used, a file that cannot be written.
	exitFailure = 1
	// exitUsage is a bad flag or flag combination, or a missing privilege
	// (raw sockets need root or CAP_NET_RAW): nothing was probed.
	exitUsage = 2
	// exitInterrupted is a run stopped by SIGINT or SIGTERM — after the
	// drain on the first signal, at once on the second.
	exitInterrupted = 130
)

var prog = filepath.Base(os.Args[0])

// usageError marks an error the user fixes by changing the command line or
// its privileges, not by retrying.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// Usagef is fmt.Errorf for an error that exits with the usage code, 2.
func Usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// exitCode places err in the contract: nil is exitOK, a Usagef error
// exitUsage, a cancelled context exitInterrupted, anything else exitFailure.
func exitCode(err error) int {
	var u usageError
	switch {
	case err == nil:
		return exitOK
	case errors.As(err, &u):
		return exitUsage
	case errors.Is(err, context.Canceled):
		return exitInterrupted
	}
	return exitFailure
}

// Exit reports err, if any, and ends the process with exitCode(err). It is
// the only exit of a binary's main besides flag parsing and the second
// signal, so whatever main's run function deferred has run by now.
func Exit(err error) {
	if err != nil {
		Logf("%v", err)
	}
	os.Exit(exitCode(err))
}

// Logf writes one diagnostic line to stderr, prefixed with the program name.
func Logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, fmt.Sprintf(format, a...))
}

// SignalContext returns the context a binary probes under. The first SIGINT
// or SIGTERM cancels it: the run drains — finishes or abandons what is in
// flight, writes its checkpoint, installs its capture — and exits
// exitInterrupted. A second signal during the drain exits exitInterrupted
// at once, without draining.
func SignalContext() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	sigC := make(chan os.Signal, 2) // one slot per signal the goroutine waits for
	signal.Notify(sigC, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigC
		Logf("signal received; draining (second signal forces exit)")
		cancel()
		<-sigC
		Logf("second signal: forced immediate exit")
		os.Exit(exitInterrupted)
	}()
	return ctx
}

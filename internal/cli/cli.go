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
	ExitOK = 0
	// ExitFailure is a runtime failure: a trace error, a capture or
	// checkpoint that cannot be used, a file that cannot be written.
	ExitFailure = 1
	// ExitUsage is a bad flag or flag combination, or a missing privilege
	// (raw sockets need root or CAP_NET_RAW): nothing was probed.
	ExitUsage = 2
	// ExitInterrupted is a run stopped by SIGINT or SIGTERM — after the
	// drain on the first signal, at once on the second.
	ExitInterrupted = 130
)

var prog = filepath.Base(os.Args[0])

// usageError marks an error the user fixes by changing the command line or
// its privileges, not by retrying.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

// Usagef is fmt.Errorf for an error that exits ExitUsage.
func Usagef(format string, a ...any) error {
	return usageError{fmt.Errorf(format, a...)}
}

// ExitCode places err in the contract: nil is ExitOK, a Usagef error
// ExitUsage, a cancelled context ExitInterrupted, anything else ExitFailure.
func ExitCode(err error) int {
	var u usageError
	switch {
	case err == nil:
		return ExitOK
	case errors.As(err, &u):
		return ExitUsage
	case errors.Is(err, context.Canceled):
		return ExitInterrupted
	}
	return ExitFailure
}

// Exit reports err, if any, and ends the process with ExitCode(err). It is
// the only exit of a binary's main besides flag parsing and the second
// signal, so whatever main's run function deferred has run by now.
func Exit(err error) {
	if err != nil {
		Logf("%v", err)
	}
	os.Exit(ExitCode(err))
}

// Logf writes one diagnostic line to stderr, prefixed with the program name.
func Logf(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", prog, fmt.Sprintf(format, a...))
}

// SignalContext returns the context a binary probes under. The first SIGINT
// or SIGTERM cancels it: the run drains — finishes or abandons what is in
// flight, writes its checkpoint, installs its capture — and exits
// ExitInterrupted. A second signal during the drain exits ExitInterrupted
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
		os.Exit(ExitInterrupted)
	}()
	return ctx
}

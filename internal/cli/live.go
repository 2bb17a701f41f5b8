package cli

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/pcap"
	"repro/internal/tracer"
	"repro/internal/tracer/live"
	"repro/internal/tracer/replay"
)

// Live is the flag group that selects the real network — or, offline, a
// capture of it — instead of a generated topology.
type Live struct {
	On      bool
	List    string
	File    string
	Timeout time.Duration
	Floor   time.Duration
	Retries int
	Capture string
	Replay  string

	// listFlag is the name List is registered under: -live-dests, or
	// paris-traceroute's -dest.
	listFlag string
	// dial is how the hermetic tests reach live.MuxConfig.Conn. Nil probes
	// from live.LocalIPv4 over the host's raw sockets.
	dial func() (netip.Addr, live.PacketConn, error)
}

// Register declares the group's flags on fs. listFlag names the inline
// destination list; -replay is declared only for a binary that has an
// offline mode.
func (l *Live) Register(fs *flag.FlagSet, listFlag string, replay bool) {
	l.listFlag = listFlag
	fs.BoolVar(&l.On, "live", false, "probe the real network over raw sockets instead of the simulator")
	fs.StringVar(&l.List, listFlag, "", "comma-separated IPv4 destinations for -live (or to pin a -replay's)")
	fs.StringVar(&l.File, "live-dests-file", "", "file of IPv4 destinations, one per line ('#' comments), in place of -"+listFlag)
	fs.DurationVar(&l.Timeout, "timeout", 2*time.Second, "adaptive live-probe timeout cap (and the timeout before a destination has RTT samples)")
	fs.DurationVar(&l.Floor, "timeout-floor", 100*time.Millisecond, "adaptive live-probe timeout floor")
	fs.IntVar(&l.Retries, "retries", 1, "re-sends per unanswered live probe")
	fs.StringVar(&l.Capture, "capture", "", "record every live probe and response to this pcap file (requires -live)")
	if replay {
		fs.StringVar(&l.Replay, "replay", "", "re-run a captured run offline from this pcap file (excludes -live and -capture)")
	}
}

// Validate refuses, naming the flag, the combinations that cannot mean
// anything: -capture without -live, and -replay together with -live,
// -capture or any flag in offline — the ones the binary cannot honour
// without a network or a simulator behind it.
func (l *Live) Validate(fs *flag.FlagSet, offline ...string) error {
	if l.Capture != "" && !l.On && l.Replay == "" {
		return Usagef("-capture requires -live (the simulator is already replayable from its seed)")
	}
	if l.Replay == "" {
		return nil
	}
	var err error
	excluded := append([]string{"live", "capture"}, offline...)
	fs.Visit(func(f *flag.Flag) {
		for _, name := range excluded {
			if f.Name == name && err == nil {
				err = Usagef("-replay is an offline mode and excludes -%s", name)
			}
		}
	})
	return err
}

// Dests resolves the destination flags: the inline list, the file
// (live.ReadDestsFile's format), or — with neither given — nil, which only
// a replay accepts: it then probes what the capture probed.
func (l *Live) Dests() ([]netip.Addr, error) {
	switch {
	case l.List != "" && l.File != "":
		return nil, Usagef("-%s and -live-dests-file are mutually exclusive", l.listFlag)
	case l.File != "":
		dests, err := live.ReadDestsFile(l.File)
		if err != nil {
			return nil, Usagef("%v", err)
		}
		return dests, nil
	case l.List != "":
		dests, err := live.ParseDests(l.List)
		if err != nil {
			return nil, Usagef("-%s: %v", l.listFlag, err)
		}
		return dests, nil
	case l.Replay == "":
		return nil, Usagef("-live requires -%s A.B.C.D[,...] or -live-dests-file FILE", l.listFlag)
	}
	return nil, nil
}

// OpenReplay opens -replay's capture as a transport — its probes and
// responses stand in for the network, attributed by the same flow-key logic
// as the live demultiplexer, so -retries and -timeout must be the captured
// run's — and resolves what to probe: the destination flags when given,
// otherwise every destination the capture probed, in first-seen order.
func (l *Live) OpenReplay() (*replay.Transport, []netip.Addr, error) {
	rt, err := replay.Open(l.Replay, replay.Config{Retries: l.Retries, Timeout: l.Timeout})
	if err != nil {
		return nil, nil, err
	}
	dests, err := l.Dests()
	if err != nil {
		return nil, nil, err
	}
	if dests == nil {
		dests = rt.Destinations()
	}
	if len(dests) == 0 {
		return nil, nil, fmt.Errorf("capture %s holds no probed destinations", l.Replay)
	}
	return rt, dests, nil
}

// WarnDiverged says so when a finished replay left captured exchanges
// unserved or met records it could not place: the replayed run was not the
// captured one.
func WarnDiverged(rt *replay.Transport) {
	if l, j := rt.Leftover(), rt.Junk(); l != 0 || j != 0 {
		Logf("replay: %d captured exchange(s) never served, %d junk record(s) — the replayed run diverges from the captured one", l, j)
	}
}

// Mux is the shared live mux together with the capture it feeds.
type Mux struct {
	*live.Mux
	capture *pcap.Capture
}

// OpenMux opens the raw-socket mux every worker's probes are multiplexed
// over, arming the capture when -capture is set. Missing privileges are a
// usage error, so a run never half-starts without them. Cancelling ctx fails
// what is in flight and every later exchange, so an interrupt drains within
// one probe timeout. onPressure, when non-nil, hears of every change of the
// mux's degradation level before it is logged.
func (l *Live) OpenMux(ctx context.Context, onPressure func(tracer.MuxHealth)) (*Mux, error) {
	var (
		src  netip.Addr
		conn live.PacketConn
		err  error
	)
	if l.dial != nil {
		src, conn, err = l.dial()
	} else {
		src, err = live.LocalIPv4()
	}
	if err != nil {
		return nil, Usagef("cannot determine local IPv4 source: %v", err)
	}
	mc := live.MuxConfig{
		Source: src, Conn: conn, Context: ctx,
		Timeout: l.Timeout, TimeoutFloor: l.Floor, Retries: l.Retries,
		OnPressure: func(h tracer.MuxHealth) {
			if onPressure != nil {
				onPressure(h)
			}
			Logf("receive pressure: degrade=%d kernel-drops=%d events=%d", h.DegradeShift, h.KernelDrops, h.PressureEvents)
		},
	}
	m := &Mux{}
	if l.Capture != "" {
		if m.capture, err = pcap.CreateCapture(l.Capture); err != nil {
			return nil, err
		}
		mc.Capture = m.capture
	}
	if m.Mux, err = live.NewMux(mc); err != nil {
		return nil, Usagef("live probing unavailable: %v", err)
	}
	return m, nil
}

// Close stops the mux and then installs the capture and says where it went.
// The order is the point: the sink drops whatever reaches it after its own
// Close, so it is closed only once no worker can feed it — which makes the
// file on disk complete and readable however the run ended.
func (m *Mux) Close() error {
	err := m.Mux.Close()
	if m.capture == nil {
		return err
	}
	if cerr := m.capture.Close(); cerr != nil {
		return fmt.Errorf("finalizing capture: %w", cerr)
	}
	Logf("capture: %d record(s) written to %s", m.capture.Count(), m.capture.Path())
	return err
}

// CloseInto is Close for a defer in a function that returns *err: a failure
// to close becomes the function's error unless it is already failing.
func (m *Mux) CloseInto(err *error) {
	if cerr := m.Close(); *err == nil {
		*err = cerr
	}
}

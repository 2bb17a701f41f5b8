package daemon

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// Handler returns the daemon's HTTP/JSON surface:
//
//	GET /healthz        liveness: 200 "ok"/"degraded", 503 "down"
//	GET /readyz         readiness: 200 after the first completed round
//	GET /stats          consistent mid-flight measure.Stats snapshot
//	GET /events?since=N server-sent event stream; buffered events with
//	                    Seq > N replay first, then live events follow
//
// The handler is safe to serve while Tick runs: /stats snapshots under the
// daemon mutex and every shard's lock (never a torn read), and a slow /events client drops events
// rather than backpressuring the measurement loop.
func (d *Daemon) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", d.handleHealthz)
	mux.HandleFunc("GET /readyz", d.handleReadyz)
	mux.HandleFunc("GET /stats", d.handleStats)
	mux.HandleFunc("GET /events", d.handleEvents)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (d *Daemon) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h := d.Health()
	status := http.StatusOK
	if h.Status == "down" {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, h)
}

func (d *Daemon) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if d.Ready() {
		writeJSON(w, http.StatusOK, map[string]string{"Status": "ready"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"Status": "not ready"})
}

func (d *Daemon) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, d.Snapshot())
}

// handleEvents streams the event feed as server-sent events. ?since=N
// replays the buffered events with Seq > N before the live tail, so a
// reconnecting client resumes from its last seen cursor (bounded by the
// ring: events older than eventBuffer entries are gone).
func (d *Daemon) handleEvents(w http.ResponseWriter, r *http.Request) {
	var since int64
	if s := r.URL.Query().Get("since"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil || v < 0 {
			http.Error(w, "bad since cursor", http.StatusBadRequest)
			return
		}
		since = v
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	replay, live, cancel := d.events.subscribe(since)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	writeEvent := func(e Event) bool {
		data, err := json.Marshal(e)
		if err != nil {
			return false
		}
		_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", e.Seq, e.Type, data)
		fl.Flush()
		return err == nil
	}
	for _, e := range replay {
		if !writeEvent(e) {
			return
		}
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case e, ok := <-live:
			if !ok {
				return
			}
			if !writeEvent(e) {
				return
			}
		}
	}
}

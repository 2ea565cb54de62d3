package telemetry

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"time"

	"scorpio/internal/obs/perfmon"
)

// Options carries the read-side hooks the HTTP server needs beyond the
// published page. Every field may be zero: the exporter degrades to whatever
// is available. All hooks must be safe to call from any goroutine mid-run —
// in this codebase that means atomics-only accessors (perfmon Worker slots,
// Kernel.WakeEdges, Kernel.BalanceStats).
type Options struct {
	// Label identifies the run (machine/profile name) in /metrics.
	Label string
	// Mon exposes the per-worker perf counters; nil when no monitor is
	// attached.
	Mon *perfmon.Mon
	// WakeEdges reads the activity engine's per-edge wake census.
	WakeEdges func() [perfmon.NumWakeEdges]uint64
	// Balance reads the cost-balancer's rebalance/migration totals.
	Balance func() (rebalances, migrations uint64)
	// Workers reports the kernel worker count.
	Workers func() int
}

// snapshotTimeout bounds how long /snapshot waits for the driver to fulfil a
// deep-snapshot request before answering 503.
const snapshotTimeout = 2 * time.Second

// Server is the embeddable HTTP exporter. Construct with NewServer, start
// with Serve, stop with Close. All handlers read the publisher's seqlock page
// or atomics-only hooks — none touch kernel state directly.
type Server struct {
	pub *Publisher
	opt Options
	mux *http.ServeMux
	srv *http.Server
	ln  net.Listener
}

// NewServer builds a server around pub. It does not listen yet.
func NewServer(pub *Publisher, opt Options) *Server {
	s := &Server{pub: pub, opt: opt, mux: http.NewServeMux()}
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/snapshot", s.handleSnapshot)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: s.mux}
	return s
}

// Handler exposes the mux for in-process tests (httptest) without a listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve binds addr (":0" picks an ephemeral port) and serves in a background
// goroutine. The bound address is printed to stderr so scripts driving an
// ephemeral port can discover it.
func (s *Server) Serve(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	s.ln = ln
	fmt.Fprintf(os.Stderr, "scorpio: telemetry listening on http://%s\n", ln.Addr())
	go func() {
		// ErrServerClosed is the normal Close path; anything else would have
		// surfaced at Listen time.
		_ = s.srv.Serve(ln)
	}()
	return nil
}

// Addr returns the bound listen address ("" before Serve).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener and all active connections, releasing the port.
// Safe to call more than once and on nil.
func (s *Server) Close() error {
	if s == nil || s.srv == nil {
		return nil
	}
	return s.srv.Close()
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var snap Snapshot
	if !s.pub.Read(&snap) {
		http.Error(w, "telemetry page unstable", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", ContentType)
	_ = writeMetrics(w, s.pub, s.opt, &snap)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	d := s.pub.RequestDeep(snapshotTimeout)
	if d == nil {
		// The driver is not stepping (between runs, finished, or no deep hook
		// installed). The sampled series never wait on it: /metrics has them.
		http.Error(w, "simulation not stepping; the sampled series are on /metrics",
			http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(d)
}

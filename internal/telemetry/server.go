// Package telemetry is the live-observability layer over internal/obs:
// an HTTP server exposing the recorder's registry as Prometheus text
// (/metrics), a liveness probe (/healthz) and the runtime profiler
// (/debug/pprof). cgrabench mounts it behind -serve so a long evaluation
// can be scraped while it executes; the span timeline stays a -events
// file artifact, analyzed offline by cgratrace.
package telemetry

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/obs"
)

// Config assembles a Server.
type Config struct {
	// Addr is the listen address (":0" picks an ephemeral port, the form
	// tests and CI use).
	Addr string
	// Registry backs /metrics. When nil, /metrics answers 404 instead of
	// serving an empty page, so a mis-wired caller is diagnosable from
	// the endpoint itself.
	Registry *obs.Registry
}

// Server is a running telemetry endpoint. Start it with Start; it serves
// until Close.
type Server struct {
	cfg Config
	ln  net.Listener
	srv *http.Server
}

// Start binds cfg.Addr and serves the telemetry endpoints on it. The
// returned server is live: Addr reports the bound address.
func Start(cfg Config) (*Server, error) {
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", cfg.Addr, err)
	}
	s := &Server{cfg: cfg, ln: ln}
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", handleHealthz)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	// No write timeout: /debug/pprof/profile and /debug/pprof/trace
	// answer only after sampling for ?seconds=. The read timeout bounds
	// request-header parsing only.
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		// Serve returns http.ErrServerClosed on Close; other errors mean
		// the listener died, which Close surfaces to the embedding CLI.
		_ = s.srv.Serve(ln)
	}()
	return s, nil
}

// Addr returns the bound listen address (with the real port when the
// config asked for :0).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the listener.
func (s *Server) Close() error {
	return s.srv.Close()
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintf(w, "cgra telemetry\n\n/metrics\n/healthz\n/debug/pprof/\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		http.Error(w, "no metrics registry configured", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// Snapshot is already sorted by name; the page is deterministic for a
	// given metric state.
	_ = WritePrometheus(w, s.cfg.Registry.Snapshot())
}

// handleHealthz answers ok while the process serves: a scraper that
// reaches it knows the run is alive.
func handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, "ok\n")
}

package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"
)

// AdminConfig assembles an admin HTTP endpoint. Any of the surfaces may be
// nil; the corresponding route then serves an empty (but well-formed)
// response instead of registering nothing, so scrapers can probe a partially
// assembled process without 404 special cases.
type AdminConfig struct {
	// Registry backs GET /metrics (Prometheus text exposition).
	Registry *Registry
	// Trace backs GET /trace (JSONL; ?since=SEQ returns only events with a
	// larger sequence number).
	Trace *Trace
	// Status backs GET /status: it is invoked per request and its result
	// marshalled as JSON. Implementations return a plain data struct.
	Status func() any
	// Faults, when non-nil, backs /faults (GET snapshot, POST update) —
	// the runtime fault-injection control surface. Nil serves 404, unlike
	// the read-only surfaces above: probing tools must be able to tell
	// "no fault plane" apart from "empty fault plane".
	Faults http.Handler
}

// Admin is a running admin HTTP endpoint.
type Admin struct {
	ln  net.Listener
	srv *http.Server
}

// StartAdmin binds addr (e.g. "127.0.0.1:0") and serves the admin routes on
// it: /metrics, /status, /trace, /debug/pprof/*, and /debug/vars. The
// endpoint runs until Close. The pprof and expvar handlers are mounted on
// the endpoint's private mux explicitly — nothing is registered on
// http.DefaultServeMux.
func StartAdmin(addr string, cfg AdminConfig) (*Admin, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if cfg.Registry != nil {
			cfg.Registry.writeProm(w)
		}
	})
	mux.HandleFunc("/status", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var v any
		if cfg.Status != nil {
			v = cfg.Status()
		}
		if v == nil {
			v = struct{}{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(v); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		var since uint64
		if s := r.URL.Query().Get("since"); s != "" {
			n, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				http.Error(w, "bad since: "+err.Error(), http.StatusBadRequest)
				return
			}
			since = n
		}
		if cfg.Trace != nil {
			cfg.Trace.writeJSONL(w, since)
		}
	})
	if cfg.Faults != nil {
		mux.Handle("/faults", cfg.Faults)
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/vars", expvar.Handler())

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	a := &Admin{ln: ln, srv: srv}
	go srv.Serve(ln)
	return a, nil
}

// Addr returns the bound address (useful with ":0").
func (a *Admin) Addr() string { return a.ln.Addr().String() }

// Close stops the endpoint and frees its port.
func (a *Admin) Close() error { return a.srv.Close() }

package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// Server is the live debug/metrics endpoint: Prometheus and JSON metric
// exposition, health, arbitrary JSON debug snapshots, and pprof — one
// scrape target per process, wired into the cmds behind -debug-addr.
type Server struct {
	ln    net.Listener
	srv   *http.Server
	start time.Time
}

// Handler builds the debug mux without binding a listener (useful for
// tests and for embedding into an existing server):
//
//	/metrics          Prometheus text exposition
//	/metrics.json     the same registry as JSON
//	/healthz          liveness + uptime
//	/debug/<name>     one JSON document per registered snapshot func
//	/debug/flight     the process flight-recorder ring (obs.Flight)
//	/debug/trace/<id> a stored frame trace's hop waterfall (obs.Traces);
//	                  "latest" selects the most recent trace
//	/debug/buildinfo  binary identity (module, VCS rev, go version, …)
//	/debug/pprof/     the standard pprof handlers
//
// snapshots maps endpoint names to functions returning any
// JSON-marshalable value, sampled per request — e.g. a PipelineMetrics
// budget report.
func Handler(reg *Registry, snapshots map[string]func() any) http.Handler {
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = reg.WriteJSON(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"status": "ok",
			"uptime": time.Since(start).String(),
		})
	})
	for name, fn := range snapshots {
		fn := fn
		mux.HandleFunc("/debug/"+name, func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(fn())
		})
	}
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(v)
	}
	if _, taken := snapshots["flight"]; !taken {
		mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, Flight.Dump())
		})
	}
	if _, taken := snapshots["buildinfo"]; !taken {
		mux.HandleFunc("/debug/buildinfo", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, BuildInfo(time.Since(start)))
		})
	}
	mux.HandleFunc("/debug/trace/", func(w http.ResponseWriter, r *http.Request) {
		idStr := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
		var (
			t  FrameTrace
			ok bool
		)
		if idStr == "latest" {
			t, ok = Traces.Latest()
		} else if id, err := strconv.ParseUint(idStr, 10, 64); err == nil {
			t, ok = Traces.Get(id)
		}
		if !ok {
			w.WriteHeader(http.StatusNotFound)
			writeJSON(w, map[string]any{"error": "trace not found", "stored": Traces.IDs()})
			return
		}
		writeJSON(w, DumpTrace(t, Flight))
	})
	// pprof registers on the DefaultServeMux via init; wire its handlers
	// onto this private mux explicitly instead.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the debug server on addr (e.g. "127.0.0.1:6060"; a :0
// port picks a free one — read it back from Addr). reg may be nil, in
// which case the Default registry is served.
func Serve(addr string, reg *Registry, snapshots map[string]func() any) (*Server, error) {
	if reg == nil {
		reg = Default
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{
		ln:    ln,
		srv:   &http.Server{Handler: Handler(reg, snapshots)},
		start: time.Now(),
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// BuildInfoReport identifies the running binary — what makes a fleet
// scrape attributable to an exact build.
type BuildInfoReport struct {
	Module     string `json:"module"`
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	VCSRev     string `json:"vcs_revision,omitempty"`
	VCSTime    string `json:"vcs_time,omitempty"`
	VCSDirty   bool   `json:"vcs_dirty,omitempty"`
	Uptime     string `json:"uptime"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// BuildInfo assembles the /debug/buildinfo document from the binary's
// embedded module metadata.
func BuildInfo(uptime time.Duration) BuildInfoReport {
	r := BuildInfoReport{
		GoVersion:  runtime.Version(),
		Uptime:     uptime.Round(time.Second).String(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		r.Module = bi.Main.Path
		r.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				r.VCSRev = s.Value
			case "vcs.time":
				r.VCSTime = s.Value
			case "vcs.modified":
				r.VCSDirty = s.Value == "true"
			}
		}
	}
	return r
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

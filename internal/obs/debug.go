package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// DebugSources are the telemetry stores one tier holds. DebugMux reads
// the fields per request, so a tier may swap a source (SetTracer and
// the like) after mounting the mux, before it starts serving.
type DebugSources struct {
	Tracer  *Tracer  // spans, and the slow-query log read off them
	Journal *Journal // structured events
}

// DebugRoute is one GET route under /debug/: the ServeMux path pattern
// and the name of the DebugSources field it reads.
type DebugRoute struct {
	Pattern string
	Source  string
	serve   func(*DebugSources, http.ResponseWriter, *http.Request)
}

// DebugRoutes is every route DebugMux can serve — the same list on
// every tier, by construction.
//
//	GET /debug/traces          retained traces, newest first
//	    ?n=  ?min_ms=<float>   at least this slow   ?error=1  errored only
//	GET /debug/traces/{id}     one trace's full span tree
//	GET /debug/slowlog ?n=     slow requests, newest first
//	GET /debug/logs    ?n=     events, newest first (default 100)
//	    ?min_level=  ?component=
//
// ?n= is an integer in [1,1024] wherever it is accepted; every 4xx body
// is {"error": "..."}.
var DebugRoutes = []DebugRoute{
	{"/debug/traces", "Tracer", serveTraces},
	{"/debug/traces/{id}", "Tracer", serveTraceByID},
	{"/debug/slowlog", "Tracer", serveSlowLog},
	{"/debug/logs", "Journal", serveLogs},
}

func (src *DebugSources) has(source string) bool {
	switch source {
	case "Tracer":
		return src.Tracer != nil
	case "Journal":
		return src.Journal != nil
	}
	return false
}

// DebugMux serves the DebugRoutes whose source src holds when it is
// called; the routes of a nil source are absent (404). Mount it at
// "/debug/".
func DebugMux(src *DebugSources) http.Handler {
	mux := http.NewServeMux()
	for _, route := range DebugRoutes {
		if src.has(route.Source) {
			mux.HandleFunc("GET "+route.Pattern, func(w http.ResponseWriter, r *http.Request) {
				route.serve(src, w, r)
			})
		}
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body) // the client hanging up is not the server's error
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, struct {
		Error string `json:"error"`
	}{msg})
}

// parseLimit reads ?n=, the cap of every listing: an integer in
// [1,1024], def when absent (0: the listing's own bound). Anything else
// is answered 400 here, and ok is false.
func parseLimit(w http.ResponseWriter, q url.Values, def int) (limit int, ok bool) {
	raw := q.Get("n")
	if raw == "" {
		return def, true
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 1 || n > 1024 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("parameter \"n\" must be an integer in [1,1024], got %q", raw))
		return 0, false
	}
	return n, true
}

// TracesResponse is the JSON body of GET /debug/traces.
type TracesResponse struct {
	Count  int            `json:"count"`
	Traces []TraceSummary `json:"traces"`
}

func serveTraces(src *DebugSources, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, ok := parseLimit(w, q, 0)
	if !ok {
		return
	}
	// min_ms must be a number of milliseconds that fits a time.Duration:
	// NaN, ±Inf and anything past ≈ 9.2e12 would otherwise convert to an
	// arbitrary, on amd64 negative, duration and match every trace.
	var minDur time.Duration
	if raw := q.Get("min_ms"); raw != "" {
		ms, err := strconv.ParseFloat(raw, 64)
		ns := ms * float64(time.Millisecond)
		if err != nil || !(ns >= 0 && ns < math.MaxInt64) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"parameter \"min_ms\" must be a non-negative number of milliseconds below %.3g, got %q",
				math.MaxInt64/float64(time.Millisecond), raw))
			return
		}
		minDur = time.Duration(ns)
	}
	errOnly := q.Get("error") == "1" || q.Get("error") == "true"
	stored := src.Tracer.Store().Recent(limit, minDur, errOnly)
	resp := TracesResponse{Count: len(stored), Traces: make([]TraceSummary, len(stored))}
	for i, st := range stored {
		resp.Traces[i] = st.Summary()
	}
	writeJSON(w, http.StatusOK, resp)
}

func serveTraceByID(src *DebugSources, w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := src.Tracer.Store().Get(id)
	if st == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf(
			"trace %q not found (evicted from the ring, or never retained by tail sampling)", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func serveSlowLog(src *DebugSources, w http.ResponseWriter, r *http.Request) {
	if limit, ok := parseLimit(w, r.URL.Query(), 0); ok {
		writeJSON(w, http.StatusOK, src.Tracer.SlowLog(limit))
	}
}

func serveLogs(src *DebugSources, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit, ok := parseLimit(w, q, 100)
	if !ok {
		return
	}
	minLevel := LevelDebug
	if raw := q.Get("min_level"); raw != "" {
		if minLevel, ok = ParseLevel(raw); !ok {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"parameter \"min_level\" must be debug, info, warn or error, got %q", raw))
			return
		}
	}
	events := src.Journal.Recent(limit, minLevel, q.Get("component"))
	views := make([]EventView, len(events))
	for i, ev := range events {
		views[i] = ev.View()
	}
	writeJSON(w, http.StatusOK, struct {
		Events []EventView `json:"events"`
	}{views})
}

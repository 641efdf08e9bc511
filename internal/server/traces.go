package server

import (
	"fmt"
	"net/http"

	"qbs/internal/obs"
)

// Trace inspection endpoints, registered on every server mode:
//
//	GET /debug/traces            recent retained traces, newest first
//	    ?n=<1..1024>             cap the listing (default all)
//	    ?min_ms=<float>          only traces at least this slow
//	    ?error=1                 only errored traces
//	GET /debug/traces/{id}       one trace's full span tree
//
// The store holds what tail sampling retained: slow requests (over the
// slowlog threshold), errors, explicitly sampled traces (traceparent
// flag 01), and the head-sampled fraction.

// TracesResponse is the JSON body of GET /debug/traces.
type TracesResponse struct {
	Count  int                `json:"count"`
	Traces []obs.TraceSummary `json:"traces"`
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit, minDur, errOnly, err := obs.ParseTraceQuery(r.URL.Query())
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	stored := s.tracer.Store().Recent(limit, minDur, errOnly)
	resp := TracesResponse{Count: len(stored), Traces: make([]obs.TraceSummary, len(stored))}
	for i, st := range stored {
		resp.Traces[i] = st.Summary()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st := s.tracer.Store().Get(id)
	if st == nil {
		writeJSON(w, http.StatusNotFound, errorBody{
			Error: fmt.Sprintf("trace %q not found (evicted from the ring, or never retained by tail sampling)", id),
		})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// traceSpans returns the request's span buffer, or nil off traced
// paths. Every TraceBuf method is nil-safe, so callers just record.
func traceSpans(r *http.Request) *obs.TraceBuf {
	if tr := obs.FromContext(r.Context()); tr != nil {
		return tr.Spans
	}
	return nil
}

package server

import "qbs/internal/obs"

// The /debug/ endpoints of every server mode — traces, slow-query log,
// event journal — are obs.DebugMux's, over the
// server's own sources; obs.DebugRoutes documents them. The bodies they
// answer with are named here for the package's clients.

// TracesResponse is the JSON body of GET /debug/traces.
type TracesResponse = obs.TracesResponse

// SlowLogResponse is the JSON body of GET /debug/slowlog.
type SlowLogResponse = obs.SlowLogResponse

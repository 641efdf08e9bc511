// Package obs is the telemetry layer every other package reports
// through: atomic counters, gauges, lock-free log-bucketed latency
// histograms, a registry with a Prometheus text encoder, per-request
// traces with a slow-query log read off them, an event journal, and the
// /debug mux that serves them. It is dependency-free (stdlib only) and
// every recording primitive is allocation-free, so the warm query path
// stays 0 allocs/op with instrumentation enabled.
//
// # Metric naming
//
// Families follow Prometheus conventions with a qbs_ prefix, and each
// one is read by a test or a benchmark probe (a CI step fails on a
// family nothing reads):
//
//   - qbs_http_requests_total / qbs_http_errors_total — per-endpoint
//     counters, labelled endpoint="/spg".
//   - qbs_http_request_ns — per-endpoint latency histogram.
//   - qbs_query_stage_ns{stage=...} — per-stage query spans (parse,
//     sketch, expand, extract, serialize).
//   - qbs_query_*_total — engine counters aggregated from QueryStats
//     (arcs scanned, label entries scanned).
//   - qbs_epoch — a dynamic server's published epoch.
//   - qbs_wal_append_ns — durable store instrumentation (process-wide
//     Default registry). WAL fsyncs, checkpoints and compactions are
//     root spans, not series: a slow or failed one is retained whole.
//   - qbs_replica_*, qbs_router_* — replication-layer series: a
//     replica's apply stream and lag, the router's picks, retries,
//     failovers and per-backend healthy bit and probed epoch.
//   - qbs_events_total{component,level} — admitted journal events.
//   - qbs_startup_seconds{stage}, qbs_build_info, qbs_goroutines —
//     process series.
//
// Durations are recorded and exposed in nanoseconds (the _ns suffix)
// rather than converted to seconds; the bench harness shares the unit.
//
// # Registries
//
// Default is the process-wide registry: engine, store, and runtime
// series that are not tied to one listener. Servers, routers, and
// replicas each own an additional Registry for their per-endpoint and
// per-backend series — exact-count test isolation, and multi-server
// processes don't cross-contaminate — and render their own registry
// stacked with Default on scrape.
//
// # Exposition
//
// WritePrometheus renders registries in the text format (version
// 0.0.4). Histograms render as summaries — quantile-labelled samples
// for p50/p95/p99/p999 plus _sum and _count — with the observed
// maximum as a companion <family>_max gauge. This is the one /metrics
// body on every tier — a server, a replica, the router and the
// -debug-addr side channel — whatever the Accept header; the
// ?format=prometheus that scrapers send is accepted and changes
// nothing. The format has no exemplar syntax, and the encoder writes
// none. ValidateExposition is the parser-level line check the CI smoke
// job applies to a live scrape.
//
// # Tracing and the slow-query log
//
// There is one record per request: its TraceBuf, a fixed inline array
// of 32 spans — name, parent, start, duration, up to four key/value
// attrs, an error bit — recycled through a small freelist, so recording
// allocates nothing. Tracer.BeginRequest is the one intake: the trace ID
// comes from the W3C traceparent header, else from X-Qbs-Trace-Id
// (TraceHeader) when that is 1-64 characters of [0-9A-Za-z_-], else it
// is minted; it is echoed on the response, and a router forwards it
// unchanged on retries and failovers. The serving middleware puts the
// TraceBuf in the request's context and owns it for the request's
// lifetime (single-goroutine by construction; writers record under
// their own serialization). Handlers record what they measure as child
// spans when they measure it: stage:parse and stage:serialize with
// their true start, stage:sketch, stage:expand and stage:extract laid
// end to end from the search's start out of the searcher's QueryStats,
// WAL appends and column re-BFSes below them. Attrs live on the span
// they describe: status, u, v and dist on the root (method and path on
// a router's), label_entries on stage:sketch, arcs_scanned on
// stage:expand. Each stage span is also the observation of
// qbs_query_stage_ns{stage}.
//
// Retention is tail-based: the keep/drop decision happens at Finish,
// when the outcome is known. A trace survives into the SpanStore when it
// was slow (root duration at or past the tracer's slow threshold),
// errored (any span failed, or the trace was marked), force-sampled (the
// traceparent sampled flag arrived set), or head-sampled (1 in N when
// SetHeadEvery is on; off by default); Finish hands the immutable
// StoredTrace back. Everything else is dropped, which is what keeps the
// warm instrumented path at 0 allocs/op. The slow-query log is a view of
// what was retained, not a second record: a slow request's StoredTrace
// is also put in a 128-slot ring of its own — so an entry outlives any
// number of later head-sampled, errored or background traces — and
// GET /debug/slowlog renders each entry (stages, query identity, engine
// counters, link to /debug/traces/{id}) from the stored spans. There is
// one threshold, the tracer's.
//
// Cross-process context travels in traceparent
// (00-<trace-id>-<parent-span-id>-<flags>), sent alongside
// X-Qbs-Trace-Id: each hop begins its local root span under the
// upstream parent span ID, so the per-tier trees fetched from
// /debug/traces/{id} merge into one tree (MergeStored; the router does
// this on demand). Every trace retained under one ID — a client may send
// the same sampled ID with every request — is one slot of at most 128
// spans; spans merged in past that are counted in dropped_spans. The
// traceparent is sent only when it carries the ID unchanged (16 or 32
// lowercase hex digits); any other ID travels in X-Qbs-Trace-Id alone.
//
// # One ring, one /debug mux
//
// Everything retained — traces, the slow view, events — sits in an
// instance of one bounded lock-free ring (ring.go): an atomic cursor
// claims the slot, an atomic pointer store publishes an immutable value.
// DebugMux serves it all: built from the DebugSources a tier holds
// (tracer, journal), it answers the four DebugRoutes — the same list,
// ?n= parser and JSON error body on a server, a replica, the router and
// the -debug-addr side channel, whose net/http/pprof is where profiles
// come from.
//
// # Event journal
//
// The Journal is the structured, leveled event record for the paths a
// metric can count but not explain: WAL fsync and checkpoint failures,
// damaged snapshots, failed compactions, replica bootstraps, tail
// errors, recoveries and parks, lease expiries, router evictions,
// readmissions and failovers, process lifecycle. Each occurrence is
// one record: what a root span already holds (a checkpoint, a
// compaction and its epoch) is not journaled again. A component
// declares each (component, event) pair once with Def (or DefRate for
// an explicit token-bucket rate limit — repeating failure paths default
// to a few admitted records per second so a retry loop cannot wash out
// the ring) and holds the returned *EventDef; Emit and EmitTrace then
// publish into the journal's ring. Every level is admitted; emits
// suppressed by the rate limiter take an allocation-free drop path —
// the same zero-alloc discipline as the metrics primitives, gated in
// CI. Admitted events increment qbs_events_total{component,level}. The
// ring serves GET /debug/logs (?n=, ?min_level=, ?component=) with
// events newest-first — the level filter applies when the log is read
// — each carrying its trace ID when the emit was request-scoped, the
// joint key into /debug/traces.
package obs

// Package replica is the read-scaling subsystem: WAL-shipped read
// replicas of a durable dynamic index, plus an epoch-aware query router
// in front of them.
//
// # Topology
//
//	                  writes (POST/DELETE /edges, POST /checkpoint)
//	clients ──► router ───────────────────────────────► primary
//	               │                                      │  snapshot +
//	               │ reads (GET /spg /distance ...)       │  WAL tail
//	               ├──────────► replica 1 ◄───────────────┤
//	               └──────────► replica 2 ◄───────────────┘
//
// The primary is an ordinary mutable durable server (internal/server
// over a qbs.DynamicIndex with a store) that additionally serves two
// replication endpoints. Replicas are read-only servers that bootstrap
// from the primary's newest snapshot and stay fresh by tailing its
// write-ahead log through the dynamic replay seam — by the
// repair-equals-rebuild invariant they converge to bit-identical
// labels, σ and Δ at every epoch. The router fans reads across healthy
// replicas and forwards writes to the primary.
//
// # Wire protocol
//
// Replication is two HTTP GET endpoints on the primary:
//
//	GET /replication/snapshot?replica=<id>
//
// returns the newest intact snapshot file verbatim (the store's v3
// format, decoded on the replica with the same zero-copy loaders as
// crash recovery). The X-Qbs-Snapshot-Epoch header carries the epoch
// the image captured. Passing a replica id registers a retention lease
// at that epoch before the body is served, so the log suffix the
// replica needs next cannot be pruned while it loads.
//
//	GET /replication/wal?from=<epoch>&replica=<id>&max=<n>
//
// returns the log records with epoch > from, oldest first, at most n of
// them (default 65536). The body is a sequence of fixed-size 25-byte
// frames byte-identical to the on-disk WAL record framing — u32 payload
// length, u32 CRC-32C over the rest, u64 epoch, u8 op (1 insert,
// 2 delete, 3 compaction), u32 u, u32 w — so the replica validates
// shipped records exactly as recovery validates the log. The
// X-Qbs-Wal-Tip header carries the primary's current epoch, from which
// the replica derives its lag (exposed via GET /metrics). An empty body
// means the replica is caught up; it polls again after its poll
// interval. Each request renews the caller's retention lease at `from`.
//
// If the primary cannot supply the contiguous successor of `from` (the
// records were pruned — possible only when the replica's lease expired)
// it answers 410 Gone. The replica then parks its tail loop with
// ErrWALTruncated and keeps serving its last applied epoch on the query
// endpoints — but its /healthz and /epoch turn 503 so routers and
// monitors take it out of rotation; restarting the replica process
// re-bootstraps it from a fresh snapshot. The same 503 gating applies
// when the tail loop has been failing for any other reason (unreachable
// primary, decode or apply errors) past a short grace window: a replica
// that has stopped advancing must not keep passing health checks.
//
// The router answers GET /healthz and GET /metrics locally — its own
// routability (at least one healthy backend), and the routing table as
// qbs_router_backend_{healthy,epoch} series — rather than proxying them
// to a random backend; all other GETs fan out to the replicas.
//
// Every proxied request carries an X-Qbs-Trace-Id header: the client's
// if it sent one, minted by the router otherwise, and held constant
// across read retries and the primary failover — so one query is one
// trace ID at every hop, correlating the router's routing decision with
// the backend's per-stage spans and slow-query log entry (GET
// /debug/slowlog on any backend). The router's own /metrics is the
// Prometheus text exposition, as on every tier: per-backend pick
// counters and healthy/epoch gauges plus retry/failover totals; see
// internal/obs.
//
// # Traceparent hop semantics
//
// Alongside X-Qbs-Trace-Id, every hop speaks the W3C traceparent
// header (00-<trace-id>-<parent-span-id>-<flags>). Inbound, the router
// adopts the client's trace ID and records its root span under the
// client's span ID; the sampled flag (01) force-retains the trace at
// every tier regardless of latency. Outbound, the router opens one
// child span per forward attempt — carrying the backend URL, the
// attempt ordinal, and the response status — and sends a traceparent
// naming *that attempt span* as the parent, so the backend's server
// root attaches under the exact attempt that reached it. After a
// failover the retained tree therefore shows which replica failed and
// which backend finally answered, span by span. The replica's apply
// loop records its own root spans (replica.apply, with wal.fetch and
// apply.batch children) for each non-empty batch it applies — those are
// process-local roots, not children of any request.
//
// GET /debug/traces lists each tier's retained traces; GET
// /debug/traces/{id} on the router assembles the full cross-process
// tree by merging its own spans with each backend's view of the same
// trace ID (backends that dropped the trace contribute nothing); see
// internal/obs and README "Distributed tracing". A client trace ID that
// traceparent cannot carry unchanged (anything but 16 or 32 lowercase
// hex digits) is forwarded in X-Qbs-Trace-Id alone.
//
// # Retention leases
//
// Each registered replica holds a lease (id → lowest epoch still
// needed, renewed by every replication request, expiring after
// PrimaryOptions.LeaseTTL). The primary keeps the store's WAL pruning
// floor at the minimum leased epoch, so checkpoints — which normally
// delete every segment the retained snapshots cover — never delete a
// segment a live replica has yet to fetch. Expired leases lift the
// floor again: a replica that stalls past its TTL re-bootstraps instead
// of holding the log hostage forever.
//
// # Consistency semantics
//
// Replication is asynchronous: a replica serves the epoch it has
// applied, typically one poll interval behind the primary. Reads that
// need read-your-writes pass min_epoch=<epoch> (the epoch a write
// response reported): a replica still behind answers 503 + Retry-After
// and the router retries the read on another backend, falling back to
// the primary, which is always current. A record is fsynced before it
// is ever shipped (ReadWAL flushes batched appends first), so even with
// SyncEvery > 1 a replica can never apply an epoch that a power loss
// erases from the primary — replicas are always at or behind what a
// recovered primary would replay.
//
// A replica never starts a compaction of its own: it folds its overlay
// into a fresh CSR base at each compaction record the primary logged,
// at the same epoch, keeping its labels, σ and Δ as the primary does.
// Its overlay drift is therefore bounded by the primary's compaction
// threshold, however long it runs, and its /stats "compactions" counts
// the folds it applied.
package replica

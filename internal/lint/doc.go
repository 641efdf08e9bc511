// Package lint is the qbs static-analysis suite: project-specific
// invariants that no stock tool checks, compiled into the qbs-vet
// binary (cmd/qbs-vet) and enforced in CI. The invariants it encodes
// are the ones the system's correctness and latency actually rest on —
// the zero-allocation warm query path, the atomic-access discipline of
// shared counters and epoch pointers, and the WAL's log-before-publish
// ordering — so that future PRs inherit them as compile-time rules
// rather than tribal knowledge.
//
// # Analyzers
//
// zeroalloc — a function annotated //qbs:zeroalloc, and every module
// function it statically calls, may not contain allocating constructs:
// make, new, appends into fresh destinations, go statements,
// non-deferred function literals, slice/map composite literals,
// &composite, non-constant string concatenation, string<->[]byte
// conversions, fmt calls, or interface boxing of non-pointer-shaped
// values. Two idioms are sanctioned because their cost amortizes to
// zero at the steady state the ReportAllocs benchmarks measure:
// x = append(x, ...) self-appends (including append(x[:0], ...)
// refills and `return append(buf, ...)` accumulators), and deferred
// function literals (open-coded defers stay on the stack). The
// transitive walk follows direct calls and concrete-method calls only;
// calls through interfaces or function values are invisible to it —
// the warm paths deliberately keep their dynamic dispatch behind small
// concrete types. A function-level //qbs:allow zeroalloc both
// suppresses findings and prunes the walk: it marks a sanctioned cold
// branch (pool refill, epoch rebind) whose allocations are not part of
// the per-query budget.
//
// atomicfield — a struct field accessed through sync/atomic anywhere
// must be accessed atomically everywhere, across the whole module.
// The analyzer also propagates one level through helpers whose pointer
// parameters feed sync/atomic calls (the traverse orUint64/claimUint32
// idiom), so &mb.nextL[v] passed to a CAS helper marks the field just
// like a direct atomic call. Deliberately barrier-ordered mixed access
// — plain reads in phases separated from the CAS by a barrier — is
// annotated //qbs:allow atomicfield with the reason stating the
// barrier.
//
// loggedpublish — inside internal/dynamic and internal/store, an epoch
// publish (a call to a //qbs:publish-annotated helper, a Store/Swap on
// an atomic.Pointer or atomic.Value field, or atomic.StorePointer)
// must be lexically preceded in the same function by an UpdateLogger
// append (LogUpdate/LogCompaction). This is the durability ordering
// from the WAL PR: recovery replays the log, so a publish the log
// never saw is an epoch recovery silently loses. Lexical precedence
// approximates dominance, which matches how the commit paths are
// written; bootstrap and replay functions (the record is already
// durable, or no logger exists yet) carry //qbs:allow loggedpublish.
//
// hotpath — inside //qbs:hotpath functions (kernel sweeps, per-vertex
// inner loops), time.Now, fmt, package reflect and map iteration are
// banned: each costs unpredictable time per iteration. The rule is
// region-local, not transitive — annotate the innermost kernels, not
// their orchestrators, whose cold error paths legitimately use
// fmt.Errorf.
//
// syncerr — inside internal/store and internal/replica, a Close, Sync
// or Flush whose error result is discarded by a bare expression
// statement is a finding. fsync failures surface exactly once, so a
// dropped Sync error is unrecoverable data loss. `_ = f.Close()` is
// the explicit acknowledgment for best-effort cleanup on paths already
// returning another error; defers keep their usual meaning.
//
// Two implicit checks keep the directives themselves honest. Malformed
// //qbs: directives are reported, so a typo like //qbs:zeralloc surfaces
// instead of silently disabling a rule. And an //qbs:allow that, over
// the whole run, suppressed no finding and pruned no zeroalloc walk is
// reported as stale: the code it excused has changed or gone, and left
// behind it would excuse whatever is written there next.
//
// # Suppression
//
// //qbs:allow <analyzer> <reason> suppresses that analyzer's findings
// on the directive's own line and the line below it; placed in a
// function's doc comment it covers the whole function. The reason is
// mandatory — an allow without one is itself a finding.
//
// # The escape gate
//
// qbs-vet -escape complements the AST analyzers with the compiler's
// own escape analysis: it rebuilds the packages containing
// //qbs:zeroalloc functions with -gcflags=-m and fails on any
// "escapes to heap" / "moved to heap" diagnostic inside an annotated
// function's span. "leaking param" is not a failure — a parameter
// flowing into a longer-lived structure (the sync.Pool recycle path)
// allocates at the caller, if anywhere. The build cache replays -m
// diagnostics, so repeated runs are cheap.
//
// # Implementation note
//
// The suite is stdlib-only: packages are enumerated with
// `go list -deps -export -json -test`, module packages are
// type-checked from source with go/types, and standard-library imports
// resolve from compiler export data via go/importer. The analyzer API
// mirrors golang.org/x/tools/go/analysis in spirit but runs each
// analyzer once over the whole Program, because the invariants here —
// transitive call trees, cross-package field access — are
// module-global properties.
package lint

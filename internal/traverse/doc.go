// Package traverse is the shared BFS engine behind the QbS index: every
// hot traversal — labelling construction, query search and dynamic
// column repair — runs on the two kernels defined here.
//
// # Direction-optimizing expansion (Expander)
//
// A level-synchronous BFS normally expands top-down: scan every frontier
// vertex and mark its unseen neighbours. On small-world graphs one or
// two levels hold most of the graph, and top-down then touches almost
// every arc just to rediscover vertices that are already marked.
// Beamer's direction-optimizing BFS flips those dense levels bottom-up:
// iterate the *unvisited* vertices and stop at the first neighbour found
// in the frontier (a parent), so a vertex of degree d costs on average
// far fewer than d probes.
//
// The switch uses the classic α/β heuristic:
//
//   - top-down → bottom-up when m_f·α > m_u, where m_f is the sum of
//     frontier degrees (arcs the next top-down step would scan) and m_u
//     is the arc mass not yet explored;
//   - bottom-up → top-down when |frontier|·β < |V| (the frontier has
//     shrunk enough that scanning all unvisited vertices is wasteful).
//
// Both directions work on one visited bitmap, the Workspace's, packed 64
// vertices to a word: top-down tests and sets a vertex's bit, bottom-up
// scans whole words so fully-visited regions skip in one comparison.
// There is no second copy to build or reconcile at a direction switch,
// and the bitmap — 50 KB for 400 000 vertices — is what the inner loops
// hit instead of a per-vertex array the size of the graph.
//
// # Search state (Workspace, Marks)
//
// Per-query cost is a function of what the query touches, not of |V|:
//
//   - Visited is one bit per vertex (Marks). Every sequential Mark logs
//     its word index; Reset zeroes just those words. The log is capped
//     at one entry per bitmap word — past that a single clear of the
//     bitmap is cheaper, so the log stops and Reset does that instead.
//     Dense levels (bottom-up, which reads every word anyway, and
//     parallel levels, whose workers cannot share a log) skip the log
//     and go straight to the clear.
//   - A vertex's depth is stored when its level is expanded *from*, not
//     when it is discovered: Expand(frontier, d) first settles frontier
//     at d (a settled bit and a dist entry each), then only marks what
//     it discovers. The last level of a search — the largest, and in a
//     bidirectional search never expanded — costs no per-vertex store;
//     Dist answers it with the workspace's pending depth, which all
//     seen-but-unsettled vertices share because they are one level.
//   - Sets that need no depths (the extractors' dedup marks, the label
//     walk) are bare Marks.
//
// Both directions produce identical distance assignments — bottom-up
// only changes the order in which a level's vertices are emitted — so
// search results are unchanged.
//
// On a directed graph the two directions walk different arc sets:
// top-down pushes along the traversal's forward arcs, while bottom-up
// asks "which of my *in*-neighbours is on the frontier". Both kernels
// therefore accept an explicit (push, pull) adjacency pair
// (Expander.BeginDirected, MultiBFS.RunDirected) where pull is the
// reverse adjacency of push; the undirected entry points pass the same
// graph for both.
//
// # Meeting of two searches (ExpandMeeting)
//
// A bidirectional search expands one side at a time and must notice
// when the sides touch. The pass that expands side S already tests
// every vertex y it reaches against S's visited bits; ExpandMeeting
// hands it the other side's workspace and it tests those bits too. A
// vertex unseen by S and seen by the other side is a meeting, and the
// arc x→y that reached it — x on S's frontier — is returned as a
// crossing arc instead of y joining the level. No second pass over the
// finished level, and the searcher's reverse extraction starts from the
// arcs' endpoints, one level lower on S than from meeting vertices.
//
// Why a crossing arc always lands on the other side's outermost level:
// while no arc has crossed, no vertex is in both visited sets, because a
// level only ever adds vertices the other side has not seen (a vertex
// the caller marked on both sides beforehand, such as a removed
// landmark, is skipped as seen by S before the other side is looked
// at). Had y been settled deeper inside the other search, that search
// would have expanded y and reached x, and x would be in both sets.
// So the distance is d + 1 + (the other side's completed depth), and
// the crossing arcs are exactly the shortest-path arcs over that cut.
//
// The last level is truncated. A level that met is never expanded from,
// so from the first crossing arc on the sequential top-down kernel stops
// marking and appending, and every kernel returns dst at its input
// length: the call yields the complete level or the crossing arcs,
// never both. The caller's level count does not advance; the marks a
// truncated level may leave in the workspace carry the pending depth
// d+1, which no walk down from depth ≤ d matches. Bottom-up levels
// reach the same shape from the other end: first the vertices unseen
// here and seen there list all their depth-d parents (a level vertex
// would stop at its first), and only if none has any does the usual
// sweep run, over the vertices neither side has seen. Pooled levels
// collect crossing arcs per worker; the other side's bitmap is not
// written during the level and is read plainly.
//
// # Bit-parallel multi-source labelling BFS (MultiBFS)
//
// QbS construction runs one landmark-rooted BFS per landmark. MultiBFS
// instead runs up to 64 of them in a single graph sweep: each vertex
// carries uint64 words whose bit i belongs to source i, and a frontier
// expansion ORs a vertex's word into its neighbours, advancing all
// sources one level per pass. With the paper's default |R| = 20 the
// whole labelling is one sweep instead of twenty.
//
// The engine natively implements Algorithm 2's two-frontier discipline,
// per bit: QL (reached by a shortest path avoiding all other landmarks)
// and QN (every shortest path passes through another landmark). Per
// vertex it keeps five words —
//
//	curL/curN    frontier membership at the current level
//	nextL/nextN  accumulating frontier for the next level
//	visited      sources that have reached the vertex
//
// and a level settles as: bits first arriving via QL join QL (and emit a
// label or, at a landmark, a meta-edge); bits arriving only via QN join
// QN; landmarks absorb all bits into QN. Because levels are settled
// synchronously after the whole frontier is scanned, the result is
// bit-identical to running the scalar QL/QN BFS per source, in any
// frontier order — which also lets MultiBFS reuse the same α/β
// direction switch for its dense levels.
//
// # Parallel execution model
//
// Both kernels optionally run each level on a pool of goroutines
// (Expander.Parallelism, MultiBFS.Parallelism; 0 or 1 keeps the exact
// sequential code path). The design is Ligra-style level-synchronous
// work sharing:
//
//   - Top-down levels partition the frontier into fixed-size chunks.
//     Workers start on a statically assigned share (cheap locality when
//     the level is balanced) and then claim leftover chunks off a
//     shared atomic cursor, so a worker stuck on a hub vertex doesn't
//     stall the level (claims outside the static share are counted as
//     steals). Vertex discovery is arbitrated with a compare-and-swap
//     per vertex — in the Expander on the vertex's word of the visited
//     bitmap (a CAS loop that sets its bit), in MultiBFS on a per-vertex
//     generation stamp plus CAS-OR accumulation into the nextL/nextN
//     words — so exactly one worker wins each vertex and appends it to
//     its own buffer (or settles its label bits) without further
//     synchronization. An Expander level writes nothing else: depths
//     are stored by the coordinator, before the next level fans out.
//   - Bottom-up levels split the vertex range into word-aligned chunks
//     (multiples of 64 so visited-bitmap words have a single owner and
//     need no atomics). Each worker probes only its own range, reading
//     the frontier through an immutable snapshot — the current-level
//     words in MultiBFS, a frontier bitmap built before the fan-out in
//     the Expander — so all cross-worker reads are of data that cannot
//     change during the level, and all writes land in the worker's own
//     range.
//
// A level only moves to the pool past a size threshold (a few thousand
// frontier vertices or unvisited words); below it the sequential loop
// is both faster and exactly the single-core code shape.
//
// Determinism: the α/β direction decision is taken on the coordinating
// goroutine from the previous level's aggregate counts, which are
// summed deterministically from per-worker counters — so the
// push/pull schedule, and hence Switches and WordsSwept, are identical
// to the sequential run. Within a level, parallel execution only
// permutes the order in which a level's vertices are discovered and
// settled; the *set* of vertices, their distances and their settle
// payloads are order-independent (a vertex's level is fixed by the BFS,
// and settle writes are per-vertex). Every consumer is insensitive to
// within-level order, so labels, σ, Δ and query SPGs are bit-identical
// at every worker count — the property suite and the scaling harness
// both enforce this.
//
// Engines are single-traversal objects: one Run/Expand stream per
// engine at a time (concurrent use is detected and rejected), with all
// pool fan-out kept internal. Callers that want concurrency across
// queries keep using one engine per goroutine, exactly as before.
package traverse

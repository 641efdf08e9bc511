// Package traverse is the shared BFS engine behind the QbS index: every
// hot traversal runs on the two kernels defined here. Query search — the
// one two-sided search (bfs.Search) that the guided search and the
// Bi-BFS baseline both run — grows through ExpandMeeting, a sequential top-down level with the meeting test built
// in; labelling construction and dynamic column repair run on MultiBFS,
// which is bit-parallel and direction-optimizing: one sequential
// top-down level and one bottom-up level whose width is Parallelism.
// The asymmetry is measured, not assumed: a labelling sweep visits the
// whole graph and its middle levels hold most of it, while no level a
// query expands from comes within a factor of ten of the size at which
// the direction switch below would go bottom-up (the tests named
// TestGuidedLevelsStayBelowSwitch, in core and bfs, keep that checked on
// the densest dataset analogs).
//
// # Search state (Workspace, Marks)
//
// Per-query cost is a function of what the query touches, not of |V|:
//
//   - Visited is one bit per vertex (Marks), so the whole set of a
//     400 000-vertex graph is 50 KB and the inner loop hits that instead
//     of a per-vertex array the size of the graph. Every Mark logs its
//     word index; Reset zeroes just those words. The log is capped at
//     one entry per bitmap word — past that a single clear of the
//     bitmap is cheaper, so the log stops and Reset does that instead.
//   - A vertex's depth is stored when its level is expanded *from*, not
//     when it is discovered: ExpandMeeting(frontier, d) first settles
//     frontier at d (a settled bit and a dist entry each), then only
//     marks what it discovers. The outermost level a search built is
//     never expanded from, so it costs no per-vertex store; Dist answers
//     it with the workspace's pending depth, which all seen-but-unsettled
//     vertices share because they are one level. The level at a bounded
//     search's bound — the largest — is not built at all: ExpandMeeting
//     (last) only tests it for a meeting, and leaves the workspace as
//     it found it.
//   - Sets that need no depths (the extractors' dedup marks, the label
//     walk) are bare Marks.
//
// On a directed graph a search walks one arc set — out-arcs forward
// from u, in-arcs backward from v — and ExpandMeeting is handed that
// side's push adjacency; the undirected callers pass the graph itself.
//
// # Meeting of two searches (ExpandMeeting)
//
// A bidirectional search expands one side at a time and must notice
// when the sides touch. The pass that expands side S already tests
// every vertex y it reaches against S's visited bits; ExpandMeeting
// hands it the other side's workspace and it tests those bits too. A
// vertex unseen by S and seen by the other side is a meeting, and the
// arc x→y that reached it — x on S's frontier — is returned as a
// crossing arc instead of y joining the level. No pass over the finished
// level to find where it touched the other side, and the searcher's
// reverse extraction starts from the arcs' endpoints, one level lower on
// S than from meeting vertices.
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
// The last level marks nothing. A level that met is never expanded from:
// the call yields the complete level or the crossing arcs, never both,
// and a level that met settles its frontier and otherwise leaves the
// workspace's visited set and dst as they were. The caller's level count
// does not advance. A level the caller says is last (its depth sum is
// the search's bound) is not expanded from either, met or not: the call
// does not even settle the frontier, and only tests.
//
// # Memory access (RowsAhead, the two-sweep level)
//
// At the sizes the server serves a query is its cache misses: on the
// 120 000-vertex FR analog the one-sweep kernel spent 350 ns per frontier
// row — the offset pair, then the row, each waited for behind the scan of
// the row before, whose own work (a bitmap test, a mark, two appends per
// neighbour) fills the reorder window long before the next row's address
// is even computed. Three things follow.
//
// Rows are requested a block ahead. Before the first of every 16 frontier
// rows is scanned, RowsAhead loads one entry per cache line of all 16, a
// loop short enough that their misses are outstanding together. Go has
// no prefetch intrinsic, so these are real loads, folded into a sum the
// compiler cannot drop. The sum lives in the Workspace, not in a package
// variable: searchers run concurrently, one workspace each, and a shared
// word would be a data race and a contended cache line. Below
// residentArcs (half a megabyte of rows) nothing is requested: what hits
// in L2 is cheaper to read once than to ask for twice. ExpandMeeting,
// the reverse extraction (bfs.Extractor) and the searcher's label walk
// all scan rows this way.
//
// A level that may be the last is swept twice. The first sweep only
// tests — is the neighbour seen there and unseen here — and collects
// crossing arcs; it writes nothing, so it is a handful of instructions
// per arc, runs far ahead of its misses, and if it finds an arc the level
// is over with no mark, log entry or append to take back or to clear at
// the next Reset. Only a level that did not meet is swept again to mark,
// over rows that are now warm (or requested a block ahead once more, when
// the level is larger than the cache). A row is counted once however
// many sweeps read it, as the one-sweep kernel counted it. The level at
// a search's bound gets the test sweep only: whether or not it meets,
// it is the search's last, so it is never marked.
//
// Which levels: those of a search still growing geometrically — at
// least geometric (16) frontier rows for every level up to this one. In
// such a search the next level is as large as all earlier ones together,
// so the test sweep over levels that turn out not to meet costs a
// fraction of the one that does; on FR seven pairs in ten end on a
// 2 900-arc level holding one crossing arc. A search that grows by a few
// rows a level — a grid, a ring, a long path — has a hundred levels of
// which one meets, nothing to overlap, and rows its own last level left
// in cache: it gets the single sweep, which tests and marks together and
// takes its marks back (Marks.unmark) in the one level that meets. The
// rule reads only the frontier length and the depth; no option selects
// it.
//
// # Bit-parallel multi-source labelling BFS (MultiBFS)
//
// QbS construction runs one landmark-rooted BFS per landmark. MultiBFS
// instead runs up to 64 of them in a single graph sweep: each vertex
// carries words whose bit i belongs to source i, and a frontier
// expansion ORs a vertex's word into its neighbours, advancing all
// sources one level per pass. With the paper's default |R| = 20 the
// whole labelling is one sweep instead of twenty.
//
// The words are as wide as the sweep needs: uint32 for up to 32
// sources, uint64 beyond. One generic top-down level and one generic
// bottom-up kernel serve both widths. An engine allocates its words at
// its first sweep and holds one width's at a time: the first sweep of
// more than 32 sources replaces the uint32 words, and later narrow
// sweeps run in the uint64 ones, so a build of 65-96 landmarks on one
// engine holds 40 bytes per vertex, not 60. The |R| = 20 build holds 20
// bytes of words per vertex, no more than the labels it writes, and an
// engine that never sweeps (a dynamic index's standing one, until a
// column falls back to a re-BFS) holds none.
//
// The engine natively implements Algorithm 2's two-frontier discipline,
// per bit: QL (reached by a shortest path avoiding all other landmarks)
// and QN (every shortest path passes through another landmark). Per
// vertex it keeps five words of the sweep's width —
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
// frontier order — which is what lets its dense levels run bottom-up.
// Besides the words it keeps two lists of a level's vertices, the
// frontier and the level being settled, allocated by the first sweep at
// |V|/β + 64 slots (β the switch's, below) and never grown. A level with
// more vertices than that is held only in its words, a vertex being on
// it when its cur words are not zero: a top-down step from it scans the
// words for its vertices, a top-down level that overflows the list is
// settled by a scan of the next-level words, and a bottom-up level is
// listed only when it fits. Its words are cleared wholesale after it,
// a listed level's vertex by vertex. Only dense levels go unlisted, and
// a dense level costs a pass over the graph anyway; a sparse one —
// every level a dynamic repair or a sweep's tail expands — stays
// O(level).
//
// # Direction-optimizing sweeps (MultiBFS)
//
// A level-synchronous BFS normally expands top-down: scan every frontier
// vertex and mark its unseen neighbours. On small-world graphs one or
// two levels hold most of the graph, and top-down then touches almost
// every arc just to rediscover vertices that are already marked.
// Beamer's direction-optimizing BFS flips those dense levels bottom-up:
// iterate the vertices some source has not reached and pull the frontier
// bits of their neighbours, stopping as soon as every source is
// accounted for, so a vertex of degree d costs on average far fewer than
// d probes.
//
// The switch uses the classic α/β heuristic:
//
//   - top-down → bottom-up when m_f·α > m, where m_f is the sum of
//     frontier degrees (arcs the next top-down step would scan) and m
//     the graph's arc mass (rather than Beamer's expensively tracked
//     unexplored remainder: deliberately conservative), and the
//     frontier holds at least |V|/β vertices;
//   - bottom-up → top-down when |frontier|·β < |V| (the frontier has
//     shrunk enough that scanning all unvisited vertices is wasteful).
//
// Both directions produce identical settle payloads — bottom-up only
// changes the order in which a level's vertices are emitted — so labels
// are unchanged. On a directed graph the two directions walk different
// arc sets: top-down pushes along the traversal's forward arcs, while
// bottom-up asks "which of my *in*-neighbours is on the frontier".
// RunDirected therefore takes an explicit (push, pull) adjacency pair
// where pull is the reverse adjacency of push; Run passes the same graph
// for both.
//
// # Parallel execution model (MultiBFS)
//
// MultiBFS runs its bottom-up levels on Parallelism goroutines (0 or 1:
// on the caller alone). Top-down levels always run on the caller. The
// bottom-up pool is what the workers buy: the dense middle levels that
// hold most of a labelling sweep's work are the ones the switch sends
// bottom-up, while a level sparse enough to stay top-down is cheap.
//
// A bottom-up level splits the vertex range into chunks of 1024
// vertices (chunk boundaries fall on cache-line boundaries of the
// per-vertex words at either width) that workers claim off one atomic
// cursor, so a worker slowed by high-degree vertices takes fewer chunks
// rather than stalling the level. Each worker probes only its own
// chunks, reading the frontier through the current-level words, which
// cannot change during the level; it settles each vertex at once, and
// every write lands on that vertex's own words, inside the worker's
// chunk. A worker counts the vertices each of its chunks settled; when
// the level fits the list, the coordinating goroutine lists it after
// the level by a scan of the next-level words of the chunks that settled
// any. A level over fewer than a few thousand
// vertices runs on the caller: the goroutine fan-out would cost more
// than the level.
//
// Determinism: the α/β direction decision is taken on the coordinating
// goroutine from the frontier alone, so the push/pull schedule is the
// same at every worker count. Within a level, the worker count only
// permutes the order in which a level's vertices are settled; the next
// frontier of a bottom-up level lists them in ascending order whatever
// the count. The *set* of vertices, their distances and their settle
// payloads are order-independent (a vertex's level is fixed by the BFS,
// its pull order by the adjacency, and settle writes are per-vertex).
// Every consumer is insensitive to within-level order, so labels, σ and
// Δ are bit-identical at every worker count — the property suite and
// the scaling harness both enforce this.
//
// An engine is a single-traversal object: one Run at a time (concurrent
// use is detected and rejected), with all pool fan-out kept internal.
// ExpandMeeting has no state of its own; the workspaces it is handed are
// single-owner, one searcher per goroutine.
package traverse

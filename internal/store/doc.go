// Package store is the durability subsystem: it persists a dynamic QbS
// index to a data directory as a versioned snapshot plus a write-ahead
// log, and recovers the exact pre-crash state on open — restart costs a
// file read and a replay of the post-snapshot tail instead of minutes of
// landmark BFSes.
//
// # Data-directory layout
//
//	<dir>/
//	  CURRENT                  name of the live snapshot (atomic rename)
//	  snapshot-<epoch>.qbss    index snapshot, format v3 (newest + one prior kept)
//	  wal/
//	    seg-<seq>.wal          write-ahead log segments, monotone seq
//
// A *directed* store (CreateDi/OpenDi) is a single immutable snapshot —
// the directed index has no dynamic subsystem, hence no WAL:
//
//	<dir>/
//	  directed.qbss            directed index snapshot, format v5
//
// # Snapshot format (v3)
//
// One self-describing, checksummed file holding everything a snapshot
// epoch needs: the graph (CSR), the landmark set, the σ matrix, the
// per-landmark distance and label columns, and the Δ lists. All
// integers are little-endian.
//
//	[0,4)    magic "QBS3"
//	[4,8)    u32 version = 3
//	[8,16)   u64 epoch
//	[16,24)  u64 numVertices
//	[24,32)  u64 numArcs
//	[32,36)  u32 numLandmarks (R)
//	[36,40)  u32 numSections (= 8)
//	[40,44)  u32 headerCRC — crc32c over [0,40) and the section table
//	[44,48)  padding
//	[48,304) section table: 8 × {u32 kind, u32 _, u64 offset, u64 length,
//	         u32 crc32c, u32 _}
//	[304,…)  section payloads, each 8-byte aligned, zero padded
//
// Sections, in fixed order: graph offsets ((n+1)×i64), graph adjacency
// (arcs×i32), landmarks (R×i32), σ (R²×u8), label columns (R·n×u8,
// column-major), distance columns (R·n×i32, column-major), Δ counts
// (numMeta×u32, meta-edges in the deterministic order derived from σ)
// and Δ edges (Σcounts × {i32,i32}).
//
// The layout is chosen for zero-copy load: the whole file is read (or
// mmapped) into one arena and every bulk array — labels, distances, the
// CSR, Δ — is a typed view sliced straight out of it, with no
// element-by-element decode on little-endian hosts. The copy-on-write
// discipline of the dynamic index guarantees adopted state is never
// written, so views into a read-only mapping are safe for the life of
// the process.
//
// # Snapshot format (v5, directed flavor)
//
// The directed flavor extends v3 with a flags word; it does not change
// the undirected layout. The compatibility rule: undirected snapshots
// keep being written as v3 and every v3 file keeps loading unchanged —
// the directed format exists only for what a v3 reader could not
// represent (dual CSR, two label matrices, asymmetric σ).
//
// A directed snapshot reuses the v3 header geometry with magic "QBS4",
// version 5, epoch fixed to 0 (directed indexes are immutable), and the
// previously-padding bytes [44,48) as a little-endian u32 flags word
// (bit 0 = directed, required). The header CRC at [40,44) covers
// [0,40), the flags word and the section table. Ten sections follow in
// fixed order, each 8-byte aligned and crc32c-checksummed exactly as in
// v3:
//
//	out offsets ((n+1)×i64), out adjacency (arcs×i32),
//	in offsets  ((n+1)×i64), in adjacency  (arcs×i32),
//	landmarks (R×i32), σ (R²×u8, row-major, row = from-rank),
//	labelFrom (R·n×u8, column-major), labelTo (R·n×u8, column-major),
//	Δ counts (numMeta×i32, meta-arcs in the canonical (from, to) rank
//	order derived from σ), Δ arcs (Σcounts × {i32 from, i32 to})
//
// Version 5 differs from version 4 in one thing: the two label sections
// are column-major (one landmark's column after another, as in v3)
// where version 4 stored them row-major. The index reads labels by
// column — it is the undirected index's engine, bound to two label
// matrices — so each column has to be a contiguous run of the file for
// the load to stay zero-copy: the dual CSR, the 2·R label columns and Δ
// are typed views into the file arena, and only the O(|R|³) meta state
// (APSP, arc ids, shortest-meta-path table) is recomputed. A version-4
// file is refused with "unsupported snapshot version 4" before its
// checksums are read; the store is a cache of a build, so the remedy is
// to rebuild it. Opening a directed file with the undirected loader (or
// vice versa) fails with an error naming the right entry point rather
// than a checksum mismatch.
//
// # WAL format
//
// Edge mutations are logged before their epoch is published. Segments
// rotate at a size threshold and at every checkpoint; a checkpoint
// prunes segments whose records all precede the oldest retained
// snapshot.
//
//	segment header (16 bytes): magic "QBSW", u32 version = 1, u64 seq
//	record (25 bytes): u32 payloadLen (= 17), u32 crc32c(payload),
//	                   payload = u64 epoch, u8 op, i32 u, i32 w
//
// Ops: 1 insert, 2 delete, 3 compaction marker (epoch advance with no
// edge change; u = w = 0). fsync policy is configurable: every append
// (the durable default) or batched every N appends.
//
// # Recovery invariants
//
// Open loads the newest snapshot that validates (CURRENT first, then
// any on-disk snapshot, newest epoch first) and replays WAL records with
// epoch > snapshot epoch through the ordinary incremental-repair path.
// The invariants that make this exact:
//
//   - Logged-before-published: a record reaches the WAL (and, under the
//     default sync policy, the disk) before its epoch is visible, so no
//     acknowledged update can be lost.
//   - Sequential epochs: every epoch advance — updates and compactions —
//     is logged in order with no gaps; replay verifies the sequence and
//     fails loudly on divergence instead of guessing.
//   - Repair ≡ rebuild: incremental repair produces bit-identical
//     labels, σ and Δ to a from-scratch build (the PR 1 oracle
//     property), so replaying the logged updates reproduces the exact
//     pre-crash index, and compaction markers need only advance the
//     epoch.
//   - Torn tails: a crash mid-append leaves a partial or CRC-failing
//     record at the end of the last segment; replay stops at the last
//     valid record and a writable open truncates the tail. Corruption
//     anywhere else (a middle segment, an unreadable snapshot with no
//     older fallback) is an error, never a silent partial recovery.
package store

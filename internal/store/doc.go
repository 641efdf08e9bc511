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
// A directory is the home of one index over one graph: creating a store
// of either kind takes the writer lock (<dir>/LOCK) and refuses a
// directory that already holds a store of either kind, naming what is
// there.
//
// # Snapshot container
//
// Both snapshot formats are one container (container.go): a
// self-describing, checksummed file of a fixed header, a section table
// and the section payloads. All integers are little-endian.
//
//	[0,4)    magic
//	[4,8)    u32 version
//	[8,16)   u64 epoch
//	[16,24)  u64 numVertices (n)
//	[24,32)  u64 numArcs
//	[32,36)  u32 numLandmarks (R)
//	[36,40)  u32 numSections (S)
//	[40,44)  u32 headerCRC — crc32c over [0,40), the flags word where the
//	         format has one, and the section table
//	[44,48)  u32 flags (padding, zero and outside the CRC, in v3)
//	[48,48+32·S) section table: S × {u32 kind, u32 _, u64 offset,
//	         u64 length, u32 crc32c, u32 _}, kinds 1..S in file order
//	[…)      section payloads, each 8-byte aligned, zero padded
//
// One writer streams the payloads past the table, each through an
// incremental CRC so even large indexes serialise without a second
// in-memory copy, then patches header and table in at offset 0; the file
// is written to a temp name, fsynced and renamed, and the directory
// fsynced. One reader checks size, magic, version, section count, flags,
// the header CRC, the plausibility of the counts, that each section lies
// in bounds, aligned and in kind order, and the section CRCs (in
// parallel), and hands the payloads out as slices of the file. What the
// sections hold, and the invariants that tie them together, are the
// format's (schema_v3.go, schema_v5.go); the σ shape check and the Δ
// decoder are shared, parameterised by orientation.
//
// The layout is chosen for zero-copy load: the whole file is read (or
// mmapped) into one arena and every bulk array — labels, distances, the
// CSR, Δ — is a typed view sliced straight out of it, with no
// element-by-element decode on little-endian hosts. The copy-on-write
// discipline of the dynamic index guarantees adopted state is never
// written, so views into a read-only mapping are safe for the life of
// the process.
//
// The two formats stay two: undirected snapshots keep being written as
// v3 and every v3 file keeps loading unchanged, byte for byte what
// earlier versions wrote (TestSnapshotBytesUnchanged pins both formats'
// bytes); v5 exists only for what a v3 reader could not represent (dual
// CSR, two label matrices, asymmetric σ). Opening a file of one format
// with the other's loader fails with an error naming the right entry
// point rather than a checksum mismatch.
//
// # Format v3 sections
//
// Magic "QBS3", version 3, no flags: one epoch of a dynamic index.
//
//	1 graph offsets    (n+1)×i64
//	2 graph adjacency  arcs×i32            arcs even: every edge twice
//	3 landmarks        R×i32
//	4 σ                R²×u8               symmetric, empty diagonal, no zero
//	5 label columns    R·n×u8              column-major
//	6 distance columns R·n×i32             column-major; a present label equals
//	                                       the distance, which is ≤ 254 or infinite
//	7 Δ counts         numMeta×i32         meta-edges a < b in the order σ implies
//	8 Δ edges          Σcounts×{i32,i32}   in range, normalised (U ≤ W)
//
// # Format v5 sections
//
// Magic "QBS4", version 5, flags bit 0 (directed) required: a directed
// index. The epoch is 0: directed indexes are immutable.
//
//	1 out offsets   (n+1)×i64
//	2 out adjacency arcs×i32
//	3 in offsets    (n+1)×i64
//	4 in adjacency  arcs×i32
//	5 landmarks     R×i32                 in range
//	6 σ             R²×u8                 row-major, row = from-rank; empty
//	                                      diagonal, no zero; not symmetric
//	7 labelFrom     R·n×u8                column-major; no entry on a landmark's
//	8 labelTo       R·n×u8                row, no zero depth
//	9 Δ counts      numMeta×i32           meta-arcs in (from, to) rank order
//	10 Δ arcs       Σcounts×{i32 from, i32 to}   in range, no self-loop
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
// to rebuild it.
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

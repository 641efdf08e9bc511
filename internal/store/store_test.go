package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"qbs/internal/bfs"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
	"qbs/internal/obs"
)

// testGraph builds a small scale-free graph, the store tests' default
// substrate.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	return graph.BarabasiAlbert(300, 3, 7)
}

func newDynamic(t testing.TB, g *graph.Graph, k int) *dynamic.Index {
	t.Helper()
	d, err := dynamic.New(g, g.TopDegreeVertices(k), dynamic.Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// op is one recorded mutation of a test update stream.
type op struct {
	u, w   graph.V
	insert bool
}

// applyOps drives count random (but valid and deterministic) edge
// mutations against d and returns the ones that applied.
func applyOps(t testing.TB, d *dynamic.Index, count int, seed int64) []op {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := d.NumVertices()
	var applied []op
	for len(applied) < count {
		u := graph.V(rng.Intn(n))
		w := graph.V(rng.Intn(n))
		if u == w {
			continue
		}
		insert := !d.HasEdge(u, w)
		ok, err := func() (bool, error) {
			if insert {
				return d.AddEdge(u, w)
			}
			return d.RemoveEdge(u, w)
		}()
		if err != nil {
			continue // e.g. a delete that would blow the diameter bound
		}
		if ok {
			applied = append(applied, op{u, w, insert})
		}
	}
	return applied
}

// replayOps applies a recorded stream to a reference index.
func replayOps(t testing.TB, d *dynamic.Index, ops []op) {
	t.Helper()
	for _, o := range ops {
		var ok bool
		var err error
		if o.insert {
			ok, err = d.AddEdge(o.u, o.w)
		} else {
			ok, err = d.RemoveEdge(o.u, o.w)
		}
		if err != nil || !ok {
			t.Fatalf("reference replay {%d,%d} insert=%v: ok=%v err=%v", o.u, o.w, o.insert, ok, err)
		}
	}
}

// requireStateEqual asserts two persistent states are bit-identical:
// same epoch, graph, landmarks, σ, label and distance columns, and Δ.
func requireStateEqual(t testing.TB, want, got dynamic.PersistentState) {
	t.Helper()
	if want.Epoch != got.Epoch {
		t.Fatalf("epoch: want %d, got %d", want.Epoch, got.Epoch)
	}
	wo, wa, _, _ := want.Graph.CSR()
	go_, ga, _, _ := got.Graph.CSR()
	if !slicesEqual(wo, go_) || !slicesEqual(wa, ga) {
		t.Fatalf("graph CSR differs")
	}
	if !slicesEqual(want.Landmarks, got.Landmarks) {
		t.Fatalf("landmarks: want %v, got %v", want.Landmarks, got.Landmarks)
	}
	if !bytes.Equal(want.Sigma, got.Sigma) {
		t.Fatalf("sigma differs")
	}
	if len(want.Labels) != len(got.Labels) || len(want.Dists) != len(got.Dists) {
		t.Fatalf("column counts differ")
	}
	for r := range want.Labels {
		if !bytes.Equal(want.Labels[r], got.Labels[r]) {
			t.Fatalf("label column %d differs", r)
		}
		if !slicesEqual(want.Dists[r], got.Dists[r]) {
			t.Fatalf("dist column %d differs", r)
		}
	}
	if len(want.Delta) != len(got.Delta) {
		t.Fatalf("delta: %d vs %d meta-edges", len(want.Delta), len(got.Delta))
	}
	for k := range want.Delta {
		if len(want.Delta[k]) != len(got.Delta[k]) {
			t.Fatalf("delta %d: %d vs %d edges", k, len(want.Delta[k]), len(got.Delta[k]))
		}
		for i := range want.Delta[k] {
			if want.Delta[k][i] != got.Delta[k][i] {
				t.Fatalf("delta %d edge %d differs", k, i)
			}
		}
	}
}

func slicesEqual[T comparable](a, b []T) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestCreateOpenRoundTrip(t *testing.T) {
	for _, mm := range []bool{false, true} {
		t.Run(fmt.Sprintf("mmap=%v", mm), func(t *testing.T) {
			dir := t.TempDir()
			g := testGraph(t)
			d := newDynamic(t, g, 8)
			s, err := Create(dir, d, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ops := applyOps(t, d, 40, 11)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir, Options{MMap: mm, Dynamic: dynamic.Options{CompactFraction: -1}})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			requireStateEqual(t, d.Persistent(), s2.Index().Persistent())
			if got, want := s2.Index().Epoch(), uint64(len(ops)); got != want {
				t.Fatalf("recovered epoch %d, want %d", got, want)
			}

			// Recovered index answers correctly and accepts new writes.
			cur := s2.Index().CurrentGraph()
			for i := 0; i < 30; i++ {
				u := graph.V((i * 37) % g.NumVertices())
				v := graph.V((i * 91) % g.NumVertices())
				got := s2.Index().Query(u, v)
				want := bfs.OracleSPG(cur.Materialize(), u, v)
				if !got.Equal(want) {
					t.Fatalf("recovered SPG(%d,%d) wrong", u, v)
				}
			}
			applyOps(t, s2.Index(), 5, 13)
		})
	}
}

// TestCrashAtEveryRecordBoundary is the oracle property test: whatever
// prefix of the WAL survives a crash — any record boundary, and any
// torn byte inside a record — the recovered index is bit-identical to a
// never-crashed index that applied exactly the surviving updates.
func TestCrashAtEveryRecordBoundary(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 6)
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const numOps = 25
	ops := applyOps(t, d, numOps, 17)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segPath := filepath.Join(walDir(dir), segmentFileName(1))
	walBytes, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(walHeaderSize + numOps*walRecordSize); int64(len(walBytes)) != want {
		t.Fatalf("wal has %d bytes, want %d", len(walBytes), want)
	}

	// References: refState[k] = persistent state after applying ops[:k].
	refStates := make([]dynamic.PersistentState, numOps+1)
	ref := newDynamic(t, g, 6)
	refStates[0] = ref.Persistent()
	for k, o := range ops {
		replayOps(t, ref, []op{o})
		refStates[k+1] = ref.Persistent()
	}

	check := func(t *testing.T, cut int64, wantOps int) {
		crashDir := t.TempDir()
		copyTree(t, dir, crashDir)
		if err := os.Truncate(filepath.Join(walDir(crashDir), segmentFileName(1)), cut); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(crashDir, Options{Dynamic: dynamic.Options{CompactFraction: -1}})
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		requireStateEqual(t, refStates[wantOps], s2.Index().Persistent())
	}

	// Every record boundary.
	for k := 0; k <= numOps; k++ {
		cut := int64(walHeaderSize + k*walRecordSize)
		t.Run(fmt.Sprintf("boundary-%d", k), func(t *testing.T) { check(t, cut, k) })
	}
	// Torn bytes inside records: a partial record must roll back to the
	// preceding boundary.
	for _, within := range []int64{1, 7, 8, 9, walRecordSize - 1} {
		for _, k := range []int{0, 1, numOps / 2, numOps - 1} {
			cut := int64(walHeaderSize+k*walRecordSize) + within
			t.Run(fmt.Sprintf("torn-%d+%d", k, within), func(t *testing.T) { check(t, cut, k) })
		}
	}
	// Torn mid-header: the segment is discarded entirely.
	t.Run("torn-header", func(t *testing.T) { check(t, walHeaderSize-3, 0) })
}

// TestRecoveryAfterTruncationIsRepeatable re-opens a truncated store
// twice: the first writable open truncates the torn tail, the second
// must see a clean log and identical state.
func TestRecoveryAfterTruncationIsRepeatable(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 6)
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 10, 23)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(walDir(dir), segmentFileName(1))
	fi, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segPath, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st2 := s2.Index().Persistent()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if fi2, _ := os.Stat(segPath); (fi2.Size()-walHeaderSize)%walRecordSize != 0 {
		t.Fatalf("torn tail not truncated to a record boundary: %d bytes", fi2.Size())
	}
	s3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	requireStateEqual(t, st2, s3.Index().Persistent())
}

func TestCheckpointPrunesAndRecovers(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 6)
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ops1 := applyOps(t, d, 20, 31)
	e1, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if e1 != uint64(len(ops1)) {
		t.Fatalf("checkpoint epoch %d, want %d", e1, len(ops1))
	}
	// Idempotent: no new epochs, second checkpoint is a no-op.
	if e, err := s.Checkpoint(); err != nil || e != e1 {
		t.Fatalf("repeat checkpoint: epoch %d err %v", e, err)
	}

	applyOps(t, d, 15, 37)
	e2, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 5, 41)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Layout: exactly KeepSnapshots=2 snapshots (epochs e1, e2), CURRENT
	// names the newest, and the initial segment (wholly ≤ e1) is pruned.
	snaps, _ := filepath.Glob(filepath.Join(dir, "snapshot-*.qbss"))
	if len(snaps) != 2 {
		t.Fatalf("kept %d snapshots %v, want 2", len(snaps), snaps)
	}
	cur, err := os.ReadFile(filepath.Join(dir, currentFile))
	if err != nil {
		t.Fatal(err)
	}
	if want := snapshotFileName(e2) + "\n"; string(cur) != want {
		t.Fatalf("CURRENT = %q, want %q", cur, want)
	}
	if _, err := os.Stat(filepath.Join(walDir(dir), segmentFileName(1))); !os.IsNotExist(err) {
		t.Fatalf("segment 1 should have been pruned (err=%v)", err)
	}

	s2, err := Open(dir, Options{Dynamic: dynamic.Options{CompactFraction: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	requireStateEqual(t, d.Persistent(), s2.Index().Persistent())
}

// TestFallbackToOlderSnapshot corrupts the newest snapshot; recovery
// must fall back to the previous generation and replay a longer WAL
// suffix to the same final state.
func TestFallbackToOlderSnapshot(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 6)
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 10, 43)
	if _, err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 10, 47)
	e2, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 4, 53)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the newest snapshot's payload region.
	newest := filepath.Join(dir, snapshotFileName(e2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Dynamic: dynamic.Options{CompactFraction: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	requireStateEqual(t, d.Persistent(), s2.Index().Persistent())
}

// TestCompactionRecordReplay checkpoints nothing but logs a compaction
// epoch; recovery must replay the record and land on the same epoch and
// state — its overlay folded where the live one was, so the two carry
// the same overridden vertices.
func TestCompactionRecordReplay(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 6)
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 8, 59)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 8, 61)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Dynamic: dynamic.Options{CompactFraction: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	requireStateEqual(t, d.Persistent(), s2.Index().Persistent())
	if live, rec := d.CurrentGraph().Overridden(), s2.Index().CurrentGraph().Overridden(); live != rec {
		t.Fatalf("%d overridden vertices live, %d after recovery", live, rec)
	}
}

// TestOutOfSequenceLogFailsOpen: recovery replays strictly. A store
// whose snapshot is at epoch 3 and whose log then runs 4, 5, 6, 4 fails
// to open, read-only and writable, naming the record out of sequence,
// and the writable attempt leaves every file as it was.
func TestOutOfSequenceLogFailsOpen(t *testing.T) {
	dir := t.TempDir()
	d := newDynamic(t, testGraph(t), 4)
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 3, 71)
	if epoch, err := s.Checkpoint(); err != nil || epoch != 3 {
		t.Fatalf("checkpoint at epoch %d: %v", epoch, err)
	}
	next := applyOps(t, d, 3, 72)[0]
	rec := dynamic.Record{Epoch: 4, U: next.u, W: next.w, Op: dynamic.OpInsert}
	if !next.insert {
		rec.Op = dynamic.OpDelete
	}
	if err := s.Log(rec); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	before := dirListing(t, dir)
	for _, ro := range []bool{true, false} {
		st, err := Open(dir, Options{ReadOnly: ro, Dynamic: dynamic.Options{CompactFraction: -1}})
		if err == nil {
			st.Close()
			t.Fatalf("read-only=%v: a log running 4, 5, 6, 4 opened at epoch %d", ro, st.Index().Epoch())
		}
		if !strings.Contains(err.Error(), "replay epoch 4 does not follow current epoch 6") {
			t.Fatalf("read-only=%v: %v", ro, err)
		}
	}
	if after := dirListing(t, dir); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("a failed open changed the directory:\n before %v\n after  %v", before, after)
	}
}

// TestConcurrentWritesDuringCheckpoint hammers the index with writers
// while checkpoints run — the -race CI coverage for the checkpoint
// path. Afterwards, a reopen must reproduce the final live state.
func TestConcurrentWritesDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 6)
	s, err := Create(dir, d, Options{SyncEvery: 8})
	if err != nil {
		t.Fatal(err)
	}

	const writers = 4
	var wg sync.WaitGroup
	for wid := 0; wid < writers; wid++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			n := d.NumVertices()
			for i := 0; i < 40; i++ {
				u := graph.V(rng.Intn(n))
				w := graph.V(rng.Intn(n))
				if u == w {
					continue
				}
				_, _ = d.ApplyEdge(u, w, !d.HasEdge(u, w))
			}
		}(int64(100 + wid))
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			if _, err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Dynamic: dynamic.Options{CompactFraction: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	requireStateEqual(t, d.Persistent(), s2.Index().Persistent())
}

func TestReadOnlyOpen(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 6)
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 10, 67)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	before := dirListing(t, dir)
	s2, err := Open(dir, Options{ReadOnly: true, Dynamic: dynamic.Options{CompactFraction: -1}})
	if err != nil {
		t.Fatal(err)
	}
	requireStateEqual(t, d.Persistent(), s2.Index().Persistent())
	if _, err := s2.Checkpoint(); err != ErrReadOnly {
		t.Fatalf("read-only checkpoint: %v", err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	if after := dirListing(t, dir); !slicesEqual(before, after) {
		t.Fatalf("read-only open changed the data dir:\n%v\n%v", before, after)
	}
}

// TestWritableOpenExcluded: a live writable store must reject a second
// writable open (which would truncate segments the first process is
// appending to) while still admitting read-only opens.
func TestWritableOpenExcluded(t *testing.T) {
	if runtime.GOOS != "linux" && runtime.GOOS != "darwin" {
		t.Skip("flock-based exclusion is unix-only")
	}
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 4)
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("second writable open of a live store succeeded")
	}
	ro, err := Open(dir, Options{ReadOnly: true})
	if err != nil {
		t.Fatalf("read-only open of a live store: %v", err)
	}
	_ = ro.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("writable open after close: %v", err)
	}
	_ = s2.Close()
}

// TestDamagedSnapshotRetired: after a fallback recovery, the corrupt
// newer snapshot must not count as an intact generation — a writable
// open deletes it, and a subsequent checkpoint keeps the valid fallback
// rather than retiring it in favour of garbage.
func TestDamagedSnapshotRetired(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 6)
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 8, 71)
	e1, err := s.Checkpoint() // snapshots now: 0, e1
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 8, 73)
	e2, err := s.Checkpoint() // snapshots now: e1, e2
	if err != nil {
		t.Fatal(err)
	}
	applyOps(t, d, 4, 79)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	newest := filepath.Join(dir, snapshotFileName(e2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0xff
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{Dynamic: dynamic.Options{CompactFraction: -1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot %s not retired by writable open (err=%v)", newest, err)
	}
	retired := false
	for _, ev := range obs.DefaultJournal.Recent(0, obs.LevelDebug, "store") {
		a := ev.View().Attrs
		retired = retired || (ev.Event == "snapshot_retired" && a["file"] == snapshotFileName(e2) && a["reason"] == "damaged")
	}
	if !retired {
		t.Fatalf("no store/snapshot_retired event for %s", snapshotFileName(e2))
	}
	requireStateEqual(t, d.Persistent(), s2.Index().Persistent())

	// Checkpoint after the fallback: the intact e1 generation must be the
	// one retained alongside the new snapshot, and recovery must still
	// work if the new snapshot is damaged too.
	applyOps(t, s2.Index(), 3, 83)
	e3, err := s2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, snapshotFileName(e1))); err != nil {
		t.Fatalf("intact fallback snapshot %d was pruned: %v", e1, err)
	}
	live := s2.Index().Persistent()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(filepath.Join(dir, snapshotFileName(e3)))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(filepath.Join(dir, snapshotFileName(e3)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	s3, err := Open(dir, Options{Dynamic: dynamic.Options{CompactFraction: -1}})
	if err != nil {
		t.Fatalf("recovery from intact fallback failed: %v", err)
	}
	defer s3.Close()
	requireStateEqual(t, live, s3.Index().Persistent())
}

func TestCreateRefusesExisting(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	d := newDynamic(t, g, 4)
	s, err := Create(dir, d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Close()
	if _, err := Create(dir, newDynamic(t, g, 4), Options{}); err == nil {
		t.Fatal("second Create on the same dir succeeded")
	}
}

// dirListing returns a stable "<relpath> <size>" inventory of a tree.
func dirListing(t testing.TB, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.Walk(dir, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, p)
		out = append(out, fmt.Sprintf("%s %d", rel, fi.Size()))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// copyTree copies a data dir (flat files + wal subdir) for
// crash-simulation tests.
func copyTree(t testing.TB, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(p string, fi os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, p)
		target := filepath.Join(dst, rel)
		if fi.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, fi.Mode())
	})
	if err != nil {
		t.Fatal(err)
	}
}

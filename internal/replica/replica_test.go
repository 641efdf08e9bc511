package replica

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qbs"
	"qbs/internal/dynamic"
	"qbs/internal/graph"
	"qbs/internal/obs"
	"qbs/internal/server"
	"qbs/internal/store"
)

// primaryFixture is an in-process primary: a durable dynamic index, its
// store, and an HTTP server exposing both the serving API and the
// replication feed — the exact composition qbs-server -primary runs.
type primaryFixture struct {
	g  *graph.Graph
	d  *dynamic.Index
	st *store.Store
	pr *Primary
	ts *httptest.Server
}

func newPrimaryFixture(t *testing.T, segBytes int64, popts PrimaryOptions) *primaryFixture {
	t.Helper()
	g := graph.BarabasiAlbert(300, 3, 7)
	d, err := dynamic.New(g, g.TopDegreeVertices(8), dynamic.Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(t.TempDir(), d, store.Options{SegmentBytes: segBytes, SyncEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	pr := NewPrimary(st, popts)
	t.Cleanup(pr.Close)
	mux := http.NewServeMux()
	mux.Handle("/replication/", pr)
	mux.Handle("/", server.NewMutable(qbs.AdoptDynamic(d)))
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return &primaryFixture{g: g, d: d, st: st, pr: pr, ts: ts}
}

// mutate drives count deterministic valid edge mutations against the
// primary index.
func (p *primaryFixture) mutate(t *testing.T, count int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := p.d.NumVertices()
	for applied := 0; applied < count; {
		u := graph.V(rng.Intn(n))
		w := graph.V(rng.Intn(n))
		if u == w {
			continue
		}
		res, err := p.d.ApplyEdge(u, w, !p.d.HasEdge(u, w))
		if err != nil {
			t.Fatal(err)
		}
		if res.Applied {
			applied++
		}
	}
}

func startReplica(t *testing.T, primaryURL string, opts Options) *Replica {
	t.Helper()
	if opts.PollInterval == 0 {
		opts.PollInterval = 2 * time.Millisecond
	}
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	rep, err := Start(primaryURL, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	return rep
}

func waitFor(t *testing.T, timeout time.Duration, what string, ok func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if ok() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// journaled reports whether j holds a (component, event) record whose
// attr key is val.
func journaled(j *obs.Journal, component, event, key, val string) bool {
	for _, ev := range j.Recent(0, obs.LevelDebug, component) {
		if ev.Event == event && ev.View().Attrs[key] == val {
			return true
		}
	}
	return false
}

// assertBitIdentical compares the full persistent state of two dynamic
// indexes: epoch, landmarks, every label and distance column, σ, Δ and
// the (order-normalised) edge set.
func assertBitIdentical(t *testing.T, want, got *dynamic.Index) {
	t.Helper()
	pw, pg := want.Persistent(), got.Persistent()
	if pw.Epoch != pg.Epoch {
		t.Fatalf("epoch diverged: primary %d, replica %d", pw.Epoch, pg.Epoch)
	}
	if !slices.Equal(pw.Landmarks, pg.Landmarks) {
		t.Fatalf("landmarks diverged")
	}
	if !bytes.Equal(pw.Sigma, pg.Sigma) {
		t.Fatalf("sigma diverged at epoch %d", pw.Epoch)
	}
	if len(pw.Labels) != len(pg.Labels) || len(pw.Dists) != len(pg.Dists) {
		t.Fatalf("column counts diverged")
	}
	for r := range pw.Labels {
		if !bytes.Equal(pw.Labels[r], pg.Labels[r]) {
			t.Fatalf("label column %d diverged at epoch %d", r, pw.Epoch)
		}
		if !slices.Equal(pw.Dists[r], pg.Dists[r]) {
			t.Fatalf("distance column %d diverged at epoch %d", r, pw.Epoch)
		}
	}
	if len(pw.Delta) != len(pg.Delta) {
		t.Fatalf("delta arity diverged: %d vs %d", len(pw.Delta), len(pg.Delta))
	}
	for k := range pw.Delta {
		if len(pw.Delta[k]) != len(pg.Delta[k]) {
			t.Fatalf("delta[%d] length diverged", k)
		}
		for i := range pw.Delta[k] {
			if pw.Delta[k][i] != pg.Delta[k][i] {
				t.Fatalf("delta[%d][%d] diverged", k, i)
			}
		}
	}
	ew, eg := pw.Graph.Edges(), pg.Graph.Edges()
	norm := func(es []graph.Edge) {
		slices.SortFunc(es, func(a, b graph.Edge) int {
			if a.U != b.U {
				return int(a.U - b.U)
			}
			return int(a.W - b.W)
		})
	}
	norm(ew)
	norm(eg)
	if !slices.Equal(ew, eg) {
		t.Fatalf("edge sets diverged: %d vs %d edges", len(ew), len(eg))
	}
}

// TestReplicaConvergesBitIdentical is the acceptance-criterion test: a
// replica tails the primary through >1k mutations, ≥2 compaction epochs
// and ≥2 checkpoints (forcing segment rotation and pruning with the
// replica's lease registered) and lands bit-identical — same epoch,
// labels, σ, Δ and edge set — with its overlay folded at the same
// compactions, so it carries the primary's overridden vertices.
func TestReplicaConvergesBitIdentical(t *testing.T) {
	p := newPrimaryFixture(t, 8<<10, PrimaryOptions{})
	rep := startReplica(t, p.ts.URL, Options{})

	for phase := 0; phase < 3; phase++ {
		p.mutate(t, 350, int64(100+phase))
		if err := p.d.Compact(); err != nil {
			t.Fatal(err)
		}
		if _, err := p.st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	p.mutate(t, 50, 999)
	target := p.d.Epoch()
	if target < 1050 {
		t.Fatalf("primary only reached epoch %d, want > 1050", target)
	}

	waitFor(t, 60*time.Second, "replica to converge", func() bool { return rep.Epoch() == p.d.Epoch() })
	assertBitIdentical(t, p.d, rep.Dynamic())
	if pri, rp := p.d.CurrentGraph().Overridden(), rep.Dynamic().CurrentGraph().Overridden(); pri != rp {
		t.Fatalf("%d overridden vertices on the primary, %d on the replica", pri, rp)
	}

	// Lag must read as zero once converged.
	st := rep.Status()
	if st.PrimaryEpoch < st.Epoch || st.LagBytes < 0 {
		t.Fatalf("bad status after convergence: %+v", st)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("tail loop unhealthy after convergence: %v", err)
	}
}

// TestReplicaServesReads exercises the replica's HTTP surface: reads
// answer with the primary's values, min_epoch gates with 503 +
// Retry-After until the replica catches up, /metrics reports lag, and
// the start was journaled.
func TestReplicaServesReads(t *testing.T) {
	p := newPrimaryFixture(t, 0, PrimaryOptions{})
	j := obs.NewJournal(64, nil)
	rep := startReplica(t, p.ts.URL, Options{Journal: j})
	if !journaled(j, "replica", "bootstrap", "replica", rep.opts.ID) {
		t.Fatalf("no replica/bootstrap event for %s: %+v", rep.opts.ID, j.Recent(0, obs.LevelDebug, ""))
	}
	p.mutate(t, 100, 42)
	waitFor(t, 30*time.Second, "replica to converge", func() bool { return rep.Epoch() == p.d.Epoch() })

	h := rep.Handler()
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	rec := get("/distance?u=0&v=5")
	if rec.Code != 200 {
		t.Fatalf("/distance: %d %s", rec.Code, rec.Body)
	}
	var dist struct {
		Distance *int32 `json:"distance"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &dist); err != nil {
		t.Fatal(err)
	}
	want := p.d.Distance(0, 5)
	if dist.Distance == nil || *dist.Distance != want {
		t.Fatalf("replica distance %v, primary %d", dist.Distance, want)
	}

	// A min_epoch the replica already satisfies answers normally …
	if rec := get(fmt.Sprintf("/spg?u=0&v=5&min_epoch=%d", rep.Epoch())); rec.Code != 200 {
		t.Fatalf("satisfied min_epoch: %d", rec.Code)
	}
	// … a future one gets 503 + Retry-After.
	rec = get(fmt.Sprintf("/spg?u=0&v=5&min_epoch=%d", rep.Epoch()+1000))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("future min_epoch: %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}

	// The primary is idle: the replica's view of the tip is its own
	// epoch, so the lag series read zero.
	wantLines(t, promText(t, get("/metrics")),
		fmt.Sprintf("qbs_epoch %d", rep.Epoch()),
		fmt.Sprintf("qbs_replica_primary_epoch %d", p.d.Epoch()),
		"qbs_replica_lag_epochs 0",
		"qbs_replica_lag_bytes 0",
		`qbs_http_requests_total{endpoint="/distance"} 1`,
	)
	// Writes must not exist on a replica.
	recW := httptest.NewRecorder()
	h.ServeHTTP(recW, httptest.NewRequest("POST", "/edges", strings.NewReader(`{"u":0,"v":5}`)))
	if recW.Code == 200 {
		t.Fatal("replica accepted a write")
	}
}

// TestReplicaResumesMidTail kills the replica's connection to the
// primary mid-stream (a flaky proxy starts failing every request) and
// verifies the tail resumes from the last applied epoch and converges
// bit-identically once the link heals.
func TestReplicaResumesMidTail(t *testing.T) {
	p := newPrimaryFixture(t, 8<<10, PrimaryOptions{})

	target, err := url.Parse(p.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	proxy := httputil.NewSingleHostReverseProxy(target)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "link down", http.StatusBadGateway)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	j := obs.NewJournal(256, nil)
	rep := startReplica(t, flaky.URL, Options{Journal: j})
	p.mutate(t, 200, 1)
	waitFor(t, 30*time.Second, "replica to catch up pre-outage", func() bool { return rep.Epoch() == p.d.Epoch() })

	down.Store(true)
	p.mutate(t, 200, 2)
	if err := p.d.Compact(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "tail loop to notice the outage", func() bool { return rep.Err() != nil })
	// With the link down the replica must hold position. (A poll that
	// slipped past the proxy check before the cut may have delivered a
	// little extra first — what matters is no progress during the
	// outage, and resuming exactly from wherever it parked.)
	parked := rep.Epoch()
	time.Sleep(50 * time.Millisecond)
	if rep.Epoch() != parked {
		t.Fatalf("replica advanced from %d to %d during the outage", parked, rep.Epoch())
	}

	if journaled(j, "replica", "tail_recovered", "replica", rep.opts.ID) {
		t.Fatal("replica/tail_recovered journaled while the link is down")
	}

	down.Store(false)
	waitFor(t, 30*time.Second, "replica to converge post-outage", func() bool { return rep.Epoch() == p.d.Epoch() })
	assertBitIdentical(t, p.d, rep.Dynamic())
	// The outage and its end are one error and one recovery record.
	if !journaled(j, "replica", "tail_error", "replica", rep.opts.ID) {
		t.Fatal("no replica/tail_error event for the outage")
	}
	waitFor(t, 10*time.Second, "replica/tail_recovered event", func() bool {
		return journaled(j, "replica", "tail_recovered", "replica", rep.opts.ID)
	})
}

// TestReplicaRestartReBootstraps stops a replica entirely, lets the
// primary move on (including a checkpoint), then starts a fresh replica
// in the same cache dir — the killed-process shape — and verifies it
// converges bit-identically.
func TestReplicaRestartReBootstraps(t *testing.T) {
	p := newPrimaryFixture(t, 8<<10, PrimaryOptions{})
	dir := t.TempDir()

	rep := startReplica(t, p.ts.URL, Options{Dir: dir})
	p.mutate(t, 150, 3)
	waitFor(t, 30*time.Second, "first replica to converge", func() bool { return rep.Epoch() == p.d.Epoch() })
	rep.Stop()

	p.mutate(t, 150, 4)
	if _, err := p.st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p.mutate(t, 50, 5)

	rep2 := startReplica(t, p.ts.URL, Options{Dir: dir})
	waitFor(t, 30*time.Second, "restarted replica to converge", func() bool { return rep2.Epoch() == p.d.Epoch() })
	assertBitIdentical(t, p.d, rep2.Dynamic())
}

// TestRetentionHoldsLiveLease pins the satellite retention contract:
// while a replica's lease is live, checkpoints must not prune the log
// suffix it still needs — even across multiple snapshot generations.
func TestRetentionHoldsLiveLease(t *testing.T) {
	p := newPrimaryFixture(t, 4<<10, PrimaryOptions{LeaseTTL: time.Hour})

	// Replica A converges, then stalls (stops polling, lease left live).
	repA := startReplica(t, p.ts.URL, Options{})
	p.mutate(t, 100, 6)
	waitFor(t, 30*time.Second, "replica A to converge", func() bool { return repA.Epoch() == p.d.Epoch() })
	stalledAt := repA.Epoch()
	repA.Stop()

	// Replica B keeps polling throughout; its renewals recompute the
	// floor, which must stay parked at A's position.
	repB := startReplica(t, p.ts.URL, Options{})
	for i := 0; i < 2; i++ {
		p.mutate(t, 200, int64(7+i))
		if _, err := p.st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, "replica B to converge", func() bool { return repB.Epoch() == p.d.Epoch() })

	if readGap(t, p.st, stalledAt) {
		t.Fatalf("log pruned past a live lease at epoch %d", stalledAt)
	}
}

// TestRetentionReleasesExpiredLease is the other half: once a stalled
// replica's lease expires (another replica's renewals recompute the
// floor), checkpoints prune past it and its next fetch is told to
// re-bootstrap with 410 Gone.
func TestRetentionReleasesExpiredLease(t *testing.T) {
	p := newPrimaryFixture(t, 4<<10, PrimaryOptions{LeaseTTL: 200 * time.Millisecond})

	repA := startReplica(t, p.ts.URL, Options{})
	p.mutate(t, 100, 16)
	waitFor(t, 30*time.Second, "replica A to converge", func() bool { return repA.Epoch() == p.d.Epoch() })
	stalledAt := repA.Epoch()
	repA.Stop()

	repB := startReplica(t, p.ts.URL, Options{})
	waitFor(t, 10*time.Second, "lease A to expire", func() bool {
		_, ok := p.pr.Leases()[repA.opts.ID]
		return !ok
	})

	// Two checkpoints past A's position: the first retires the create
	// snapshot, the second prunes segments the new oldest snapshot
	// covers — including A's successor records. B must converge (and
	// renew its lease at its new position) before each checkpoint, or
	// its own live lease would rightly park the floor at wherever its
	// replay has reached.
	for i := 0; i < 2; i++ {
		p.mutate(t, 200, int64(17+i))
		waitFor(t, 30*time.Second, "replica B to converge", func() bool { return repB.Epoch() == p.d.Epoch() })
		waitFor(t, 10*time.Second, "lease B to renew past A", func() bool {
			return p.pr.Leases()[repB.opts.ID] > stalledAt
		})
		if _, err := p.st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if !readGap(t, p.st, stalledAt) {
		t.Fatalf("log retained epoch %d after lease expiry and two checkpoints", stalledAt)
	}

	// The stalled replica's next fetch must be told to re-bootstrap.
	resp, err := http.Get(fmt.Sprintf("%s%s?from=%d", p.ts.URL, walPath, stalledAt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("wal fetch past pruned epoch: %d, want 410", resp.StatusCode)
	}
	waitFor(t, 30*time.Second, "replica B to stay converged", func() bool { return repB.Epoch() == p.d.Epoch() })
}

// readGap reports whether the store can no longer serve the contiguous
// successor of from.
func readGap(t *testing.T, st *store.Store, from uint64) bool {
	t.Helper()
	_, _, gap, err := st.ReadWAL(from, 1<<20, func(dynamic.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	return gap
}

// TestJanitorReleasesLastLease: when the only replica dies, no renewal
// ever recomputes the floor — the janitor must expire the lease on its
// own so checkpoints can prune again.
func TestJanitorReleasesLastLease(t *testing.T) {
	p := newPrimaryFixture(t, 4<<10, PrimaryOptions{LeaseTTL: 150 * time.Millisecond})

	rep := startReplica(t, p.ts.URL, Options{})
	p.mutate(t, 100, 26)
	waitFor(t, 30*time.Second, "replica to converge", func() bool { return rep.Epoch() == p.d.Epoch() })
	stalledAt := rep.Epoch()
	rep.Stop() // the last replica is gone; nothing will renew or poll

	waitFor(t, 10*time.Second, "janitor to expire the lease", func() bool {
		return len(p.pr.Leases()) == 0
	})
	for i := 0; i < 2; i++ {
		p.mutate(t, 200, int64(27+i))
		if _, err := p.st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if !readGap(t, p.st, stalledAt) {
		t.Fatalf("WAL still pinned at epoch %d after the last lease expired", stalledAt)
	}
}

// TestWALFetchGoneWhenWriteQuiet: a fully pruned suffix must answer 410
// even when the primary is write-quiet afterwards (zero records to
// contradict the `from` cursor) — the tip published past `from` is
// proof enough that the records existed and are gone.
func TestWALFetchGoneWhenWriteQuiet(t *testing.T) {
	g := graph.BarabasiAlbert(200, 3, 9)
	d, err := dynamic.New(g, g.TopDegreeVertices(4), dynamic.Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	// KeepSnapshots 1: one checkpoint retires the create snapshot and
	// prunes every record it covers — the whole log so far.
	st, err := store.Create(t.TempDir(), d, store.Options{SegmentBytes: 2 << 10, SyncEvery: 16, KeepSnapshots: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	pr := NewPrimary(st, PrimaryOptions{})
	t.Cleanup(pr.Close)
	ts := httptest.NewServer(pr)
	t.Cleanup(ts.Close)

	rng := rand.New(rand.NewSource(29))
	for applied := 0; applied < 100; {
		u, w := graph.V(rng.Intn(200)), graph.V(rng.Intn(200))
		if u == w {
			continue
		}
		res, err := d.ApplyEdge(u, w, !d.HasEdge(u, w))
		if err != nil {
			t.Fatal(err)
		}
		if res.Applied {
			applied++
		}
	}
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// No further writes. A replica parked below the tip must get 410,
	// not an endless healthy-looking empty stream.
	resp, err := http.Get(fmt.Sprintf("%s%s?from=%d", ts.URL, walPath, d.Epoch()-50))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("write-quiet truncated fetch: status %d, want 410", resp.StatusCode)
	}
	// At the tip itself, the empty stream is legitimate.
	resp, err = http.Get(fmt.Sprintf("%s%s?from=%d", ts.URL, walPath, d.Epoch()))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tip fetch: status %d, want 200", resp.StatusCode)
	}
}

// TestParkedReplicaFailsHealth engineers the terminal 410 park — link
// cut past the lease TTL, log pruned, link restored — and verifies the
// parked replica turns its /healthz and /epoch to 503 (so routers evict
// it) while still answering queries for debugging.
func TestParkedReplicaFailsHealth(t *testing.T) {
	p := newPrimaryFixture(t, 2<<10, PrimaryOptions{LeaseTTL: 150 * time.Millisecond})

	target, err := url.Parse(p.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var down atomic.Bool
	proxy := httputil.NewSingleHostReverseProxy(target)
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if down.Load() {
			http.Error(w, "link down", http.StatusBadGateway)
			return
		}
		proxy.ServeHTTP(w, r)
	}))
	t.Cleanup(flaky.Close)

	j := obs.NewJournal(256, nil)
	rep := startReplica(t, flaky.URL, Options{Journal: j})
	p.mutate(t, 80, 31)
	waitFor(t, 30*time.Second, "replica to converge", func() bool { return rep.Epoch() == p.d.Epoch() })

	// Cut the link, let the lease die, prune past the replica.
	down.Store(true)
	waitFor(t, 10*time.Second, "lease to expire", func() bool { return len(p.pr.Leases()) == 0 })
	if !journaled(obs.DefaultJournal, "primary", "lease_expired", "replica", rep.opts.ID) {
		t.Fatalf("no primary/lease_expired event for %s", rep.opts.ID)
	}
	for i := 0; i < 2; i++ {
		p.mutate(t, 150, int64(32+i))
		if _, err := p.st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	down.Store(false)
	waitFor(t, 10*time.Second, "tail loop to park", func() bool {
		return errors.Is(rep.Err(), ErrWALTruncated)
	})
	waitFor(t, 10*time.Second, "replica/wal_truncated event", func() bool {
		return journaled(j, "replica", "wal_truncated", "replica", rep.opts.ID)
	})

	h := rep.Handler()
	probe := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	if c := probe("/healthz"); c != http.StatusServiceUnavailable {
		t.Fatalf("parked replica /healthz = %d, want 503", c)
	}
	if c := probe("/epoch"); c != http.StatusServiceUnavailable {
		t.Fatalf("parked replica /epoch = %d, want 503", c)
	}
	if c := probe("/distance?u=0&v=5"); c != http.StatusOK {
		t.Fatalf("parked replica /distance = %d, want 200 (debugging stays up)", c)
	}
}

// TestRouterPassesThrough503WhenAllBehind: when every backend answers
// 503 the router must preserve the retriable 503 + Retry-After signal,
// not flatten it into a terminal 502.
func TestRouterPassesThrough503WhenAllBehind(t *testing.T) {
	prim := newFakeBackend(t, "primary", 10)
	r1 := newFakeBackend(t, "r1", 10)
	prim.fail503.Store(true)
	r1.fail503.Store(true)
	rt := NewRouter(prim.ts.URL, []string{r1.ts.URL}, RouterOptions{
		HealthInterval: 20 * time.Millisecond, Seed: 4,
	})
	defer rt.Stop()

	rec := routeGet(t, rt, "/spg?u=0&v=1&min_epoch=999")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("all-behind read: status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("router 503 without Retry-After")
	}
}

// TestCaughtUpTailNoSpurious410UnderWrites is the regression test for
// the durability-horizon race: a caught-up replica polling at the
// durable tip while writes land concurrently must never be told the log
// was pruned (nothing is pruned here — no checkpoints run). The old
// check re-read DurableEpoch() after ReadWAL's scan, so a write fsynced
// mid-scan made an empty-but-current poll look like a gap and 410-parked
// a healthy replica. SyncEvery=1 keeps the durable horizon moving with
// every append, and the pollers hit the handler in-process so the
// poll-at-tip rate is high enough to fall into the scan window.
func TestCaughtUpTailNoSpurious410UnderWrites(t *testing.T) {
	g := graph.BarabasiAlbert(300, 3, 7)
	d, err := dynamic.New(g, g.TopDegreeVertices(8), dynamic.Options{CompactFraction: -1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Create(t.TempDir(), d, store.Options{SegmentBytes: 64 << 10, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	pr := NewPrimary(st, PrimaryOptions{})
	t.Cleanup(pr.Close)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(99))
		n := d.NumVertices()
		for {
			select {
			case <-stop:
				return
			default:
			}
			u, w := graph.V(rng.Intn(n)), graph.V(rng.Intn(n))
			if u == w {
				continue
			}
			if _, err := d.ApplyEdge(u, w, !d.HasEdge(u, w)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() {
		select {
		case <-stop:
		default:
			close(stop)
		}
		<-done
	}()

	var wg sync.WaitGroup
	var spurious atomic.Int64
	for poller := 0; poller < 4; poller++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1500; i++ {
				from := st.DurableEpoch()
				rec := httptest.NewRecorder()
				pr.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("%s?from=%d", walPath, from), nil))
				switch rec.Code {
				case http.StatusOK:
				case http.StatusGone:
					spurious.Add(1)
					return
				default:
					t.Errorf("wal fetch from %d: status %d", from, rec.Code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := spurious.Load(); n != 0 {
		t.Fatalf("%d spurious 410s polling at the durable tip under concurrent writes", n)
	}
}

// TestPersistentTailFailureFailsHealth: a replica whose tail loop keeps
// failing for a non-410 reason (here: the primary vanished) must stop
// passing /healthz and /epoch once the grace window elapses — otherwise
// the router keeps routing to a replica that silently stopped advancing
// — while the query endpoints stay up for debugging.
func TestPersistentTailFailureFailsHealth(t *testing.T) {
	p := newPrimaryFixture(t, 4<<10, PrimaryOptions{})
	rep := startReplica(t, p.ts.URL, Options{})
	p.mutate(t, 50, 41)
	waitFor(t, 30*time.Second, "replica to converge", func() bool { return rep.Epoch() == p.d.Epoch() })

	h := rep.Handler()
	probe := func(path string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec.Code
	}
	if c := probe("/healthz"); c != http.StatusOK {
		t.Fatalf("healthy replica /healthz = %d, want 200", c)
	}

	p.ts.Close() // primary gone: every poll now fails with a transport error
	waitFor(t, 30*time.Second, "tail loop to start failing", func() bool {
		err := rep.Err()
		return err != nil && !errors.Is(err, ErrWALTruncated)
	})
	waitFor(t, 30*time.Second, "persistent failure to fail health", func() bool {
		return probe("/healthz") == http.StatusServiceUnavailable
	})
	if c := probe("/epoch"); c != http.StatusServiceUnavailable {
		t.Fatalf("failing replica /epoch = %d, want 503", c)
	}
	if c := probe("/distance?u=0&v=5"); c != http.StatusOK {
		t.Fatalf("failing replica /distance = %d, want 200 (debugging stays up)", c)
	}
}

// TestLocalWriteOnReplicaFailsHealth: a write that reaches a replica's
// index outside its tail loop diverges it from the primary. The loop
// polls from the epoch it replayed to, so the primary's next record
// meets an index already past it; strict replay refuses it, the poll
// returns that error, and /healthz turns 503 after the grace window
// instead of the replica serving the diverged index as current.
func TestLocalWriteOnReplicaFailsHealth(t *testing.T) {
	p := newPrimaryFixture(t, 4<<10, PrimaryOptions{})
	rep := startReplica(t, p.ts.URL, Options{})
	p.mutate(t, 20, 43)
	waitFor(t, 30*time.Second, "replica to converge", func() bool { return rep.Epoch() == p.d.Epoch() })

	d := rep.Dynamic()
	for u := graph.V(0); ; u++ {
		if res, err := d.ApplyEdge(u, u+1, !d.HasEdge(u, u+1)); err == nil && res.Applied {
			break
		}
	}
	p.mutate(t, 1, 44)
	waitFor(t, 30*time.Second, "the poll after the primary's write to fail", func() bool {
		err := rep.Err()
		return err != nil && strings.Contains(err.Error(), "does not follow")
	})
	h := rep.Handler()
	waitFor(t, 30*time.Second, "the diverged replica to fail health", func() bool {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		return rec.Code == http.StatusServiceUnavailable
	})
}

// TestPrimaryCloseReleasesRetention: Close must drop every lease and
// lift the store's pruning floor — with the janitor stopped nothing
// would ever expire a lease again, and a parked floor would pin WAL
// segments (and disk growth) forever.
func TestPrimaryCloseReleasesRetention(t *testing.T) {
	p := newPrimaryFixture(t, 1<<10, PrimaryOptions{})

	// Register a lease at epoch 0 via an ordinary WAL fetch.
	resp, err := http.Get(p.ts.URL + walPath + "?from=0&replica=pinner")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("lease-registering fetch: status %d", resp.StatusCode)
	}
	if got := p.pr.Leases(); len(got) != 1 || got["pinner"] != 0 {
		t.Fatalf("leases after fetch: %v", got)
	}

	p.pr.Close()
	if got := p.pr.Leases(); len(got) != 0 {
		t.Fatalf("leases survived Close: %v", got)
	}

	// With the floor lifted, checkpoints prune past the dead lease; a
	// post-Close fetch must not re-pin retention either.
	resp, err = http.Get(p.ts.URL + walPath + "?from=0&replica=late-pinner")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if got := p.pr.Leases(); len(got) != 0 {
		t.Fatalf("closed primary granted a lease: %v", got)
	}
	p.mutate(t, 120, 61)
	if _, err := p.st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	p.mutate(t, 120, 62)
	if _, err := p.st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if !readGap(t, p.st, 0) {
		t.Fatal("WAL still retained from epoch 0: Close left the pruning floor parked")
	}
}

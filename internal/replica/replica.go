package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qbs"
	"qbs/internal/dynamic"
	"qbs/internal/obs"
	"qbs/internal/server"
	"qbs/internal/store"
)

// ErrWALTruncated reports that the primary pruned past this replica's
// position (410 Gone from /replication/wal): tailing cannot continue
// and the replica must be restarted to re-bootstrap from a snapshot.
var ErrWALTruncated = errors.New("replica: primary pruned past our epoch; re-bootstrap required")

// Options tunes a read replica.
type Options struct {
	// Dir caches the bootstrap snapshot (a temp dir when empty).
	Dir string
	// ID names this replica in the primary's retention leases (a
	// host/pid-derived id when empty).
	ID string
	// MMap maps the bootstrap snapshot instead of reading it.
	MMap bool
	// PollInterval is the WAL tail poll cadence (0 = 25ms); it bounds
	// steady-state replication lag.
	PollInterval time.Duration
	// Client issues the replication requests (nil = a client with dial
	// and response-header timeouts but no overall deadline: the snapshot
	// bootstrap streams an arbitrarily large body, and a whole-request
	// timeout would cut it off mid-transfer — the very case the lease
	// keepalive exists to survive. Tail polls are separately bounded by
	// tailPollTimeout). A custom client with an overall Timeout caps the
	// bootstrap download at that timeout.
	Client *http.Client
	// Journal receives the replica's structured events (bootstrap,
	// tail errors, terminal parks); nil = obs.DefaultJournal.
	Journal *obs.Journal
	// SlowLog sets the serving mux's slow-query log threshold
	// (0 = the server's 100ms default), mirroring qbs-server -slowlog.
	SlowLog time.Duration
}

func (o Options) withDefaults() Options {
	if o.PollInterval <= 0 {
		o.PollInterval = 25 * time.Millisecond
	}
	if o.Client == nil {
		o.Client = &http.Client{Transport: &http.Transport{
			DialContext:           (&net.Dialer{Timeout: 10 * time.Second}).DialContext,
			TLSHandshakeTimeout:   10 * time.Second,
			ResponseHeaderTimeout: 30 * time.Second,
		}}
	}
	if o.ID == "" {
		o.ID = fmt.Sprintf("replica-%d-%d", os.Getpid(), time.Now().UnixNano())
	}
	if o.Journal == nil {
		o.Journal = obs.DefaultJournal
	}
	return o
}

// bootstrapKeepaliveTick is how often a bootstrapping replica renews
// its retention lease while the snapshot downloads and restores.
// PrimaryOptions.LeaseTTL values below a few of these ticks can expire
// the lease mid-bootstrap and 410-park the replica on its first poll.
const bootstrapKeepaliveTick = 2 * time.Second

// Replica is a live read replica: an index bootstrapped from the
// primary's snapshot, kept fresh by a background WAL tail loop, served
// read-only.
type Replica struct {
	primary string
	opts    Options
	dir     string // bootstrap snapshot cache
	ownDir  bool   // dir was auto-created; removed on Stop
	d       *dynamic.Index
	qd      *qbs.DynamicIndex

	at           uint64        // epoch the tail loop has replayed to; only the loop touches it
	tip          atomic.Uint64 // primary epoch from the last poll
	fetched      atomic.Uint64 // records applied over the replica's lifetime
	failing      atomic.Pointer[error]
	failingSince atomic.Int64 // unix nanos of the first poll failure in the current streak (0 = healthy)

	// Apply-path series on the replica's own registry, stacked onto the
	// serving mux's Prometheus exposition by Handler().
	reg     *obs.Registry
	applyNs *obs.Histogram // Replay latency per non-empty batch
	applied *obs.Counter   // WAL records applied

	// Structured events: the tail loop's failure and recovery
	// transitions, which previously only surfaced as a health-check
	// flip with the error string lost.
	journal       *obs.Journal
	evBootstrap   *obs.EventDef
	evTailError   *obs.EventDef
	evTailRecover *obs.EventDef
	evParked      *obs.EventDef

	stop chan struct{}
	wg   sync.WaitGroup
}

// Journal returns the journal the replica's events land in.
func (r *Replica) Journal() *obs.Journal { return r.journal }

// Registry returns the replica's metrics registry (apply-batch latency
// and applied-record series).
func (r *Replica) Registry() *obs.Registry { return r.reg }

// Start bootstraps a replica of the primary at primaryURL — fetches the
// newest snapshot, loads it with the zero-copy snapshot loader, and
// begins tailing the WAL — and returns once the replica is serving
// (possibly still behind; see Status for lag).
func Start(primaryURL string, opts Options) (*Replica, error) {
	opts = opts.withDefaults()
	primaryURL = strings.TrimRight(primaryURL, "/")
	if _, err := url.Parse(primaryURL); err != nil {
		return nil, fmt.Errorf("replica: primary url: %w", err)
	}
	dir, ownDir := opts.Dir, false
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp("", "qbs-replica-"); err != nil {
			return nil, err
		}
		ownDir = true
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}

	cleanup := func() {
		if ownDir {
			os.RemoveAll(dir)
		}
	}
	// A bootstrap can outlast the primary's lease TTL (big snapshot,
	// slow link, long restore): keep the retention lease warm with tiny
	// WAL fetches until tailing proper takes over, or a checkpoint in
	// that window could prune the suffix this replica is about to need.
	keepStop := make(chan struct{})
	var keepWG sync.WaitGroup
	keepLease := func(epoch uint64) {
		keepWG.Add(1)
		go func() {
			defer keepWG.Done()
			// Renew well inside any sane LeaseTTL (the primary documents
			// ~3× this tick as its floor). The fetch is max=1 — one tiny
			// request per tick, only while the bootstrap is in flight.
			ticker := time.NewTicker(bootstrapKeepaliveTick)
			defer ticker.Stop()
			for {
				select {
				case <-keepStop:
					return
				case <-ticker.C:
					resp, err := opts.Client.Get(fmt.Sprintf("%s%s?from=%d&replica=%s&max=1",
						primaryURL, walPath, epoch, url.QueryEscape(opts.ID)))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						_ = resp.Body.Close()
					}
				}
			}
		}()
	}
	endKeep := func() {
		close(keepStop)
		keepWG.Wait()
	}
	path, epoch, err := fetchSnapshot(opts.Client, primaryURL, opts.ID, dir, keepLease)
	if err != nil {
		endKeep()
		cleanup()
		return nil, err
	}
	// Replicas never start a compaction: epochs are primary-owned, and
	// the overlay folds at the primary's logged compaction records.
	d, _, err := store.LoadSnapshot(path, opts.MMap, dynamic.Options{CompactFraction: -1})
	endKeep()
	if err != nil {
		cleanup()
		return nil, err
	}

	r := &Replica{
		primary: primaryURL,
		opts:    opts,
		dir:     dir,
		ownDir:  ownDir,
		d:       d,
		qd:      qbs.AdoptDynamic(d),
		at:      epoch,
		reg:     obs.NewRegistry(),
		stop:    make(chan struct{}),
	}
	r.applyNs = r.reg.Histogram("qbs_replica_apply_batch_ns", "")
	r.applied = r.reg.Counter("qbs_replica_applied_records_total", "")
	r.journal = opts.Journal
	r.evBootstrap = r.journal.Def("replica", "bootstrap", obs.LevelInfo)
	// Tail errors repeat every poll tick while the primary is down;
	// rate-limit so a long outage keeps room in the ring for other tiers.
	r.evTailError = r.journal.DefRate("replica", "tail_error", obs.LevelError, 2, 4)
	r.evTailRecover = r.journal.Def("replica", "tail_recovered", obs.LevelInfo)
	r.evParked = r.journal.Def("replica", "wal_truncated", obs.LevelError)
	r.tip.Store(epoch)
	r.evBootstrap.Emit(obs.Str("replica", opts.ID), obs.Int("epoch", int64(epoch)))
	r.wg.Add(1)
	go r.tailLoop()
	return r, nil
}

// bootstrapStallTimeout aborts a snapshot download whose body stops
// flowing: the transfer may legitimately take arbitrarily long (that is
// why the default client has no overall deadline), but a stalled-open
// connection must convert to an error — otherwise Start hangs forever
// while the lease keepalive pins the primary's WAL retention.
const bootstrapStallTimeout = 30 * time.Second

// fetchSnapshot downloads the primary's newest snapshot into dir and
// returns its path and epoch. onEpoch fires as soon as the epoch header
// arrives (before the body transfers) so the caller can start its lease
// keepalive. The write is atomic (temp file + rename) so a killed
// replica never leaves a half-written bootstrap image for its successor
// to trip over.
func fetchSnapshot(client *http.Client, primary, id, dir string, onEpoch func(uint64)) (string, uint64, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		primary+snapshotPath+"?replica="+url.QueryEscape(id), nil)
	if err != nil {
		return "", 0, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return "", 0, fmt.Errorf("replica: fetch snapshot: %w", err)
	}
	defer resp.Body.Close()
	// Watchdog: cancel the request when a full stall interval passes
	// with zero bytes of body progress.
	var progress atomic.Int64
	watchStop := make(chan struct{})
	defer close(watchStop)
	go func() {
		ticker := time.NewTicker(bootstrapStallTimeout)
		defer ticker.Stop()
		last := int64(0)
		for {
			select {
			case <-watchStop:
				return
			case <-ticker.C:
				cur := progress.Load()
				if cur == last {
					cancel()
					return
				}
				last = cur
			}
		}
	}()
	if resp.StatusCode != http.StatusOK {
		return "", 0, fmt.Errorf("replica: fetch snapshot: primary answered %s", resp.Status)
	}
	epoch, err := strconv.ParseUint(resp.Header.Get(hdrSnapshotEpoch), 10, 64)
	if err != nil {
		return "", 0, fmt.Errorf("replica: fetch snapshot: bad %s header %q", hdrSnapshotEpoch, resp.Header.Get(hdrSnapshotEpoch))
	}
	if onEpoch != nil {
		onEpoch(epoch)
	}
	final := filepath.Join(dir, "bootstrap.qbss")
	tmp, err := os.CreateTemp(dir, "bootstrap-*.qbss.tmp")
	if err != nil {
		return "", 0, err
	}
	if _, err := io.Copy(tmp, progressReader{resp.Body, &progress}); err != nil {
		_ = tmp.Close()
		os.Remove(tmp.Name())
		if ctx.Err() != nil {
			err = fmt.Errorf("no body progress for %v (stalled transfer): %w", bootstrapStallTimeout, err)
		}
		return "", 0, fmt.Errorf("replica: fetch snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", 0, err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return "", 0, err
	}
	return final, epoch, nil
}

// progressReader counts bytes through for the bootstrap stall watchdog.
type progressReader struct {
	r io.Reader
	n *atomic.Int64
}

func (p progressReader) Read(b []byte) (int, error) {
	n, err := p.r.Read(b)
	p.n.Add(int64(n))
	return n, err
}

// tailLoop polls the primary's WAL until Stop. Transient fetch errors
// are retried on the next tick — the tail resumes from the last applied
// epoch, so an interrupted replica catches up exactly where it left
// off. A 410 (pruned past us) is terminal: the loop parks with
// ErrWALTruncated and the replica keeps serving its last epoch.
func (r *Replica) tailLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.opts.PollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-ticker.C:
			for {
				select {
				case <-r.stop:
					return // don't let a long catch-up drain block Stop
				default:
				}
				pollStart := time.Now()
				n, err := r.pollOnce()
				if err != nil {
					r.failing.Store(&err)
					// The streak starts when the failing poll *started*:
					// a poll that hung before erroring already spent its
					// whole duration not advancing, and that time counts
					// against the health grace window.
					r.failingSince.CompareAndSwap(0, pollStart.UnixNano())
					if errors.Is(err, ErrWALTruncated) {
						r.evParked.Emit(obs.Str("replica", r.opts.ID), obs.Int("epoch", int64(r.d.Epoch())))
						return
					}
					r.evTailError.Emit(obs.Str("replica", r.opts.ID), obs.Str("error", err.Error()))
					break
				}
				if r.failingSince.Load() != 0 {
					r.evTailRecover.Emit(obs.Str("replica", r.opts.ID), obs.Int("epoch", int64(r.d.Epoch())))
				}
				r.failing.Store(nil)
				r.failingSince.Store(0)
				// Drained when the primary had nothing, or we have
				// reached the tip it reported. Comparing n against our
				// own batch cap would throttle catch-up to one of the
				// *primary's* (possibly smaller) batches per tick.
				if n == 0 || r.d.Epoch() >= r.tip.Load() {
					break // wait for the next tick
				}
			}
		}
	}
}

// tailPollTimeout bounds one WAL fetch end to end. The configured
// client's own timeout (default 30s) is sized for the snapshot
// download; a tail poll moves at most maxBatch small frames, and a
// black-holed primary (dropping packets, not refusing) must convert to
// a poll error quickly or the health gate's grace window never starts
// counting — this cap bounds stale-but-healthy serving to roughly
// tailPollTimeout + the grace window instead of the client timeout.
const tailPollTimeout = 5 * time.Second

// pollOnce fetches and applies one batch of records past the epoch the
// tail loop has replayed to, returning how many arrived. The loop asks
// from its own position, not from the index's epoch: a write that
// reached the index some other way then meets the primary's next record
// in Replay, which refuses it as out of sequence, and the replica fails
// its health checks instead of serving a diverged index.
func (r *Replica) pollOnce() (int, error) {
	from := r.at
	fetchStart := time.Now()
	u := fmt.Sprintf("%s%s?from=%d&replica=%s&max=%d",
		r.primary, walPath, from, url.QueryEscape(r.opts.ID), maxBatch)
	ctx, cancel := context.WithTimeout(context.Background(), tailPollTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return 0, err
	}
	resp, err := r.opts.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusGone:
		io.Copy(io.Discard, resp.Body)
		return 0, ErrWALTruncated
	default:
		io.Copy(io.Discard, resp.Body)
		return 0, fmt.Errorf("replica: wal fetch: primary answered %s", resp.Status)
	}
	if tip, err := strconv.ParseUint(resp.Header.Get(hdrWalTip), 10, 64); err == nil {
		r.tip.Store(tip)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, int64(maxBatch+1)*store.WALRecordSize))
	if err != nil {
		return 0, err
	}
	recs := make([]dynamic.Record, 0, len(body)/store.WALRecordSize)
	for off := 0; off+store.WALRecordSize <= len(body); off += store.WALRecordSize {
		rec, err := store.DecodeWALFrame(body[off:])
		if err != nil {
			return len(recs), fmt.Errorf("replica: %w", err)
		}
		recs = append(recs, rec)
	}
	if len(recs) == 0 {
		return 0, nil
	}
	// Non-empty batches get a root trace: the tail fetch and the apply
	// are its child spans, so a lagging replica's slow batches show up
	// in /debug/traces with the hop (fetch vs apply) attributed. Empty
	// polls are not traced — a 5s long-poll wait is not a slow apply.
	tb := obs.DefaultTracer.Begin("replica.apply", "", 0, false)
	defer obs.DefaultTracer.Finish(tb)
	root := tb.Root()
	root.SetStr("replica", r.opts.ID)
	root.SetInt("records", int64(len(recs)))
	root.SetInt("from_epoch", int64(from))
	tb.AddSpan("wal.fetch", fetchStart, time.Since(fetchStart))
	applyStart := time.Now()
	if err := r.d.Replay(recs); err != nil {
		tb.MarkError()
		return len(recs), fmt.Errorf("replica: apply: %w", err)
	}
	applyDur := time.Since(applyStart)
	tb.AddSpan("apply.batch", applyStart, applyDur)
	r.applyNs.Observe(applyDur)
	r.applied.Add(int64(len(recs)))
	r.at = recs[len(recs)-1].Epoch
	r.fetched.Add(uint64(len(recs)))
	return len(recs), nil
}

// Index returns the replica's serving surface (reads only are
// meaningful; it has no durable store and must not be written to).
func (r *Replica) Index() *qbs.DynamicIndex { return r.qd }

// Dynamic exposes the underlying dynamic index for white-box state
// comparisons in tests and the bench harness.
func (r *Replica) Dynamic() *dynamic.Index { return r.d }

// Epoch returns the last epoch the replica has applied and published.
func (r *Replica) Epoch() uint64 { return r.d.Epoch() }

// Err returns the current tail-loop failure, if any (nil while the
// loop is healthy; errors.Is(err, ErrWALTruncated) once tailing has
// parked for good).
func (r *Replica) Err() error {
	if errp := r.failing.Load(); errp != nil {
		return *errp
	}
	return nil
}

// Status reports replication lag for /metrics.
func (r *Replica) Status() server.ReplicationStatus {
	epoch := r.d.Epoch()
	tip := r.tip.Load()
	if tip < epoch {
		tip = epoch
	}
	return server.ReplicationStatus{
		PrimaryEpoch: tip,
		Epoch:        epoch,
		LagBytes:     int64(tip-epoch) * store.WALRecordSize,
	}
}

// unhealthyAfter is how long the tail loop may fail continuously before
// the replica stops passing health checks: a grace window for transient
// primary hiccups (a restart, a dropped connection) so one bad poll does
// not flap the routing table. Worst-case detection of a stopped replica
// is tailPollTimeout (a hanging poll must first time out) plus this
// window.
func (r *Replica) unhealthyAfter() time.Duration {
	if d := 10 * r.opts.PollInterval; d > time.Second {
		return d
	}
	return time.Second
}

// unhealthy reports why the replica should fail health checks: a
// terminal park (ErrWALTruncated) immediately, or any other tail-loop
// error that has persisted past the grace window — a replica whose
// polls keep failing (apply divergence, decode errors, unreachable
// primary) has stopped advancing just as surely as a parked one, and
// must not keep answering 200 until lag-based eviction notices.
func (r *Replica) unhealthy() (error, bool) {
	err := r.Err()
	if err == nil {
		return nil, false
	}
	if errors.Is(err, ErrWALTruncated) {
		return err, true
	}
	since := r.failingSince.Load()
	return err, since != 0 && time.Since(time.Unix(0, since)) > r.unhealthyAfter()
}

// Handler returns the replica's HTTP read surface: the ordinary
// read-only dynamic API (/spg, /distance, /sketch, /paths, /stats,
// /epoch, /healthz) plus /metrics with replication lag. min_epoch
// gating comes with the server: a read the replica cannot yet answer
// consistently gets 503 + Retry-After.
//
// Once the tail loop has parked terminally (ErrWALTruncated) — or has
// been failing for longer than the grace window for any other reason —
// /healthz and /epoch turn 503 so routers and monitors take the frozen
// replica out of rotation; otherwise it would keep passing health
// checks and serve silently stale answers until drift happened to
// exceed the router's lag bound. The query endpoints stay up for direct
// debugging.
func (r *Replica) Handler() http.Handler {
	srv := server.NewDynamicReadOnly(r.qd)
	srv.SetReplicationStatus(r.Status)
	srv.AddRegistry(r.reg)
	srv.SetJournal(r.journal)
	if r.opts.SlowLog > 0 {
		srv.SetSlowLogThreshold(r.opts.SlowLog)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path == "/healthz" || req.URL.Path == "/epoch" {
			if err, bad := r.unhealthy(); bad {
				w.Header().Set("Retry-After", "1")
				httpError(w, http.StatusServiceUnavailable,
					fmt.Sprintf("replica not advancing: %v", err))
				return
			}
		}
		srv.ServeHTTP(w, req)
	})
}

// Stop ends the tail loop. The replica keeps serving its last applied
// epoch; it just stops advancing. An auto-created cache dir is removed
// (unlinking under a live arena view is safe: the mapping or heap copy
// outlives the file).
func (r *Replica) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	r.wg.Wait()
	if r.ownDir {
		os.RemoveAll(r.dir)
	}
}

package replica

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"qbs/internal/obs"
	"qbs/internal/store"
)

// evLeaseExpired records a replica retention lease lapsing: the next
// poll from that replica can land on a pruned suffix and 410-park it,
// so the expiry is the first cause in that incident chain.
var evLeaseExpired = obs.DefaultJournal.Def("primary", "lease_expired", obs.LevelWarn)

// Wire protocol constants shared by both ends.
const (
	snapshotPath = "/replication/snapshot"
	walPath      = "/replication/wal"

	hdrSnapshotEpoch = "X-Qbs-Snapshot-Epoch"
	hdrWalTip        = "X-Qbs-Wal-Tip"

	maxBatch = 1 << 16 // records per /replication/wal response, and per replica poll
)

// PrimaryOptions tunes the primary-side replication handler.
type PrimaryOptions struct {
	// LeaseTTL expires replica retention leases that stop renewing
	// (0 = 60s). An expired lease releases its WAL segments to pruning;
	// a replica that outlives its lease parks on the resulting 410 and
	// must be restarted to re-bootstrap from a fresh snapshot. Keep it
	// at several seconds or more: a bootstrapping replica renews every
	// 2s (bootstrapKeepaliveTick), and a TTL inside that cadence can
	// expire its lease mid-download.
	LeaseTTL time.Duration
}

func (o PrimaryOptions) withDefaults() PrimaryOptions {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 60 * time.Second
	}
	return o
}

// Primary serves a durable store's snapshot and WAL tail to replicas
// and keeps the store's pruning floor below every live lease. Mount it
// at /replication/ alongside the ordinary serving mux, and Close it
// when the server shuts down (it runs a lease-expiry janitor so a dead
// last replica cannot pin WAL retention forever).
type Primary struct {
	st   *store.Store
	opts PrimaryOptions
	mux  *http.ServeMux

	mu     sync.Mutex
	leases map[string]lease
	closed bool // no new retention promises after Close

	stop chan struct{}
	wg   sync.WaitGroup
}

// lease is one replica's retention claim: records with epoch > epoch
// must survive pruning until seen+TTL.
type lease struct {
	epoch uint64
	seen  time.Time
}

// NewPrimary wraps st's replication read surface in an HTTP handler.
func NewPrimary(st *store.Store, opts PrimaryOptions) *Primary {
	p := &Primary{
		st:     st,
		opts:   opts.withDefaults(),
		leases: map[string]lease{},
		stop:   make(chan struct{}),
	}
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("GET "+snapshotPath, p.handleSnapshot)
	p.mux.HandleFunc("GET "+walPath, p.handleWAL)
	p.wg.Add(1)
	go p.janitor()
	return p
}

// ServeHTTP implements http.Handler.
func (p *Primary) ServeHTTP(w http.ResponseWriter, r *http.Request) { p.mux.ServeHTTP(w, r) }

// Close stops the lease janitor and releases every retention lease,
// lifting the store's WAL pruning floor. The handler itself keeps
// answering reads, but makes no further retention promises — with the
// janitor gone nothing would ever expire a lease again, and a floor
// left parked would pin WAL segments (and disk growth) forever. A
// replica still tailing after Close may find its suffix pruned and
// re-bootstrap, exactly as if its lease had expired.
func (p *Primary) Close() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.wg.Wait()
	p.mu.Lock()
	p.closed = true
	clear(p.leases)
	p.st.SetWALRetain(^uint64(0))
	p.mu.Unlock()
}

// janitor expires leases on a timer: renewals already recompute the
// floor, but when the *last* replica goes away no renewal ever comes,
// and without this sweep its expired lease would pin WAL retention (and
// disk growth) forever.
func (p *Primary) janitor() {
	defer p.wg.Done()
	ticker := time.NewTicker(p.opts.LeaseTTL / 2)
	defer ticker.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-ticker.C:
			p.mu.Lock()
			p.refloorLocked()
			p.mu.Unlock()
		}
	}
}

// renewLease records that replica id still needs records beyond epoch,
// drops expired leases, and pushes the recomputed floor into the store.
func (p *Primary) renewLease(id string, epoch uint64) {
	if id == "" {
		return // anonymous reader: served, but not retained for
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return // the janitor is gone; a lease granted now could never expire
	}
	// id is a piece of the request, which the serving loop reuses: the
	// key, which an assignment replaces, is a copy.
	p.leases[strings.Clone(id)] = lease{epoch: epoch, seen: time.Now()}
	p.refloorLocked()
}

// refloorLocked drops expired leases and pushes the recomputed floor
// into the store. Caller holds p.mu — the store call stays inside the
// lock so two concurrent recomputations cannot apply floors out of
// order and prune past a live replica.
func (p *Primary) refloorLocked() {
	now := time.Now()
	floor := ^uint64(0)
	for rid, l := range p.leases {
		if now.Sub(l.seen) > p.opts.LeaseTTL {
			delete(p.leases, rid)
			evLeaseExpired.Emit(obs.Str("replica", rid), obs.Int("epoch", int64(l.epoch)))
			continue
		}
		if l.epoch < floor {
			floor = l.epoch
		}
	}
	p.st.SetWALRetain(floor)
}

// Leases returns the live (id, epoch) retention leases — observability
// for tests and operators. Reading the leases also sweeps expired ones
// and refreshes the store's retention floor, so what it reports is
// exactly what pruning will honour.
func (p *Primary) Leases() map[string]uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refloorLocked()
	out := make(map[string]uint64, len(p.leases))
	for id, l := range p.leases {
		out[id] = l.epoch
	}
	return out
}

func (p *Primary) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("replica")
	var (
		f     *os.File
		epoch uint64
	)
	// Resolve the newest snapshot, register the lease at its epoch, then
	// confirm it is *still* the newest before shipping it. A checkpoint
	// completing between resolve and lease can delete the chosen file
	// (KeepSnapshots overflow) or prune the post-snapshot WAL suffix the
	// lease was meant to protect; an unchanged newest epoch on re-check
	// proves no checkpoint landed in that window, so the lease provably
	// covers the shipped epoch. On a retry the checkpoint's own newer
	// snapshot is picked up instead. Once the file is open, later
	// deletion is harmless (the fd keeps the inode).
	for attempt := 0; ; attempt++ {
		path, e, err := p.st.NewestSnapshot()
		if err != nil {
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		p.renewLease(id, e)
		if _, e2, err2 := p.st.NewestSnapshot(); err2 != nil || e2 != e {
			if attempt < 8 {
				continue
			}
			if err2 != nil {
				httpError(w, http.StatusServiceUnavailable, err2.Error())
			} else {
				httpError(w, http.StatusServiceUnavailable, "snapshot churn: checkpoints outpacing bootstrap; retry")
			}
			return
		}
		f, err = os.Open(path)
		if err != nil {
			if os.IsNotExist(err) {
				// Pruned between resolve and open: the same transient
				// churn as a failed re-check — retry, and exhaust to the
				// retryable 503, not a server-fault 500.
				if attempt < 8 {
					continue
				}
				httpError(w, http.StatusServiceUnavailable, "snapshot churn: checkpoints outpacing bootstrap; retry")
				return
			}
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		epoch = e
		break
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(fi.Size(), 10))
	w.Header().Set(hdrSnapshotEpoch, strconv.FormatUint(epoch, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = io.Copy(w, f)
}

func (p *Primary) handleWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if q.Get("from") == "" {
		httpError(w, http.StatusBadRequest, "missing required parameter \"from\"")
		return
	}
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("parameter \"from\" must be a non-negative integer, got %q", q.Get("from")))
		return
	}
	max := maxBatch
	if raw := q.Get("max"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("parameter \"max\" must be a positive integer, got %q", raw))
			return
		}
		if n < max {
			max = n
		}
	}
	p.renewLease(q.Get("replica"), from)

	// Read the tip before the records: the log is written before the
	// epoch publishes, so tip read after could trail a shipped record;
	// read before, it can only undercount lag, never invert it.
	tip := p.st.Index().Epoch()
	body := make([]byte, 0, 4096)
	n, limit, gap, err := p.st.ReadWAL(from, max, func(rec store.WALRecord) error {
		body = store.EncodeWALFrame(body, rec)
		return nil
	})
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// An empty read below the durable limit is also a gap: the record for
	// from+1 was fsynced before the scan started, so if the scan cannot
	// see it, it was pruned — without this check a write-quiet primary
	// would keep answering 200/empty and the truncated replica would
	// serve stale data with a healthy-looking tail loop. The comparison
	// must use the limit the scan itself ran against: a fresher
	// DurableEpoch() read here could count a record fsynced *during* the
	// scan and 410 a perfectly caught-up replica into a permanent park.
	// (The durable limit, not the published tip: records past the
	// durability horizon are legitimately withheld, not pruned.)
	if !gap && n == 0 && limit > from {
		gap = true
	}
	if gap {
		httpError(w, http.StatusGone, fmt.Sprintf(
			"log no longer holds epoch %d (pruned); re-bootstrap from /replication/snapshot", from+1))
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.Header().Set(hdrWalTip, strconv.FormatUint(tip, 10))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// httpError writes the JSON error envelope the serving API uses. The
// message goes through the real JSON encoder: %q would emit Go escapes
// (\x1b and friends, legal in Go strings, illegal in JSON) for control
// bytes that os error strings can carry via file paths.
func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(body, '\n'))
}

package dynamic

import (
	"errors"
	"math/rand"
	"testing"

	"qbs/internal/graph"
)

// recordingLogger is an UpdateLogger that checks the logging contract
// at every call: the epoch it is asked to log is not yet visible to
// readers, and the epochs it accepts follow each other with no gap.
// With fail set, it refuses every record.
type recordingLogger struct {
	t       *testing.T
	d       *Index
	last    uint64 // last epoch accepted
	updates int
	compact int
	fail    error
}

func (l *recordingLogger) check(epoch uint64) error {
	if got := l.d.Epoch(); got != epoch-1 {
		l.t.Errorf("epoch %d logged while epoch %d is visible; want %d", epoch, got, epoch-1)
	}
	if l.fail != nil {
		return l.fail
	}
	if epoch != l.last+1 {
		l.t.Errorf("epoch %d logged after epoch %d", epoch, l.last)
	}
	l.last = epoch
	return nil
}

func (l *recordingLogger) Log(rec Record) error {
	if err := l.check(rec.Epoch); err != nil {
		return err
	}
	if rec.Op == OpCompact {
		l.compact++
	} else {
		l.updates++
	}
	return nil
}

// TestLogBeforePublish pins the UpdateLogger contract: every epoch
// advance — an edge update, an automatic compaction, a synchronous one —
// reaches the logger before readers can see it, in strictly increasing
// order with no gap; and a record the logger refuses is never published.
func TestLogBeforePublish(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomMutableGraph(60, 80, rng)
	d, err := New(g, pickLandmarks(60, 4, rng), Options{CompactFraction: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	l := &recordingLogger{t: t, d: d, last: d.Epoch()}
	d.SetLogger(l)
	for op := 0; op < 120; op++ {
		applyRandomOp(t, d, rng)
	}
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if l.last != d.Epoch() || uint64(l.updates) != st.Inserts+st.Deletes || uint64(l.compact) != st.Compactions || st.Compactions < 2 {
		t.Fatalf("logged up to epoch %d (%d updates, %d compactions); index at epoch %d with %+v",
			l.last, l.updates, l.compact, d.Epoch(), st)
	}

	// From here every record is refused.
	errFull := errors.New("log device full")
	l.fail = errFull
	type pair struct{ u, v graph.V }
	sample := make([]pair, 20)
	before := make([]*graph.SPG, len(sample))
	for i := range sample {
		sample[i] = pair{graph.V(rng.Intn(60)), graph.V(rng.Intn(60))}
		before[i] = d.Query(sample[i].u, sample[i].v)
	}
	epoch, edges := d.EpochEdges()
	refused := 0
	for refused < 10 {
		u, w := graph.V(rng.Intn(60)), graph.V(rng.Intn(60))
		if u == w {
			continue
		}
		has := d.HasEdge(u, w)
		if _, err := d.ApplyEdge(u, w, !has); !errors.Is(err, errFull) {
			t.Fatalf("update {%d,%d} insert=%v with a failing logger: err = %v", u, w, !has, err)
		}
		if e, m := d.EpochEdges(); e != epoch || m != edges || d.HasEdge(u, w) != has {
			t.Fatalf("refused update {%d,%d} published: epoch %d → %d, edges %d → %d", u, w, epoch, e, edges, m)
		}
		refused++
	}
	for i, p := range sample {
		if got := d.Query(p.u, p.v); !got.Equal(before[i]) {
			t.Fatalf("query (%d,%d) changed after refused updates:\n got: %v\n want: %v", p.u, p.v, got, before[i])
		}
	}
	if err := d.Compact(); !errors.Is(err, errFull) {
		t.Fatalf("Compact with a failing logger: err = %v", err)
	}
	if d.Epoch() != epoch || d.Stats().Compactions != st.Compactions {
		t.Fatalf("refused compaction published: epoch %d → %d, compactions %d → %d",
			epoch, d.Epoch(), st.Compactions, d.Stats().Compactions)
	}
}

package replica

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"qbs/internal/obs"
)

// fetchProm scrapes url's /metrics and validates the exposition.
func fetchProm(t *testing.T, url string) string {
	t.Helper()
	resp, err := (&http.Client{Timeout: 30 * time.Second}).Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s/metrics: status %d", url, resp.StatusCode)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("%s: invalid exposition: %v\n%s", url, err, body)
	}
	return string(body)
}

// promText returns a /metrics response's body, failing unless it is a
// 200 with a valid Prometheus text exposition.
func promText(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("/metrics: content type %q", ct)
	}
	if err := obs.ValidateExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("/metrics: invalid exposition: %v\n%s", err, rec.Body.String())
	}
	return rec.Body.String()
}

// wantLines fails unless every line of want is a whole line of text.
func wantLines(t *testing.T, text string, want ...string) {
	t.Helper()
	lines := strings.Split(text, "\n")
	for _, w := range want {
		if !slices.Contains(lines, w) {
			t.Errorf("exposition has no line %q:\n%s", w, text)
		}
	}
}

// seriesValue extracts the value of the first sample whose name+labels
// start with prefix, failing the test when the series is absent.
func seriesValue(t *testing.T, text, prefix string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(prefix) + `\S*[ ]([0-9.e+-]+)$`)
	m := re.FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("series %q not found in exposition:\n%s", prefix, text)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("series %q: bad value %q", prefix, m[1])
	}
	return v
}

// TestObservabilityAcrossTiers drives a mixed read/write workload
// through the query router over a live primary + WAL-shipped replica
// and asserts the tentpole end to end: every tier serves a valid
// Prometheus exposition, the query-stage and engine series advanced on
// the replica that answered the reads, the WAL series advanced on the
// primary's store, and the replica reports its apply-stream series.
func TestObservabilityAcrossTiers(t *testing.T) {
	fix := newPrimaryFixture(t, 1<<20, PrimaryOptions{})
	rep, err := Start(fix.ts.URL, Options{PollInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	repTS := httptest.NewServer(rep.Handler())
	t.Cleanup(repTS.Close)

	rt := NewRouter(fix.ts.URL, []string{repTS.URL}, RouterOptions{
		HealthInterval: 20 * time.Millisecond, Seed: 1,
	})
	t.Cleanup(rt.Stop)
	rtTS := httptest.NewServer(rt)
	t.Cleanup(rtTS.Close)

	// Mixed workload through the router: edge writes (forwarded to the
	// primary, landing in its WAL) interleaved with SPG reads (fanned to
	// the replica).
	client := rtTS.Client()
	for i := 0; i < 20; i++ {
		body := strings.NewReader(`{"u":` + strconv.Itoa(i) + `,"v":` + strconv.Itoa(i+40) + `}`)
		resp, err := client.Post(rtTS.URL+"/edges", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("write %d: status %d", i, resp.StatusCode)
		}
		resp, err = client.Get(rtTS.URL + "/spg?u=0&v=" + strconv.Itoa(50+i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: status %d", i, resp.StatusCode)
		}
	}

	// Let the replica drain the WAL tail.
	deadline := time.Now().Add(5 * time.Second)
	for rep.Epoch() < fix.d.Epoch() {
		if time.Now().After(deadline) {
			t.Fatalf("replica stuck at epoch %d, primary at %d", rep.Epoch(), fix.d.Epoch())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Replica mux: query-path and apply-stream series advanced. The WAL
	// series ride along via the process-wide registry (the primary's
	// store lives in this process too).
	repText := fetchProm(t, repTS.URL)
	if v := seriesValue(t, repText, `qbs_query_stage_ns_count{endpoint="/spg",stage="sketch"}`); v == 0 {
		t.Fatal("replica served reads but recorded no sketch spans")
	}
	if v := seriesValue(t, repText, "qbs_query_label_entries_total"); v == 0 {
		t.Fatal("engine label-entry counter did not advance")
	}
	if v := seriesValue(t, repText, "qbs_replica_applied_records_total"); v == 0 {
		t.Fatal("replica applied records but its counter is zero")
	}
	if v := seriesValue(t, repText, "qbs_replica_apply_batch_ns_count"); v == 0 {
		t.Fatal("apply-batch histogram recorded nothing")
	}
	if v := seriesValue(t, repText, "qbs_wal_append_ns_count"); v == 0 {
		t.Fatal("WAL append histogram recorded nothing")
	}

	// Primary mux: the forwarded writes were counted per endpoint.
	primText := fetchProm(t, fix.ts.URL)
	if v := seriesValue(t, primText, `qbs_http_requests_total{endpoint="/edges"}`); v < 20 {
		t.Fatalf("primary /edges requests %v, want >= 20", v)
	}

	// Router mux: routing decisions are series too.
	rtText := fetchProm(t, rtTS.URL)
	if v := seriesValue(t, rtText, "qbs_router_picks_total"); v == 0 {
		t.Fatal("router recorded no picks")
	}
}

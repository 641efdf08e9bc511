package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"qbs/internal/obs"
)

// TestObservabilitySmoke is the CI observability smoke: a real
// qbs-server process scraped over Prometheus text (validated: parseable,
// no duplicate series, no interleaved families, no exemplar suffix), the
// slow log and the event journal read on both muxes, and a 1-second CPU
// profile pulled from the -debug-addr side channel's pprof.
func TestObservabilitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short mode")
	}
	bin := buildServer(t)
	addr, dbgAddr := freeAddr(t), freeAddr(t)
	url, dbgURL := "http://"+addr, "http://"+dbgAddr

	startProc(t, bin, "-dataset", "DO", "-scale", "0.1", "-landmarks", "8",
		"-addr", addr, "-debug-addr", dbgAddr, "-slowlog", "1ns")
	waitHTTP(t, url+"/healthz", 60*time.Second)

	client := &http.Client{Timeout: 10 * time.Second}
	for i := 0; i < 5; i++ {
		resp, err := client.Get(fmt.Sprintf("%s/spg?u=0&v=%d", url, 10+i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("read %d: status %d", i, resp.StatusCode)
		}
	}

	// Prometheus scrape on the serving mux: valid exposition with the
	// per-endpoint and query-stage series, with or without
	// ?format=prometheus.
	resp, err := client.Get(url + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: status %d", resp.StatusCode)
	}
	if err := obs.ValidateExposition(body); err != nil {
		t.Fatalf("invalid exposition: %v\n%s", err, body)
	}
	plain := fetchProm(t, url)
	wantLines(t, string(body), `qbs_http_requests_total{endpoint="/spg"} 5`)
	wantLines(t, plain, `qbs_http_requests_total{endpoint="/spg"} 5`)
	if bytes.Contains(body, []byte(" # {")) {
		t.Fatalf("exposition carries an exemplar suffix:\n%s", body)
	}
	// The cold start is attributed to its layers: this server generated
	// a graph and built an index, and had no store to create or recover.
	for _, want := range []string{"qbs_http_requests_total", "qbs_query_stage_ns", "qbs_goroutines",
		`qbs_startup_seconds{stage="graph"} `, `qbs_startup_seconds{stage="index"} `} {
		if !bytes.Contains(body, []byte(want)) {
			t.Fatalf("exposition missing %q", want)
		}
	}
	if bytes.Contains(body, []byte(`qbs_startup_seconds{stage="store"}`)) {
		t.Fatal("exposition reports a store stage on a server started without -data")
	}

	// The slow log captured the queries (threshold forced to 1ns).
	resp, err = client.Get(url + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	var slow struct {
		Entries []struct {
			TraceID string `json:"trace_id"`
		} `json:"entries"`
	}
	err = json.NewDecoder(resp.Body).Decode(&slow)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(slow.Entries) == 0 || slow.Entries[0].TraceID == "" {
		t.Fatalf("slowlog empty or missing trace IDs: %+v", slow)
	}

	// The debug side channel serves pprof: pull a 1-second CPU profile.
	// Nothing else in the process takes CPU profiles, so the one profiler
	// is free.
	resp, err = (&http.Client{Timeout: 30 * time.Second}).Get(dbgURL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	prof, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(prof) == 0 {
		t.Fatalf("pprof profile: status %d, %d bytes", resp.StatusCode, len(prof))
	}

	// The event journal rides on the serving mux: process lifecycle is
	// there, every event names its component and level, and the level
	// filter is applied when the log is read.
	logs := fetchEvents(t, url, "?n=50")
	for _, ev := range logs {
		if ev.Component == "" || ev.Event == "" || ev.Level == "" {
			t.Fatalf("malformed journal event: %+v", ev)
		}
	}
	if !hasEvent(logs, "process", "lifecycle", "") {
		t.Fatalf("journal holds no process lifecycle event: %+v", logs)
	}
	if warn := fetchEvents(t, url, "?min_level=warn"); hasEvent(warn, "process", "lifecycle", "") {
		t.Fatalf("min_level=warn returned an info event: %+v", warn)
	}

	// The journal also renders on the -debug-addr side channel.
	resp, err = client.Get(dbgURL + "/debug/logs")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	code := resp.StatusCode
	_ = resp.Body.Close()
	if code != http.StatusOK {
		t.Fatalf("debug side-channel /debug/logs: status %d", code)
	}
	// So does the process-wide exposition.
	if !strings.Contains(fetchProm(t, dbgURL), "\nqbs_goroutines ") {
		t.Fatal("debug side-channel /metrics missing qbs_goroutines")
	}
}

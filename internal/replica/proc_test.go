package replica

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"qbs/internal/datasets"
	"qbs/internal/workload"
)

// TestMultiProcessReplicationSmoke is the CI replication smoke: real
// qbs-server processes — a primary, one replica, a router — with 500
// MixedOps (writes and reads) driven through the router, asserting zero
// request errors and primary/replica epoch convergence.
func TestMultiProcessReplicationSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process smoke skipped in -short mode")
	}
	bin := buildServer(t)
	tmp := t.TempDir()

	pAddr, rAddr, rtAddr := freeAddr(t), freeAddr(t), freeAddr(t)
	pURL, rURL, rtURL := "http://"+pAddr, "http://"+rAddr, "http://"+rtAddr

	const (
		dataset = "DO"
		scale   = 0.1
		seed    = 7
	)
	primary := startProc(t, bin, "-primary", "-data", filepath.Join(tmp, "pdata"),
		"-dataset", dataset, "-scale", fmt.Sprint(scale), "-landmarks", "8",
		"-sync-every", "64", "-addr", pAddr)
	waitHTTP(t, pURL+"/healthz", 60*time.Second)

	replica := startProc(t, bin, "-replica-of", pURL, "-data", filepath.Join(tmp, "rdata"),
		"-poll", "5ms", "-addr", rAddr)
	waitHTTP(t, rURL+"/healthz", 60*time.Second)

	router := startProc(t, bin, "-router", pURL+","+rURL, "-addr", rtAddr)
	waitHTTP(t, rtURL+"/epoch", 60*time.Second)
	_ = router

	// The same deterministic generator the server used: MixedOps over
	// the regenerated analog tracks the evolving edge set, so deletes
	// always target live edges.
	spec, err := datasets.ByKey(dataset)
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Generate(scale)
	ops := workload.MixedOps(g, 500, 0.4, seed)
	queries, inserts, deletes := workload.CountKinds(ops)
	t.Logf("driving %d queries + %d mutations through the router", queries, inserts+deletes)

	client := &http.Client{Timeout: 30 * time.Second}
	for i, op := range ops {
		var resp *http.Response
		var err error
		switch op.Kind {
		case workload.OpQuery:
			resp, err = client.Get(fmt.Sprintf("%s/spg?u=%d&v=%d", rtURL, op.U, op.V))
		case workload.OpInsert:
			resp, err = client.Post(rtURL+"/edges", "application/json",
				strings.NewReader(fmt.Sprintf(`{"u":%d,"v":%d}`, op.U, op.V)))
		case workload.OpDelete:
			req, _ := http.NewRequest("DELETE", fmt.Sprintf("%s/edges?u=%d&v=%d", rtURL, op.U, op.V), nil)
			resp, err = client.Do(req)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("op %d (kind %d): status %d: %s", i, op.Kind, resp.StatusCode, body)
		}
	}

	// Convergence: the replica reaches the primary's epoch.
	deadline := time.Now().Add(60 * time.Second)
	for {
		pe, pok := fetchEpoch(client, pURL)
		re, rok := fetchEpoch(client, rURL)
		if pok && rok && pe == re && pe > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: primary epoch %d (ok=%v), replica epoch %d (ok=%v)", pe, pok, re, rok)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The replica's /metrics must agree: zero epoch lag, zero errors on
	// its query endpoints.
	text := fetchProm(t, rURL)
	wantLines(t, text, "qbs_replica_lag_epochs 0", "qbs_replica_lag_bytes 0")
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "qbs_http_errors_total{") && !strings.HasSuffix(line, "} 0") {
			t.Fatalf("replica reported errors: %s", line)
		}
	}
	_ = primary
	_ = replica
}

// buildServer compiles cmd/qbs-server once into the test temp dir.
func buildServer(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
	bin := filepath.Join(t.TempDir(), "qbs-server")
	cmd := exec.Command("go", "build", "-o", bin, "qbs/cmd/qbs-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build qbs-server: %v\n%s", err, out)
	}
	return bin
}

// startProc launches one qbs-server and arranges teardown + log capture.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Start(); err != nil {
		t.Fatalf("start %v: %v", args, err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Signal(syscall.SIGTERM)
		done := make(chan struct{})
		go func() { cmd.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(15 * time.Second):
			cmd.Process.Kill()
			<-done
		}
		if t.Failed() {
			t.Logf("qbs-server %v output:\n%s", args, out.String())
		}
	})
	return cmd
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	_ = l.Close()
	return addr
}

func waitHTTP(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	client := &http.Client{Timeout: 2 * time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", url)
}

// fetchEpoch reads GET /epoch off a live server.
func fetchEpoch(client *http.Client, base string) (uint64, bool) {
	resp, err := client.Get(base + "/epoch")
	if err != nil {
		return 0, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return 0, false
	}
	var body struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, false
	}
	return body.Epoch, true
}

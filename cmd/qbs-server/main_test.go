package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"

	"qbs"
	"qbs/internal/datasets"
	"qbs/internal/graph"
	"qbs/internal/obs"
	"qbs/internal/replica"
	"qbs/internal/server"
)

// TestDebugRoutesOnEveryTier walks obs.DebugRoutes against every tier
// this command can run — a static, a directed and a mutable server, a
// replica, a router and the -debug-addr side channel. Every tier has a
// source for each of the four routes and answers it 200 with a JSON
// body; a malformed ?n= or id is a 4xx with the JSON error body. Every
// tier's /metrics is the Prometheus exposition, with or without
// ?format=prometheus; it parses, carries no exemplar suffix — the text
// format has no syntax for one — and the router's still carries
// qbs_router_failovers_total, which the benchmark reads.
func TestDebugRoutesOnEveryTier(t *testing.T) {
	g := graph.Grid(6, 6)
	ix, err := qbs.BuildIndex(g, qbs.Options{NumLandmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	dix, err := qbs.BuildDiIndex(qbs.AsDirected(g), qbs.DiOptions{NumLandmarks: 2})
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := qbs.CreateStore(t.TempDir(), g, qbs.StoreOptions{Index: qbs.Options{NumLandmarks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = dyn.Close() })
	mutable := server.NewMutable(dyn)
	// The primary as main wires it: the replication feed beside the API.
	prim := replica.NewPrimary(dyn.Store(), replica.PrimaryOptions{})
	t.Cleanup(prim.Close)
	primMux := http.NewServeMux()
	primMux.Handle("/replication/", prim)
	primMux.Handle("/", mutable)
	primTS := httptest.NewServer(primMux)
	t.Cleanup(primTS.Close)
	rep, err := replica.Start(primTS.URL, replica.Options{Dir: t.TempDir(), PollInterval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rep.Stop)
	rt := replica.NewRouter(primTS.URL, nil, replica.RouterOptions{HealthInterval: time.Hour})
	t.Cleanup(rt.Stop)

	// A retained trace for the {id} route to find. Every tier here shares
	// the process-wide tracer, so one forced trace — begun on the router,
	// joined by the server it proxies to — serves all.
	req := httptest.NewRequest("GET", "/distance?u=0&v=1", nil)
	req.Header.Set(obs.TraceparentHeader, "00-0000000000000000feedc0ffee000018-00000000000000aa-01")
	rec := httptest.NewRecorder()
	rt.ServeHTTP(rec, req)
	if rec.Code != 200 {
		t.Fatalf("routed read: status %d: %s", rec.Code, rec.Body)
	}

	if len(obs.DebugRoutes) != 4 {
		t.Fatalf("%d debug routes, want traces, traces/{id}, slowlog and logs", len(obs.DebugRoutes))
	}
	for _, tier := range []struct {
		name   string
		h      http.Handler
		router bool
	}{
		{name: "static", h: server.New(ix)},
		{name: "directed", h: server.NewDirected(dix)},
		{name: "mutable", h: mutable},
		{name: "replica", h: rep.Handler()},
		{name: "router", h: rt, router: true},
		{name: "-debug-addr", h: debugHandler()},
	} {
		get := func(path string) *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			tier.h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
			return rec
		}
		for _, route := range obs.DebugRoutes {
			path, bad := route.Pattern, route.Pattern+"?n=abc"
			if prefix, ok := strings.CutSuffix(path, "{id}"); ok {
				path, bad = prefix+"feedc0ffee000018", prefix+"no-such-id"
			}
			rec := get(path)
			if ct := rec.Header().Get("Content-Type"); rec.Code != 200 || ct != "application/json" || !json.Valid(rec.Body.Bytes()) {
				t.Errorf("%s: GET %s: status %d, Content-Type %q, body %.80q", tier.name, path, rec.Code, ct, rec.Body)
			}
			// One ?n= parser, one error body, whatever the route or tier.
			var e struct {
				Error string `json:"error"`
			}
			if rec := get(bad); rec.Code < 400 || rec.Code >= 500 || json.Unmarshal(rec.Body.Bytes(), &e) != nil || e.Error == "" {
				t.Errorf("%s: GET %s: status %d, body %q; want a 4xx with the JSON error body", tier.name, bad, rec.Code, rec.Body)
			}
		}
		// One /metrics body: Prometheus text, asked for or not.
		for _, path := range []string{"/metrics", "/metrics?format=prometheus"} {
			rec := get(path)
			body := rec.Body.Bytes()
			if err := obs.ValidateExposition(body); rec.Code != 200 || err != nil {
				t.Errorf("%s: %s: status %d, %v", tier.name, path, rec.Code, err)
			}
			if ct := rec.Header().Get("Content-Type"); ct != obs.PromContentType {
				t.Errorf("%s: %s: Content-Type %q", tier.name, path, ct)
			}
			if bytes.Contains(body, []byte(" # {")) {
				t.Errorf("%s: the exposition carries an exemplar suffix:\n%s", tier.name, body)
			}
			if tier.router && !bytes.Contains(body, []byte("\nqbs_router_failovers_total ")) {
				t.Errorf("router: the exposition lacks qbs_router_failovers_total:\n%s", body)
			}
		}
	}
}

// TestMain lets a test run this command's own main in a child process:
// with QBS_MAIN_ARGS set the test binary is the command.
func TestMain(m *testing.M) {
	if args := os.Getenv("QBS_MAIN_ARGS"); args != "" {
		os.Args = append([]string{"qbs-server"}, strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

// TestDataDirOfTheOtherKindIsRefused: starting the server with -data
// over a store of the other orientation exits 1 naming what is there
// and the flag that opens it, instead of building a second, unrelated
// index into the directory.
func TestDataDirOfTheOtherKindIsRefused(t *testing.T) {
	g := graph.Grid(5, 5)
	udir, ddir := t.TempDir(), t.TempDir()
	st, err := qbs.CreateStore(udir, g, qbs.StoreOptions{Index: qbs.Options{NumLandmarks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := qbs.CreateDiStore(ddir, qbs.AsDirected(g), qbs.DiStoreOptions{Index: qbs.DiOptions{NumLandmarks: 2}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-directed", "-data", udir}, "already contains an undirected store; open it without -directed"},
		{[]string{"-data", ddir}, "already contains a directed store; open it with -directed"},
		{[]string{"-mutable", "-data", ddir}, "already contains a directed store; open it with -directed"},
	} {
		// Were the directory accepted the child would serve forever.
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		cmd := exec.CommandContext(ctx, os.Args[0])
		args := append([]string{"-dataset", "DO", "-scale", "0.02", "-landmarks", "4", "-addr", "127.0.0.1:0"}, c.args...)
		cmd.Env = append(os.Environ(), "QBS_MAIN_ARGS="+strings.Join(args, " "))
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		err := cmd.Run()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 || !strings.Contains(out.String(), c.want) {
			t.Errorf("qbs-server %v: %v\n%s", c.args, err, &out)
		}
	}
	if qbs.DiStoreExists(udir) || qbs.StoreExists(ddir) {
		t.Fatal("a second store was built into a refused directory")
	}
}

// TestGracefulDrain sends SIGTERM to a durable mutable server while a
// POST /edges is in flight — the handler is reading its body, which the
// 100 Continue it answered shows. The write is answered 200 and closes
// its connection, an idle kept-alive connection is closed at once, a new
// dial is refused, and the process prints bye and exits 0. The reopened
// store holds the edge.
func TestGracefulDrain(t *testing.T) {
	spec, err := datasets.ByKey("DO")
	if err != nil {
		t.Fatal(err)
	}
	g := spec.Generate(0.02)
	u, v := qbs.V(0), qbs.V(1)
	for g.HasEdge(u, v) {
		v++
	}
	dir := t.TempDir()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	_ = ln.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0])
	cmd.Env = append(os.Environ(), "QBS_MAIN_ARGS=-dataset DO -scale 0.02 -landmarks 4 -mutable -data "+dir+" -addr "+addr)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = cmd.Process.Kill() }()
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	waitLine := func(want string) {
		t.Helper()
		for line := range lines {
			if strings.HasPrefix(line, want) {
				return
			}
		}
		t.Fatalf("the server exited before printing %q:\n%s", want, &stderr)
	}
	waitLine("serving on")

	dial := func() (net.Conn, *bufio.Reader) {
		t.Helper()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = nc.Close() })
		_ = nc.SetDeadline(time.Now().Add(time.Minute))
		return nc, bufio.NewReader(nc)
	}
	idle, idleBr := dial()
	if _, err := io.WriteString(idle, "GET /healthz HTTP/1.1\r\nHost: qbs\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.ReadResponse(idleBr, nil); err != nil || resp.StatusCode != 200 || resp.Close {
		t.Fatalf("GET /healthz: %v, %v", resp, err)
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	body := fmt.Sprintf(`{"u":%d,"v":%d}`, u, v)
	write, writeBr := dial()
	if _, err := fmt.Fprintf(write, "POST /edges HTTP/1.1\r\nHost: qbs\r\nExpect: 100-continue\r\nContent-Length: %d\r\n\r\n", len(body)); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.ReadResponse(writeBr, nil); err != nil || resp.StatusCode != http.StatusContinue {
		t.Fatalf("POST /edges: %v, %v; want 100 Continue", resp, err)
	}

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitLine("shutting down...")
	if n, err := io.Copy(io.Discard, idleBr); n != 0 || err != nil {
		t.Fatalf("the idle connection read %d bytes, %v; want it closed", n, err)
	}
	if nc, err := net.Dial("tcp", addr); err == nil {
		_ = nc.Close()
		t.Fatal("a new connection was accepted during the drain")
	}
	if _, err := io.WriteString(write, body); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(writeBr, nil)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Applied bool `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); resp.StatusCode != 200 || err != nil || !res.Applied || !resp.Close {
		t.Fatalf("the in-flight write: status %d, applied %v, Connection: close %v, %v", resp.StatusCode, res.Applied, resp.Close, err)
	}
	waitLine("bye")
	if err := cmd.Wait(); err != nil {
		t.Fatalf("exit: %v\n%s", err, &stderr)
	}

	st, err := qbs.OpenStore(dir, qbs.StoreOptions{ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if d := st.Distance(u, v); d != 1 {
		t.Fatalf("the reopened store puts %d and %d at distance %d, want the edge", u, v, d)
	}
}

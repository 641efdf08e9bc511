package server_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"qbs"
	"qbs/internal/graph"
	"qbs/internal/obs"
	"qbs/internal/server"
)

// mutableFixture serves the diamond-with-detour graph (0-1-3, 0-2-3,
// 0-4-5-3, isolated 6) read/write: every route of the query surface,
// writes included.
func mutableFixture(t testing.TB) *server.Server {
	t.Helper()
	g := graph.MustFromEdges(7, []graph.Edge{
		{U: 0, W: 1}, {U: 1, W: 3}, {U: 0, W: 2}, {U: 2, W: 3},
		{U: 0, W: 4}, {U: 4, W: 5}, {U: 5, W: 3},
	})
	di, err := qbs.BuildDynamicIndex(g, qbs.DynamicOptions{Index: qbs.Options{NumLandmarks: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return server.NewMutable(di)
}

// startLoop serves h on a loopback listener and shuts the loop down when
// the test ends.
func startLoop(t testing.TB, l *server.Loop) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- l.Serve(ln) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := l.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
		}
	})
	return ln.Addr().String()
}

// wireReply is what a client can see of one reply. The Date value and
// the trace ID, which differ on every reply, are reduced to presence.
type wireReply struct {
	Status           int
	Proto            string
	Header           http.Header
	ContentLength    int64
	TransferEncoding []string
	Body             string
	Close            bool // Connection: close
	Continue         bool // a 100 Continue came first
}

type wireOutcome struct {
	Replies []wireReply
	Open    bool // the connection carries another request
}

// exchange writes raw on a new connection to addr, reads up to n
// replies (to method requests), and reports whether the server kept the
// connection. volatile drops the bodies, which differ between two
// processes' /metrics.
func exchange(t *testing.T, addr, raw, method string, n int, volatile bool) wireOutcome {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	// The write may block on a request the server refuses to read.
	go func() { _, _ = io.WriteString(nc, raw) }()
	_ = nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(nc)
	var out wireOutcome
	sawContinue := false
	for len(out.Replies) < n {
		resp, err := http.ReadResponse(br, &http.Request{Method: method})
		if err != nil {
			break
		}
		if resp.StatusCode == http.StatusContinue {
			sawContinue = true
			continue
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read body: %v", err)
		}
		r := wireReply{
			Status:           resp.StatusCode,
			Proto:            resp.Proto,
			Header:           resp.Header,
			ContentLength:    resp.ContentLength,
			TransferEncoding: resp.TransferEncoding,
			Body:             string(body),
			Close:            resp.Close,
			Continue:         sawContinue,
		}
		for _, k := range []string{"Date", obs.TraceHeader} {
			if _, ok := r.Header[k]; ok {
				r.Header[k] = []string{"present"}
			}
		}
		if volatile {
			if err := obs.ValidateExposition(body); err != nil {
				t.Errorf("reply body: %v", err)
			}
			r.Body = ""
		}
		out.Replies = append(out.Replies, r)
	}
	_ = nc.SetReadDeadline(time.Now().Add(300 * time.Millisecond))
	_, err = br.ReadByte()
	var ne net.Error
	out.Open = errors.As(err, &ne) && ne.Timeout()
	return out
}

func post(path, extra, body string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: qbs\r\nContent-Type: application/json\r\n" + extra +
		"Content-Length: " + strconv.Itoa(len(body)) + "\r\n\r\n" + body
}

func chunked(path, body string) string {
	return "POST " + path + " HTTP/1.1\r\nHost: qbs\r\nContent-Type: application/json\r\nTransfer-Encoding: chunked\r\n\r\n" +
		strconv.FormatInt(int64(len(body)), 16) + "\r\n" + body + "\r\n0\r\n\r\n"
}

// getDistance is a kept-alive GET /distance, the loop's common request.
const getDistance = "GET /distance?u=0&v=3 HTTP/1.1\r\nHost: qbs\r\n\r\n"

// netHTTPCases are the raw requests TestLoopMatchesNetHTTP sends to
// net/http and to the loop, and FuzzHeadParse's seeds.
var netHTTPCases = []struct {
	name, raw string
	method    string
	n         int
	volatile  bool
}{
	{name: "GET with Host", raw: getDistance},
	{name: "HTTP/1.1 without Host", raw: "GET /distance?u=0&v=3 HTTP/1.1\r\n\r\n"},
	{name: "HTTP/1.0 keep-alive", raw: "GET /distance?u=0&v=3 HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"},
	{name: "HTTP/1.0", raw: "GET /distance?u=0&v=3 HTTP/1.0\r\n\r\n"},
	{name: "Connection: close", raw: "GET /distance?u=0&v=3 HTTP/1.1\r\nHost: qbs\r\nConnection: close\r\n\r\n"},
	{name: "two pipelined GETs", raw: getDistance + "GET /spg?u=0&v=3 HTTP/1.1\r\nHost: qbs\r\n\r\n", n: 2},
	{name: "HEAD /distance", raw: "HEAD /distance?u=0&v=3 HTTP/1.1\r\nHost: qbs\r\n\r\n", method: "HEAD"},
	{name: "HEAD /healthz", raw: "HEAD /healthz HTTP/1.1\r\nHost: qbs\r\n\r\n", method: "HEAD"},
	{name: "POST /edges", raw: post("/edges", "", `{"u":4,"v":6}`)},
	{name: "POST /edges chunked", raw: chunked("/edges", `{"u":4,"v":6}`)},
	{name: "POST /edges chunked past the body limit", raw: chunked("/edges", `{"u":4,"v":6}`+strings.Repeat(" ", 100<<10))},
	{name: "Expect: 100-continue", raw: post("/edges", "Expect: 100-continue\r\n", `{"u":4,"v":6}`)},
	{name: "Expect: bogus", raw: "GET /healthz HTTP/1.1\r\nHost: qbs\r\nExpect: bogus\r\n\r\n"},
	{name: "malformed request line", raw: "GARBAGE\r\n\r\n"},
	{name: "absolute-form URI", raw: "GET http://qbs/distance?u=0&v=3 HTTP/1.1\r\nHost: qbs\r\n\r\n"},
	{name: "2 MB header", raw: "GET /healthz HTTP/1.1\r\nHost: qbs\r\nX-Big: " + strings.Repeat("a", 2<<20) + "\r\n\r\n"},
	{name: "wrong method", raw: "PUT /edges HTTP/1.1\r\nHost: qbs\r\nContent-Length: 0\r\n\r\n"},
	{name: "unknown route", raw: "GET /nope HTTP/1.1\r\nHost: qbs\r\n\r\n"},
	{name: "/stats", raw: "GET /stats HTTP/1.1\r\nHost: qbs\r\n\r\n"},
	{name: "/metrics", raw: "GET /metrics HTTP/1.1\r\nHost: qbs\r\n\r\n", volatile: true},
}

// TestLoopMatchesNetHTTP sends each raw request of a table to net/http
// (an httptest.Server) and to the loop, each in front of its own copy of
// the same mutable server, and requires the same replies — status,
// header set, framing, body — and the same decision to keep or close
// the connection.
func TestLoopMatchesNetHTTP(t *testing.T) {
	for _, c := range netHTTPCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			if c.method == "" {
				c.method = "GET"
			}
			if c.n == 0 {
				c.n = 1
			}
			ts := httptest.NewServer(mutableFixture(t))
			defer ts.Close()
			want := exchange(t, ts.Listener.Addr().String(), c.raw, c.method, c.n, c.volatile)
			got := exchange(t, startLoop(t, server.NewLoop(mutableFixture(t))), c.raw, c.method, c.n, c.volatile)
			if len(want.Replies) == 0 {
				t.Fatal("net/http sent no reply")
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("loop:\n%+v\nnet/http:\n%+v", got, want)
			}
		})
	}
}

// FuzzHeadParse: on any bytes, the loop's own head reader either leaves
// them to http.ReadRequest, or http.ReadRequest accepts them too, takes
// the same length and reads the same request: method, every URL field,
// protocol, header, Host, Close, ContentLength and RequestURI, and no
// body. Each head is read by a reader that has just read another, so
// nothing of one request may show through in the next.
func FuzzHeadParse(f *testing.F) {
	for _, c := range netHTTPCases {
		if len(c.raw) <= 4<<10 { // the loop reads a head from a 4 KB buffer
			f.Add([]byte(c.raw))
		}
	}
	for _, r := range keepAliveReads {
		f.Add([]byte(r.raw))
	}
	for _, raw := range []string{
		"GET /distance?u=0&v=3&min_epoch=7 HTTP/1.1\r\nHost: qbs\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
		"GET /spg?u=1&v=2 HTTP/1.0\r\nconnection: Keep-Alive, foo\r\nx-qbs-trace-id: abc\r\n\r\nGET / HTTP/1.1\r\n\r\n",
		"DELETE /edges?u=1&v=2 HTTP/1.1\r\nHost: qbs\r\nContent-Length: 0\r\n\r\n",
		"GET /a?b#c HTTP/1.1\r\nHost: qbs\r\nX: 1\r\nX: 2\r\nY:\t v \t\r\n\r\n",
		"GET /? HTTP/1.1\r\nHost:qbs\r\nConnection: close,\tkeep-alive\r\n\r\n",
		"GET /%41 HTTP/1.1\r\nHost: a\r\n\r\n",
		"GET /x HTTP/1.1\r\nPragma: no-cache\r\nHost: a\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost: a\r\nHost: b\r\n\r\n",
		"GET /x HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n",
		"POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello",
		"GET / HTTP/1.1\r\nX: a\r\n b\r\n\r\n",
		"GET / HTTP/1.1\nHost: qbs\n\n",
	} {
		f.Add([]byte(raw))
	}
	warm := []byte("GET /spg?u=1&v=2 HTTP/1.0\r\nHost: warm\r\nX-Warm: a\r\nConnection: keep-alive\r\n\r\n")
	f.Fuzz(func(t *testing.T, b []byte) {
		var p server.HeadParser
		if r, _ := p.Parse(warm); r == nil {
			t.Fatal("the loop leaves a plain GET to http.ReadRequest")
		}
		got, n := p.Parse(b)
		// The head's length is also what the loop's header timeout reads:
		// 0 only while the blank line that ends the head is not buffered.
		if end := bytes.Index(b, []byte("\r\n\r\n")); end < 0 && n != 0 || end >= 0 && n != end+4 {
			t.Fatalf("the loop measures the head of %q as %d bytes", b, n)
		}
		if got == nil {
			return
		}
		rd := bytes.NewReader(b)
		br := bufio.NewReader(rd)
		want, err := http.ReadRequest(br)
		if err != nil {
			t.Fatalf("the loop reads %q, http.ReadRequest refuses it: %v", b[:n], err)
		}
		if read := len(b) - rd.Len() - br.Buffered(); read != n {
			t.Fatalf("the loop takes %d bytes of %q, http.ReadRequest %d", n, b, read)
		}
		type view struct {
			Method, Proto, Host, RequestURI string
			ProtoMajor, ProtoMinor          int
			URL                             url.URL
			Header                          http.Header
			Close                           bool
			ContentLength                   int64
			NoBody                          bool
		}
		see := func(r *http.Request) view {
			return view{r.Method, r.Proto, r.Host, r.RequestURI, r.ProtoMajor, r.ProtoMinor,
				*r.URL, r.Header, r.Close, r.ContentLength, r.Body == http.NoBody}
		}
		if g, w := see(got), see(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("%q:\nloop      %+v\nnet/http  %+v", b[:n], g, w)
		}
	})
}

// TestLoopReplyBytes: a reply's bytes are reproducible, the handler's
// headers in the order of their names: twenty /distance replies on one
// connection are, Date and trace ID masked, one pinned byte string.
func TestLoopReplyBytes(t *testing.T) {
	const want = "HTTP/1.1 200 OK\r\n" +
		"Content-Length: 58\r\n" +
		"Content-Type: application/json\r\n" +
		"X-Qbs-Trace-Id: *\r\n" +
		"Date: *\r\n" +
		"\r\n" +
		`{"source":0,"target":3,"distance":2,"disconnected":false}` + "\n"
	nc, br := dialKeepAlive(t, "loop")
	for i := 0; i < 20; i++ {
		if _, err := io.WriteString(nc, getDistance); err != nil {
			t.Fatal(err)
		}
		var reply strings.Builder
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []string{"Date: ", obs.TraceHeader + ": "} {
				if strings.HasPrefix(line, k) {
					line = k + "*\r\n"
				}
			}
			reply.WriteString(line)
			if line == "\r\n" {
				break
			}
		}
		body := make([]byte, len(`{"source":0,"target":3,"distance":2,"disconnected":false}`)+1)
		if _, err := io.ReadFull(br, body); err != nil {
			t.Fatal(err)
		}
		reply.Write(body)
		if reply.String() != want {
			t.Fatalf("reply %d:\n%q\nwant\n%q", i, reply.String(), want)
		}
	}
}

// plainHandler is a handler of the kinds the robustness tests need.
func plainHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ok", func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "ok\n") })
	mux.HandleFunc("/panic", func(http.ResponseWriter, *http.Request) { panic("boom") })
	mux.HandleFunc("/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) })
	return mux
}

// roundTrip sends one GET on nc and returns the reply's status and body.
func roundTrip(nc net.Conn, br *bufio.Reader, path string) (int, string, error) {
	if _, err := io.WriteString(nc, "GET "+path+" HTTP/1.1\r\nHost: qbs\r\n\r\n"); err != nil {
		return 0, "", err
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return 0, "", err
	}
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body), err
}

func dialLoop(t *testing.T, addr string) (net.Conn, *bufio.Reader) {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = nc.Close() })
	_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
	return nc, bufio.NewReader(nc)
}

// waitClosed reads nc until the server closes it and returns how long
// that took; a reply byte fails the test.
func waitClosed(t *testing.T, br *bufio.Reader) time.Duration {
	t.Helper()
	start := time.Now()
	n, err := io.Copy(io.Discard, br)
	if err != nil || n != 0 {
		t.Fatalf("read %d bytes, %v; want the connection closed with no reply", n, err)
	}
	return time.Since(start)
}

// TestLoopHeaderTimeout: a request whose headers stop half-way is closed
// at the header timeout, with no reply.
func TestLoopHeaderTimeout(t *testing.T) {
	l := server.NewLoop(plainHandler())
	server.SetTimeouts(l, 100*time.Millisecond, time.Second, time.Second, time.Minute)
	nc, br := dialLoop(t, startLoop(t, l))
	if _, err := io.WriteString(nc, "GET /ok HTTP/1.1\r\nHost: qbs\r\n"); err != nil {
		t.Fatal(err)
	}
	if d := waitClosed(t, br); d < 80*time.Millisecond || d > 5*time.Second {
		t.Fatalf("closed after %v, want the 100ms header timeout", d)
	}
}

// TestLoopIdleTimeout: a kept-alive connection with no next request is
// closed at the idle timeout.
func TestLoopIdleTimeout(t *testing.T) {
	l := server.NewLoop(plainHandler())
	server.SetTimeouts(l, time.Minute, time.Minute, time.Minute, 150*time.Millisecond)
	nc, br := dialLoop(t, startLoop(t, l))
	if status, _, err := roundTrip(nc, br, "/ok"); err != nil || status != 200 {
		t.Fatalf("GET /ok: %d, %v", status, err)
	}
	if d := waitClosed(t, br); d < 120*time.Millisecond || d > 5*time.Second {
		t.Fatalf("closed after %v, want the 150ms idle timeout", d)
	}
}

// syncBuffer is a log destination the test can read while the loop's
// goroutines write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestLoopPanicClosesOnlyItsConnection: a handler's panic is logged as
// net/http logs it (http.ErrAbortHandler is not), drops its own
// connection without a reply, and leaves every other connection — open
// or new — served.
func TestLoopPanicClosesOnlyItsConnection(t *testing.T) {
	var logs syncBuffer
	log.SetOutput(&logs)
	t.Cleanup(func() { log.SetOutput(os.Stderr) })
	addr := startLoop(t, server.NewLoop(plainHandler()))

	other, otherBr := dialLoop(t, addr)
	if status, _, err := roundTrip(other, otherBr, "/ok"); err != nil || status != 200 {
		t.Fatalf("GET /ok: %d, %v", status, err)
	}
	for _, path := range []string{"/panic", "/abort"} {
		nc, br := dialLoop(t, addr)
		if _, err := io.WriteString(nc, "GET "+path+" HTTP/1.1\r\nHost: qbs\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		waitClosed(t, br)
	}
	if status, body, err := roundTrip(other, otherBr, "/ok"); err != nil || status != 200 || body != "ok\n" {
		t.Fatalf("the open connection after the panics: %d %q, %v", status, body, err)
	}
	nc, br := dialLoop(t, addr)
	if status, _, err := roundTrip(nc, br, "/ok"); err != nil || status != 200 {
		t.Fatalf("a new connection after the panics: %d, %v", status, err)
	}
	got := logs.String()
	if !strings.Contains(got, "http: panic serving") || !strings.Contains(got, "boom") {
		t.Errorf("the panic was not logged:\n%s", got)
	}
	if n := strings.Count(got, "http: panic serving"); n != 1 {
		t.Errorf("%d panics logged, want 1 (http.ErrAbortHandler is not):\n%s", n, got)
	}
}

// TestLoopStreamsLargeReply: a 64 MB reply with its Content-Length set
// goes out as the handler writes it — the process allocates far less
// than the body — and a file copied into the reply arrives whole. The
// buffers the connection held return to the pool within the cap.
func TestLoopStreamsLargeReply(t *testing.T) {
	const size = 64 << 20
	chunk := bytes.Repeat([]byte("0123456789abcdef"), 1<<16) // 1 MB
	file := filepath.Join(t.TempDir(), "snapshot")
	content := bytes.Repeat([]byte("qbs snapshot bytes\n"), 200_000)
	if err := os.WriteFile(file, content, 0o644); err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/big", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Length", strconv.Itoa(size))
		for i := 0; i < size/len(chunk); i++ {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	})
	mux.HandleFunc("/file", func(w http.ResponseWriter, _ *http.Request) {
		f, err := os.Open(file)
		if err != nil {
			t.Error(err)
			return
		}
		defer f.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.Itoa(len(content)))
		_, _ = io.Copy(w, f)
	})
	l := server.NewLoop(mux)
	addr := startLoop(t, l)
	nc, br := dialLoop(t, addr)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := io.WriteString(nc, "GET /big HTTP/1.1\r\nHost: qbs\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	n, err := io.Copy(io.Discard, resp.Body)
	runtime.ReadMemStats(&after)
	if err != nil || n != size || resp.ContentLength != size {
		t.Fatalf("read %d of %d bytes (Content-Length %d): %v", n, size, resp.ContentLength, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > size/16 {
		t.Errorf("serving a %d MB reply allocated %d KB", size>>20, grew>>10)
	}

	if _, err := io.WriteString(nc, "GET /file HTTP/1.1\r\nHost: qbs\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	if resp, err = http.ReadResponse(br, nil); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil || sha256.Sum256(got) != sha256.Sum256(content) {
		t.Fatalf("file reply: %d of %d bytes, %v", len(got), len(content), err)
	}

	_ = nc.Close()
	for deadline := time.Now().Add(5 * time.Second); server.Conns(l) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the loop kept the closed connection")
		}
	}
	for _, c := range server.PooledBufferCaps() {
		if c > server.MaxPooledBuffer {
			t.Errorf("a %d KB buffer went back to the pool (cap %d KB)", c>>10, server.MaxPooledBuffer>>10)
		}
	}
}

// TestLoopShutdownUnderLoad shuts the loop down while eight clients
// keep requests going on kept-alive connections. Every reply that
// arrives is whole, the one each client sees last before the drain
// closes its connection carries Connection: close or none follows, and
// Shutdown returns nil once the connections are gone.
func TestLoopShutdownUnderLoad(t *testing.T) {
	l := server.NewLoop(plainHandler())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- l.Serve(ln) }()
	var wg sync.WaitGroup
	var replies atomic.Int64
	enough := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				return // refused: the drain began first
			}
			defer nc.Close()
			_ = nc.SetDeadline(time.Now().Add(10 * time.Second))
			br := bufio.NewReader(nc)
			for {
				if _, err := io.WriteString(nc, "GET /ok HTTP/1.1\r\nHost: qbs\r\n\r\n"); err != nil {
					return
				}
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					return // closed while idle: no reply at all
				}
				body, err := io.ReadAll(resp.Body)
				if err != nil || resp.StatusCode != 200 || string(body) != "ok\n" {
					t.Errorf("a reply cut by the drain: %d %q, %v", resp.StatusCode, body, err)
					return
				}
				if replies.Add(1) == 200 {
					close(enough)
				}
				if resp.Close {
					return
				}
			}
		}()
	}
	select {
	case <-enough:
	case <-time.After(30 * time.Second):
		t.Fatalf("%d replies before the shutdown, want 200", replies.Load())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := l.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v", err)
	}
	wg.Wait()
	if n := server.Conns(l); n != 0 {
		t.Fatalf("%d connections left after the drain", n)
	}
}

// TestLoopRequestBodyOutlivesHandler: a request body another goroutine
// still holds after its handler returns — an http.Client forwarding it
// closes it when done — reads nothing of the next request on the
// connection and is closed to its holder.
func TestLoopRequestBodyOutlivesHandler(t *testing.T) {
	release, stray := make(chan struct{}), make(chan error, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /keep", func(w http.ResponseWriter, r *http.Request) {
		go func(body io.ReadCloser) {
			<-release
			_, err := io.ReadAll(body)
			_ = body.Close()
			stray <- err
		}(r.Body)
		_, _ = io.WriteString(w, "kept\n")
	})
	mux.HandleFunc("POST /echo", func(w http.ResponseWriter, r *http.Request) {
		close(release)
		time.Sleep(10 * time.Millisecond) // the stray reader runs meanwhile
		_, _ = io.Copy(w, r.Body)
	})
	nc, br := dialLoop(t, startLoop(t, server.NewLoop(mux)))
	for _, c := range []struct{ path, body, want string }{
		{"/keep", "first body", "kept\n"},
		{"/echo", "second body", "second body"},
	} {
		if _, err := io.WriteString(nc, "POST "+c.path+" HTTP/1.1\r\nHost: qbs\r\nContent-Length: "+strconv.Itoa(len(c.body))+"\r\n\r\n"+c.body); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		if err != nil || string(got) != c.want {
			t.Fatalf("POST %s: %q, %v; want %q", c.path, got, err, c.want)
		}
	}
	if err := <-stray; !errors.Is(err, http.ErrBodyReadAfterClose) {
		t.Fatalf("the stray read of a finished request's body: %v, want http.ErrBodyReadAfterClose", err)
	}
}

// TestMain serves kernelBlockingHandler from a child process when
// QBS_LOOP_CHILD is set, printing the address it listens on.
func TestMain(m *testing.M) {
	if os.Getenv("QBS_LOOP_CHILD") != "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println(ln.Addr())
		_ = server.NewLoop(kernelBlockingHandler()).Serve(ln)
		return
	}
	os.Exit(m.Run())
}

// kernelBlockingHandler answers GET /ok at once. POST /block holds its
// thread in a blocking read(2) of descriptor 3, a pipe the parent test
// writes one byte to per request, as a WAL fsync holds a write's thread.
func kernelBlockingHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /ok", func(w http.ResponseWriter, _ *http.Request) { _, _ = io.WriteString(w, "ok\n") })
	mux.HandleFunc("POST /block", func(w http.ResponseWriter, _ *http.Request) {
		var b [1]byte
		if _, err := syscall.Read(3, b[:]); err != nil {
			panic(err)
		}
		_, _ = io.WriteString(w, "done\n")
	})
	return mux
}

// TestLoopServesReadsDuringBlockingWrite: while a write's handler holds
// its thread in the kernel, a read on another connection is answered at
// once rather than when the write ends. The loop runs in a child
// process: a client in the same process would park a thread in the
// network poller itself and hide the wait.
func TestLoopServesReadsDuringBlockingWrite(t *testing.T) {
	release, hold, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer hold.Close()
	cmd := exec.Command(os.Args[0], "-test.run=^$")
	cmd.Env = append(os.Environ(), "QBS_LOOP_CHILD=1")
	cmd.ExtraFiles = []*os.File{release} // descriptor 3, in blocking mode
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	_ = release.Close()
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	addr, err := bufio.NewReader(stdout).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	addr = strings.TrimSpace(addr)
	write, writeBr := dialLoop(t, addr)
	read, readBr := dialLoop(t, addr)
	if status, _, err := roundTrip(read, readBr, "/ok"); err != nil || status != 200 {
		t.Fatalf("GET /ok: %d, %v", status, err)
	}
	var waits []time.Duration
	for i := 0; i < 5; i++ {
		if _, err := io.WriteString(write, "POST /block HTTP/1.1\r\nHost: qbs\r\nContent-Length: 0\r\n\r\n"); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond) // the write is in the kernel
		start := time.Now()
		if status, _, err := roundTrip(read, readBr, "/ok"); err != nil || status != 200 {
			t.Fatalf("GET /ok during the write: %d, %v", status, err)
		}
		waits = append(waits, time.Since(start))
		if _, err := hold.Write([]byte{1}); err != nil {
			t.Fatal(err)
		}
		if resp, err := http.ReadResponse(writeBr, nil); err != nil || resp.StatusCode != 200 {
			t.Fatalf("POST /block: %v, %v", resp, err)
		} else {
			_, _ = io.Copy(io.Discard, resp.Body)
		}
	}
	slices.Sort(waits)
	if waits[2] > 4*time.Millisecond {
		t.Fatalf("reads during a write held in the kernel took %v (median %v), want them answered at once", waits, waits[2])
	}
}

// keepAliveReads are the warm reads BenchmarkKeepAliveRequest and
// TestLoopWarmReadAllocs send, each as the benchmark's load generator
// sends it, and the most allocations one round trip may make, the
// test's client included: none. The loop's head, its minted trace ID
// and /spg's Content-Length are views of buffers the connection keeps,
// and the client writes and reads through buffers of its own.
var keepAliveReads = []struct {
	name, raw string
	allocs    float64
}{
	{"distance", getDistance, 0},
	{"spg", "GET /spg?u=0&v=3 HTTP/1.1\r\nHost: qbs\r\n\r\n", 0},
}

// dialKeepAlive serves a fresh mutable fixture by net/http or by the
// loop and returns a kept-alive connection to it. The server's tracer is
// its own and retains nothing: a retained trace is copied out.
func dialKeepAlive(tb testing.TB, side string) (net.Conn, *bufio.Reader) {
	s := mutableFixture(tb)
	s.SetTracer(obs.NewTracer(1))
	s.SetSlowLogThreshold(time.Hour)
	var addr string
	if side == "loop" {
		addr = startLoop(tb, server.NewLoop(s))
	} else {
		ts := httptest.NewServer(s)
		tb.Cleanup(ts.Close)
		addr = ts.Listener.Addr().String()
	}
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = nc.Close() })
	return nc, bufio.NewReader(nc)
}

// BenchmarkKeepAliveRequest is one GET /distance or /spg round trip on a
// kept connection, served by net/http and by the loop in front of the
// same server; allocs/op counts both ends.
func BenchmarkKeepAliveRequest(b *testing.B) {
	for _, side := range []string{"net-http", "loop"} {
		for _, read := range keepAliveReads {
			b.Run(side+"/"+read.name, func(b *testing.B) {
				nc, br := dialKeepAlive(b, side)
				req := []byte(read.raw)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := nc.Write(req); err != nil {
						b.Fatal(err)
					}
					if err := skipReply(br); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// TestLoopWarmReadAllocs: a warm kept-alive read through the loop reads
// its head into the connection's request, passes the middleware and
// writes its reply headers without allocating; what it allocates, client
// included, is keepAliveReads' count at most.
func TestLoopWarmReadAllocs(t *testing.T) {
	if server.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, read := range keepAliveReads {
		nc, br := dialKeepAlive(t, "loop")
		req := []byte(read.raw)
		var err error
		roundTrip := func() {
			if err == nil {
				_, err = nc.Write(req)
			}
			if err == nil {
				err = skipReply(br)
			}
		}
		for i := 0; i < 10; i++ {
			roundTrip()
		}
		got := testing.AllocsPerRun(500, roundTrip)
		if err != nil {
			t.Fatal(err)
		}
		if got > read.allocs {
			t.Errorf("warm %s through the loop allocates %v per request, want at most %v", read.name, got, read.allocs)
		}
		t.Logf("%s: %v allocs per request", read.name, got)
	}
}

// skipReply reads one reply framed by Content-Length without
// allocating.
func skipReply(br *bufio.Reader) error {
	clen := -1
	for first := true; ; first = false {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		if first {
			if !bytes.HasPrefix(line, []byte("HTTP/1.1 200 ")) {
				return fmt.Errorf("status line %q", line)
			}
			continue
		}
		if len(line) <= 2 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			clen = 0
			for _, c := range bytes.TrimSpace(v) {
				clen = 10*clen + int(c-'0')
			}
		}
	}
	if clen < 0 {
		return errors.New("reply without Content-Length")
	}
	_, err := br.Discard(clen)
	return err
}

// TestLoopRetainedTraceKeepsItsID: every trace is retained, and each
// keeps the ID its request carried across the later requests of its
// kept-alive connection, whether the client sent the ID (under
// X-Qbs-Trace-Id or in a traceparent, a piece of the head the next head
// overwrites) or the loop minted it (into a buffer the connection
// reuses). Requests of one kind have heads of one length, so each
// overwrites the bytes of the one before it in place.
func TestLoopRetainedTraceKeepsItsID(t *testing.T) {
	s := mutableFixture(t)
	tr := obs.NewTracer(64)
	tr.SetSlowThreshold(0) // retain every trace
	s.SetTracer(tr)
	nc, err := net.Dial("tcp", startLoop(t, server.NewLoop(s)))
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	var ids []string
	for i := 0; i < 12; i++ {
		var field, want string
		switch i % 4 {
		case 0:
			want = fmt.Sprintf("client-trace-%04d", i)
			field = obs.TraceHeader + ": " + want + "\r\n"
		case 1: // a 32-digit ID with 16 leading zeros is read as its last 16
			want = fmt.Sprintf("%016x", 0xbeef00+i)
			field = obs.TraceparentHeader + ": 00-0000000000000000" + want + "-00f067aa0ba902b7-01\r\n"
		case 2:
			want = fmt.Sprintf("%016x%016x", 0xc0ffee, 0xfeed00+i)
			field = obs.TraceparentHeader + ": 00-" + want + "-00f067aa0ba902b7-00\r\n"
		}
		path := "/distance?u=0&v=3"
		if i%2 == 1 {
			path = "/spg?u=0&v=3"
		}
		if _, err := io.WriteString(nc, "GET "+path+" HTTP/1.1\r\nHost: qbs\r\n"+field+"\r\n"); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		got := resp.Header.Get(obs.TraceHeader)
		if want == "" { // minted by the loop
			if len(got) != 16 {
				t.Fatalf("request %d: minted trace ID %q, want 16 hex digits", i, got)
			}
			want = got
		}
		if resp.StatusCode != http.StatusOK || got != want {
			t.Fatalf("request %d: status %d, trace ID %q echoed, want 200 and %q", i, resp.StatusCode, got, want)
		}
		ids = append(ids, want)
	}
	for i, id := range ids {
		if st := tr.Store().Get(id); st == nil || st.TraceID != id {
			t.Errorf("request %d: no retained trace under its ID %q (got %v)", i, id, st)
		}
	}
	recent := tr.Store().Recent(100, 0, false)
	if len(recent) != len(ids) {
		t.Fatalf("%d traces retained, want %d", len(recent), len(ids))
	}
	for _, st := range recent {
		if !slices.Contains(ids, st.TraceID) {
			t.Errorf("a retained trace's ID reads %q, which no request carried", st.TraceID)
		}
	}
}

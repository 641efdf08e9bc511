package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"qbs/internal/obs"
)

// The timeouts of the query listener, the values qbs-server has always
// served with. The debug listener keeps only the header timeout: a
// profile streams for as long as it asks.
const (
	headerTimeout = 5 * time.Second   // request line and headers
	readTimeout   = 30 * time.Second  // a request with a body, headers included
	writeTimeout  = 30 * time.Second  // from the end of the headers to the end of the reply
	idleTimeout   = 120 * time.Second // between requests on a kept-alive connection
)

const (
	// maxHeaderBytes caps what the request line and headers may read off
	// the socket, net/http's default cap and slack.
	maxHeaderBytes = http.DefaultMaxHeaderBytes + 4096
	// maxDiscard is how much of a request body the handler left unread
	// is read off to keep the connection; past it the connection closes.
	maxDiscard = 256 << 10
	// flushAt bounds how much of a reply is held before it goes out. A
	// reply the handler finishes below it leaves in one write; a write of
	// at least flushAt bytes goes straight to the socket.
	flushAt = 32 << 10
	// autoLength is the largest reply that gets a Content-Length the
	// handler did not set; a longer one is chunked. It is net/http's
	// figure, so every reply is framed as net/http framed it.
	autoLength = 2048
	// maxPooledBuffer is the largest per-connection buffer returned to
	// the pool when its connection closes.
	maxPooledBuffer = 2 * flushAt
)

// Loop serves an http.Handler on net.Listeners, one goroutine per
// connection reading a request, running the handler and writing the
// reply in turn (see the package doc, "Serving loop"). Serve and
// Shutdown mirror http.Server's.
type Loop struct {
	handler http.Handler
	// The timeouts; zero is none.
	header, read, write, idle time.Duration

	ctx    context.Context // every request's; cancelled when Shutdown ends
	cancel context.CancelFunc
	base   http.Request // a request with no field set but ctx

	closing   atomic.Bool
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	drained   chan struct{} // closed once closing and no connection is left
}

// NewLoop returns a loop serving h under the query listener's timeouts.
func NewLoop(h http.Handler) *Loop {
	l := newLoop(h)
	l.header, l.read, l.write, l.idle = headerTimeout, readTimeout, writeTimeout, idleTimeout
	return l
}

// NewDebugLoop returns a loop serving h under the header timeout alone,
// for the debug listener: /debug/pprof/profile?seconds=N writes its reply
// N seconds after the request.
func NewDebugLoop(h http.Handler) *Loop {
	l := newLoop(h)
	l.header = headerTimeout
	return l
}

func newLoop(h http.Handler) *Loop {
	l := &Loop{
		handler:   h,
		listeners: map[net.Listener]struct{}{},
		conns:     map[*conn]struct{}{},
		drained:   make(chan struct{}),
	}
	l.ctx, l.cancel = context.WithCancel(context.Background())
	l.base = *new(http.Request).WithContext(l.ctx)
	return l
}

// Serve accepts connections on ln and serves each on its own goroutine.
// It returns http.ErrServerClosed once Shutdown has begun, or the error
// that stopped Accept.
func (l *Loop) Serve(ln net.Listener) error {
	l.mu.Lock()
	if l.closing.Load() {
		l.mu.Unlock()
		_ = ln.Close()
		return http.ErrServerClosed
	}
	l.listeners[ln] = struct{}{}
	l.mu.Unlock()
	var backoff time.Duration
	for {
		nc, err := ln.Accept()
		if err != nil {
			if l.closing.Load() {
				return http.ErrServerClosed
			}
			// As net/http: back off on a temporary error (out of file
			// descriptors, say) instead of spinning or giving up.
			if ne, ok := err.(net.Error); ok && ne.Temporary() {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				time.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		c := connPool.Get().(*conn)
		c.l, c.nc = l, nc
		c.state.Store(stateIdle)
		l.mu.Lock()
		if l.closing.Load() {
			l.mu.Unlock()
			_ = nc.Close()
			return http.ErrServerClosed
		}
		l.conns[c] = struct{}{}
		l.mu.Unlock()
		go c.serve()
	}
}

// Shutdown stops accepting, closes idle connections at once and lets
// the requests in flight finish, each reply then closing its connection.
// When they have, or when ctx ends first — the connections left are
// then closed — it cancels every request's context and returns ctx's
// error or nil.
func (l *Loop) Shutdown(ctx context.Context) error {
	l.mu.Lock()
	l.closing.Store(true)
	for ln := range l.listeners {
		_ = ln.Close()
	}
	for c := range l.conns {
		// An idle connection's goroutine is blocked waiting for a request;
		// the state swap keeps one that just received a byte.
		if c.state.CompareAndSwap(stateIdle, stateClosed) {
			_ = c.nc.Close()
		}
	}
	l.checkDrained()
	l.mu.Unlock()
	defer l.cancel()
	select {
	case <-l.drained:
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		for c := range l.conns {
			_ = c.nc.Close()
		}
		l.mu.Unlock()
		return ctx.Err()
	}
}

// checkDrained closes drained when the last connection has gone during
// a shutdown. l.mu is held.
func (l *Loop) checkDrained() {
	if l.closing.Load() && len(l.conns) == 0 {
		select {
		case <-l.drained:
		default:
			close(l.drained)
		}
	}
}

// Connection states, swapped atomically so Shutdown closes only a
// connection waiting for its next request.
const (
	stateIdle int32 = iota
	stateActive
	stateClosed
)

// conn is one connection and its buffers, pooled across connections.
type conn struct {
	l     *Loop
	nc    net.Conn
	state atomic.Int32
	lr    limitReader
	br    *bufio.Reader
	head  head // the request, when the loop reads the head itself
	w     response
	raddr string

	dateSec int64  // the second date holds
	date    []byte // the Date header's value, formatted once a second
}

var connPool = sync.Pool{New: func() any {
	c := new(conn)
	c.br = bufio.NewReaderSize(&c.lr, 4<<10)
	c.head = newHead()
	c.w.c = c
	c.w.handlerHeader = http.Header{}
	return c
}}

// limitReader is the socket under the bufio.Reader; it caps what the
// request line and headers may read.
type limitReader struct {
	nc net.Conn
	n  int64
}

func (r *limitReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.n {
		p = p[:r.n]
	}
	n, err := r.nc.Read(p)
	r.n -= int64(n)
	return n, err
}

// errorHeaders close the replies to requests the loop refuses before
// they reach the handler; the wording is net/http's.
const errorHeaders = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"

func (c *conn) serve() {
	c.lr.nc = c.nc
	c.br.Reset(&c.lr)
	c.raddr = c.nc.RemoteAddr().String()
	defer c.close()
	for n := 0; ; n++ {
		// Wait for the request's first byte: under the header timeout on a
		// new connection, under the idle timeout between requests.
		c.lr.n = maxHeaderBytes
		if n == 0 || c.br.Buffered() == 0 {
			if n == 0 {
				c.deadline(c.l.header)
			} else {
				c.state.Store(stateIdle)
				if c.l.closing.Load() {
					return
				}
				c.deadline(c.l.idle)
			}
			if _, err := c.br.Peek(1); err != nil || !c.state.CompareAndSwap(stateIdle, stateActive) {
				return
			}
		}
		t0 := time.Now()
		headEnd := t0 // a head the loop reads itself is all buffered
		buffered, _ := c.br.Peek(c.br.Buffered())
		req, size := c.head.parse(buffered, &c.l.base)
		if req != nil {
			_, _ = c.br.Discard(size)
		} else {
			// Reading a head not all buffered yet can block: under the
			// header timeout.
			if n > 0 && size == 0 {
				c.deadline(c.l.header)
			}
			var err error
			if req, err = http.ReadRequest(c.br); err != nil {
				c.refuse(err)
				return
			}
			req = req.WithContext(c.l.ctx)
			headEnd = time.Now()
		}
		c.lr.n = math.MaxInt64
		if req.ProtoMajor != 1 {
			c.reply("505 HTTP Version Not Supported: unsupported protocol version")
			return
		}
		if req.Host == "" && req.ProtoAtLeast(1, 1) {
			// ReadRequest moves Host out of the header into req.Host.
			c.reply("400 Bad Request: missing required Host header")
			return
		}
		req.RemoteAddr = c.raddr
		if req.Body != http.NoBody {
			c.deadlineFrom(t0, c.l.read)
		}
		if c.l.write > 0 {
			_ = c.nc.SetWriteDeadline(headEnd.Add(c.l.write))
		}
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			// A write can hold its thread in the kernel (the WAL's fsync)
			// for milliseconds. If no other thread is then parked in the
			// network poller, a request arriving on another connection
			// waits for the write to end. A new goroutine wakes an idle
			// P's thread, which parks in the poller once it finds no work.
			// net/http's per-request goroutine did this on every request;
			// reads, which block in no syscall, skip it.
			go func() {}()
		}
		w := &c.w
		w.reset(req)
		if expect := req.Header["Expect"]; len(expect) > 0 && !hasToken(expect[0], "100-continue") {
			w.Header().Set("Connection", "close")
			w.WriteHeader(http.StatusExpectationFailed)
		} else {
			if len(expect) > 0 && req.ProtoAtLeast(1, 1) && w.body != nil {
				w.body.expect = true
			}
			if !c.run(w, req) {
				return
			}
		}
		w.finish()
		unread := w.body != nil && w.body.end()
		if w.closeAfter || w.err != nil {
			if unread {
				c.linger()
			}
			return
		}
	}
}

// run calls the handler, recovering a panic as net/http does: logged
// unless it is http.ErrAbortHandler, and the connection dropped with
// nothing of the reply sent that was not already.
func (c *conn) run(w *response, req *http.Request) (ok bool) {
	defer func() {
		if err := recover(); err != nil {
			if err != http.ErrAbortHandler {
				buf := make([]byte, 64<<10)
				buf = buf[:runtime.Stack(buf, false)]
				log.Printf("http: panic serving %v: %v\n%s", c.raddr, err, buf)
			}
			ok = false
		}
	}()
	c.l.handler.ServeHTTP(w, req)
	return true
}

// deadline sets the read deadline d from now; zero clears it.
func (c *conn) deadline(d time.Duration) { c.deadlineFrom(time.Now(), d) }

func (c *conn) deadlineFrom(t time.Time, d time.Duration) {
	var at time.Time
	if d > 0 {
		at = t.Add(d)
	}
	_ = c.nc.SetReadDeadline(at)
}

// refuse answers a request ReadRequest could not parse, as net/http
// does: 431 past the header cap, no reply when the socket failed or
// timed out, 400 otherwise.
func (c *conn) refuse(err error) {
	var ne net.Error
	switch {
	case c.lr.n <= 0:
		c.reply("431 Request Header Fields Too Large")
		c.linger()
	case err == io.EOF, errors.As(err, &ne) && ne.Timeout():
	default:
		var oe *net.OpError
		if !errors.As(err, &oe) || oe.Op != "read" {
			c.reply("400 Bad Request")
		}
	}
}

// reply writes a refusal whose status line and body are both msg.
func (c *conn) reply(msg string) {
	if c.l.write > 0 {
		_ = c.nc.SetWriteDeadline(time.Now().Add(c.l.write))
	}
	_, _ = io.WriteString(c.nc, "HTTP/1.1 "+msg+errorHeaders+msg)
}

// linger half-closes the connection and reads off what the client is
// still sending, for a moment, so the reply is not lost to a reset.
func (c *conn) linger() {
	if cw, ok := c.nc.(interface{ CloseWrite() error }); ok {
		_ = cw.CloseWrite()
	}
	c.lr.n = math.MaxInt64
	c.deadline(500 * time.Millisecond)
	_, _ = io.Copy(io.Discard, c.br)
}

func (c *conn) close() {
	if c.w.body != nil {
		c.w.body.end() // a handler that panicked left it live
	}
	_ = c.nc.Close()
	l := c.l
	l.mu.Lock()
	delete(l.conns, c)
	l.checkDrained()
	l.mu.Unlock()
	c.w.release()
	c.head.release()
	if cap(c.w.hdr) > maxPooledBuffer || cap(c.w.buf) > maxPooledBuffer {
		return
	}
	c.l, c.nc, c.lr.nc, c.raddr = nil, nil, nil, ""
	c.br.Reset(&c.lr)
	connPool.Put(c)
}

// response is the http.ResponseWriter of one request: the handler's
// writes collect in buf; the status line and headers go out with the
// first flush of it, which is the end of the handler for a reply below
// flushAt bytes.
type response struct {
	c   *conn
	req *http.Request

	handlerHeader http.Header
	slots         [headerSlots][1]string // values setHeader puts in handlerHeader
	nslots        int
	// The bytes of two header values, which their strings view until the
	// next request: a minted trace ID and a declared Content-Length.
	traceID       obs.TraceIDBuf
	contentLength [20]byte
	keys          []string // handlerHeader's names, sorted for the reply
	status        int
	clen          int64 // the declared Content-Length; -1 when none
	written       int64 // body bytes the handler wrote
	sent          bool  // the status line and headers are out
	chunked       bool
	closeAfter    bool
	err           error // the first failed write; the connection closes

	body *reqBody // nil when the request has none
	hdr  []byte   // what the next write sends: the status line and headers, a chunk
	buf  []byte   // body bytes not yet sent
}

// reqBody is the request body as the handler sees it. It tracks EOF, so
// the loop knows after the reply whether the connection can carry
// another request, and answers Expect: 100-continue on the first read.
// A goroutine other than the handler's may read or close it, even after
// the handler returns (an http.Client forwarding it closes it when done),
// so it is one per request, locked, and inert once the request is over.
type reqBody struct {
	mu        sync.Mutex
	nc        net.Conn
	rc        io.ReadCloser // ReadRequest's body
	read      int64
	sawEOF    bool
	closed    bool
	expect    bool // the request asked for 100 Continue
	continued bool // and it was answered, or the reply went out first
	done      bool // the request is over: touch neither rc nor nc
}

func (b *reqBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed || b.done {
		return 0, http.ErrBodyReadAfterClose
	}
	if b.expect && !b.continued {
		b.continued = true
		if _, err := io.WriteString(b.nc, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
			return 0, err
		}
	}
	n, err := b.rc.Read(p)
	b.read += int64(n)
	if err == io.EOF {
		b.sawEOF = true
	}
	return n, err
}

// Close reads off a short remainder, as net/http's server does, so the
// connection stays usable; a longer one stays unread and closes it.
func (b *reqBody) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed && !b.done && !b.sawEOF && (!b.expect || b.continued) {
		b.discard()
	}
	b.closed = true
	return nil
}

// discard reads off at most maxDiscard bytes and reports whether the
// body ended within them. b.mu is held.
func (b *reqBody) discard() bool {
	if _, err := io.CopyN(io.Discard, b.rc, maxDiscard+1); err == io.EOF {
		b.sawEOF = true
	}
	return b.sawEOF
}

// end marks the request over and reports whether its body was left
// unread.
func (b *reqBody) end() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.done = true
	return !b.sawEOF
}

// headerSlots is how many reply headers setHeader sets without a slice
// of their own: the Content-Type, X-Qbs-Trace-Id and Content-Length of
// every reply here, and one spare.
const headerSlots = 4

// setHeader sets the reply header k, canonical, to the single value v.
// On the loop's writer the value takes a slot the connection keeps, so
// it costs no allocation; a handler may not keep w.Header()'s values
// past its return.
func setHeader(w http.ResponseWriter, k, v string) {
	if rw, ok := w.(*response); ok && rw.nslots < headerSlots {
		slot := rw.slots[rw.nslots][:]
		rw.nslots++
		slot[0] = v
		rw.handlerHeader[k] = slot
		return
	}
	w.Header()[k] = []string{v}
}

// setContentLength declares the reply's length, n bytes, as the
// Content-Length header. On the loop's writer the digits go into a
// buffer the connection keeps, so it costs no allocation.
func setContentLength(w http.ResponseWriter, n int) {
	rw, ok := w.(*response)
	if !ok {
		setHeader(w, "Content-Length", strconv.Itoa(n))
		return
	}
	digits := strconv.AppendInt(rw.contentLength[:0], int64(n), 10)
	setHeader(w, "Content-Length", unsafe.String(unsafe.SliceData(digits), len(digits)))
}

// statusSent is the reply's status as the client sees it: the one
// written, 200 when the handler wrote none.
func (w *response) statusSent() int {
	if w.status == 0 {
		return http.StatusOK
	}
	return w.status
}

func (w *response) reset(req *http.Request) {
	w.req = req
	clear(w.handlerHeader)
	w.nslots = 0
	w.status, w.clen, w.written = 0, -1, 0
	w.sent, w.chunked, w.closeAfter, w.err = false, false, false, nil
	w.hdr, w.buf = w.hdr[:0], w.buf[:0]
	w.body = nil
	if req.Body != http.NoBody {
		w.body = &reqBody{nc: w.c.nc, rc: req.Body}
		req.Body = w.body
	}
}

// release drops the request's references before the connection is
// pooled.
func (w *response) release() {
	w.req, w.body = nil, nil
	clear(w.handlerHeader)
	clear(w.slots[:])
	clear(w.keys[:cap(w.keys)])
}

func (w *response) Header() http.Header { return w.handlerHeader }

func (w *response) WriteHeader(code int) {
	if w.status != 0 {
		return
	}
	if code < 100 || code > 999 {
		panic("invalid WriteHeader code " + strconv.Itoa(code))
	}
	w.status = code
	if cl := w.handlerHeader["Content-Length"]; len(cl) > 0 {
		if v, err := strconv.ParseInt(cl[0], 10, 64); err == nil && v >= 0 {
			w.clen = v
		} else {
			w.handlerHeader.Del("Content-Length")
		}
	}
}

func (w *response) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	switch {
	case !bodyAllowed(w.status):
		return 0, http.ErrBodyNotAllowed
	case w.clen >= 0 && w.written+int64(len(p)) > w.clen:
		return 0, http.ErrContentLength
	case w.err != nil:
		return 0, w.err
	}
	w.written += int64(len(p))
	if len(w.buf)+len(p) < flushAt {
		w.buf = append(w.buf, p...)
		return len(p), nil
	}
	w.flush(false)
	if len(p) < flushAt {
		w.buf = append(w.buf, p...)
	} else {
		w.send(p)
	}
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// send writes p, a body write too large to buffer, after the headers.
func (w *response) send(p []byte) {
	switch {
	case w.req.Method == "HEAD":
	case w.chunked:
		w.hdr = strconv.AppendInt(w.hdr[:0], int64(len(p)), 16)
		bufs := net.Buffers{w.hdr, []byte("\r\n"), p, []byte("\r\n")}
		if w.err == nil {
			_, w.err = bufs.WriteTo(w.c.nc)
		}
	default:
		w.write(p)
	}
}

// flush writes what is buffered, after the status line and headers if
// they are not out yet; final is the end of the handler, and of a chunked
// reply.
func (w *response) flush(final bool) {
	b := w.hdr[:0]
	if !w.sent {
		w.commit(final)
		w.sent = true
		b = w.hdr
	}
	if w.req.Method != "HEAD" && bodyAllowed(w.status) {
		b = w.frame(b, w.buf)
	}
	if final && w.chunked {
		b = append(b, "0\r\n\r\n"...)
	}
	w.hdr, w.buf = b, w.buf[:0]
	if len(b) > 0 {
		w.write(b)
	}
}

// frame appends p to b, as a chunk when the reply is chunked.
func (w *response) frame(b, p []byte) []byte {
	if len(p) == 0 {
		return b
	}
	if !w.chunked {
		return append(b, p...)
	}
	b = strconv.AppendInt(b, int64(len(p)), 16)
	b = append(b, "\r\n"...)
	b = append(b, p...)
	return append(b, "\r\n"...)
}

func (w *response) write(p []byte) {
	if w.err == nil {
		_, w.err = w.c.nc.Write(p)
	}
}

// finish completes the reply once the handler has returned.
func (w *response) finish() {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	w.flush(true)
	if w.req.Method != "HEAD" && w.clen >= 0 && bodyAllowed(w.status) && w.written != w.clen {
		// The reply is short of its Content-Length: the client would read
		// the next reply as the rest of this one.
		w.closeAfter = true
	}
}

// commit decides the framing and the keep-alive of the reply and writes
// its status line and headers into w.hdr, by net/http's rules.
func (w *response) commit(final bool) {
	req, code, h := w.req, w.status, w.handlerHeader
	w.settleRequestBody()
	isHEAD := req.Method == "HEAD"
	bodyOK := bodyAllowed(code)
	var ctype, connection string
	autoLen := final && w.clen < 0 && bodyOK && (!isHEAD || len(w.buf) > 0) && len(w.buf) <= autoLength
	if autoLen {
		w.clen = int64(len(w.buf))
	}
	hasCL := w.clen >= 0
	keepAlives := !w.c.l.closing.Load()
	connHdr := h["Connection"]
	handlerClose := len(connHdr) > 0 && hasToken(connHdr[0], "close")
	switch {
	case !keepAlives:
		w.closeAfter = true
	case !req.ProtoAtLeast(1, 1) && len(req.Header["Connection"]) > 0 && hasToken(req.Header["Connection"][0], "keep-alive") && (isHEAD || hasCL || !bodyOK):
		if len(connHdr) == 0 {
			connection = "keep-alive"
		}
	case !req.ProtoAtLeast(1, 1) || req.Close:
		w.closeAfter = true
	}
	if handlerClose {
		w.closeAfter = true
	}
	delete(h, "Transfer-Encoding")
	if !bodyOK {
		delete(h, "Content-Length")
		if code == http.StatusNotModified {
			delete(h, "Content-Type")
		}
	} else if _, ok := h["Content-Type"]; !ok && len(w.buf) > 0 && len(h["Content-Encoding"]) == 0 {
		ctype = http.DetectContentType(w.buf)
	}
	if !isHEAD && bodyOK && !hasCL {
		if req.ProtoAtLeast(1, 1) {
			w.chunked = true
		} else {
			w.closeAfter = true
		}
	}
	if w.closeAfter && !(keepAlives && handlerClose) {
		delete(h, "Connection")
		if req.ProtoAtLeast(1, 1) {
			connection = "close"
		}
	}

	b := w.hdr[:0]
	if req.ProtoAtLeast(1, 1) {
		b = append(b, "HTTP/1.1 "...)
	} else {
		b = append(b, "HTTP/1.0 "...)
	}
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, ' ')
	if text := http.StatusText(code); text != "" {
		b = append(b, text...)
	} else {
		b = append(b, "status code "...)
		b = strconv.AppendInt(b, int64(code), 10)
	}
	b = append(b, "\r\n"...)
	// The handler's headers in the order of their names, as net/http
	// writes them, so that a reply's bytes do not depend on the map's.
	keys := w.keys[:0]
	for k := range h {
		if validToken(k) {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	w.keys = keys
	for _, k := range keys {
		for _, v := range h[k] {
			b = appendHeader(b, k, v)
		}
	}
	if _, ok := h["Date"]; !ok {
		b = append(b, "Date: "...)
		b = append(b, w.c.dateNow()...)
		b = append(b, "\r\n"...)
	}
	if autoLen {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, w.clen, 10)
		b = append(b, "\r\n"...)
	}
	if ctype != "" {
		b = appendHeader(b, "Content-Type", ctype)
	}
	if connection != "" {
		b = appendHeader(b, "Connection", connection)
	}
	if w.chunked {
		b = append(b, "Transfer-Encoding: chunked\r\n"...)
	}
	w.hdr = append(b, "\r\n"...)
}

// dateNow returns the Date header's value for now. It is formatted
// again only when the second has changed since the last reply.
func (c *conn) dateNow() []byte {
	now := time.Now()
	if sec := now.Unix(); sec != c.dateSec || len(c.date) == 0 {
		c.date = now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
		c.dateSec = sec
	}
	return c.date
}

// settleRequestBody decides, before the reply goes out, whether what the
// handler left of the request body lets the connection carry another
// request: a remainder of at most maxDiscard bytes is read off, a longer
// one, a body closed early or an unanswered 100-continue closes it.
func (w *response) settleRequestBody() {
	b := w.body
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.sawEOF:
	case b.expect:
		// Whether or not 100 Continue went out, the client may still be
		// deciding what to send.
		w.closeAfter = true
	case w.closeAfter:
	case b.closed:
		w.closeAfter = true
	case w.req.ContentLength > 0 && w.req.ContentLength-b.read >= maxDiscard:
		w.closeAfter = true
	default:
		if !b.discard() {
			w.closeAfter = true
		}
	}
	// The reply goes out now: no 100 Continue may follow it.
	b.continued = true
}

func appendHeader(b []byte, k, v string) []byte {
	b = append(b, k...)
	b = append(b, ": "...)
	// A value cannot end the header early: line breaks become spaces.
	v = strings.TrimSpace(v)
	for i := 0; i < len(v); i++ {
		if c := v[i]; c == '\r' || c == '\n' {
			b = append(b, ' ')
		} else {
			b = append(b, c)
		}
	}
	return append(b, "\r\n"...)
}

// bodyAllowed reports whether a reply with this status carries a body.
func bodyAllowed(code int) bool {
	return !(code >= 100 && code <= 199 || code == http.StatusNoContent || code == http.StatusNotModified)
}

// hasToken reports whether the comma-separated list v holds token, a
// lower-case one: blanks around each item trimmed and ASCII case folded,
// as net/http's header token test does.
func hasToken(v, token string) bool {
	for v != "" {
		var t string
		t, v, _ = strings.Cut(v, ",")
		if asciiEqualFold(strings.Trim(t, " \t"), token) {
			return true
		}
	}
	return false
}

// asciiEqualFold reports whether s equals the lower-case t, folding the
// case of ASCII letters only.
func asciiEqualFold(s, t string) bool {
	if len(s) != len(t) {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != t[i] {
			return false
		}
	}
	return true
}

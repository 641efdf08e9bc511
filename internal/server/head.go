package server

import (
	"bytes"
	"io"
	"net/http"
	"net/url"
	"strings"
	"unsafe"
)

// head is the request the loop reads without http.ReadRequest, one per
// connection and reset for each request: the request, its URL and its
// header map are reused, and every string of them is a view of one copy
// of the head's bytes, in a buffer the connection keeps and the next
// head overwrites. The strings are therefore valid until the handler
// returns, the lifetime every handler's request has (package doc,
// "Serving loop"); what outlives the request copies what it keeps. It
// accepts only what it reads exactly as
// http.ReadRequest would (FuzzHeadParse holds the two equal): a request
// line "<token> /<path>[?<query>] HTTP/1.x" whose path needs no escape,
// and header fields each on one line, with no body declared. Any other
// head — a body, an absolute or escaped URI, folded or malformed
// lines, a second Host, a Pragma, a head not yet all in the buffer — is
// left to http.ReadRequest, which reads it from the same bytes: body
// framing, chunking, 100-continue and every refusal stay net/http's.
type head struct {
	req    http.Request
	url    url.URL
	hdr    http.Header
	vals   []string // the one-element value slices of hdr
	buf    []byte   // the head, its field names made canonical: every string's bytes
	fields []field
}

// field is one header field of the head, as offsets into its copy.
type field struct{ k0, k1, v0, v1 int }

var (
	crlf      = []byte("\r\n")
	blankLine = []byte("\r\n\r\n")
	// noBody is http.NoBody as an interface value made once: converting
	// it in parse would be, to escape analysis, a value escaping to the
	// heap.
	noBody io.ReadCloser = http.NoBody
)

// parse reads the request head at the start of b into h's request, whose
// every field but the context it resets from base. It returns the
// request, or nil when it leaves the head to http.ReadRequest, and the
// length of the head, or 0 when b does not hold all of it. h.hdr must
// be a map (newHead's).
//
//qbs:zeroalloc
func (h *head) parse(b []byte, base *http.Request) (*http.Request, int) {
	end := bytes.Index(b, blankLine)
	if end < 0 {
		return nil, 0
	}
	size := end + len(blankLine)
	buf := append(h.buf[:0], b[:end]...)
	h.buf = buf
	line, rest, more := bytes.Cut(buf, crlf)
	// The request line: http.ReadRequest cuts it at the first two spaces.
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 {
		return nil, size
	}
	sp2 := bytes.IndexByte(line[sp1+1:], ' ') + sp1 + 1
	if sp2 == sp1 {
		return nil, size
	}
	method, uri := line[:sp1], line[sp1+1:sp2]
	var minor int
	switch string(line[sp2+1:]) {
	case "HTTP/1.1":
		minor = 1
	case "HTTP/1.0":
	default:
		return nil, size
	}
	if !validToken(method) || string(method) == http.MethodConnect || !requestPath(uri) {
		return nil, size
	}

	// The header fields, one a line, their names made canonical in place.
	h.fields = h.fields[:0]
	host, length := -1, false
	for off := len(line) + len(crlf); more; {
		var l []byte
		l, rest, more = bytes.Cut(rest, crlf)
		f, ok := headerField(l, off)
		if !ok {
			return nil, size
		}
		off += len(l) + len(crlf)
		name := buf[f.k0:f.k1]
		canonicalKey(name)
		switch string(name) {
		case "Host":
			if host >= 0 {
				return nil, size // http.ReadRequest refuses a second Host
			}
			host = len(h.fields)
		case "Content-Length":
			// Past a lone zero, a body or a length for http.ReadRequest to
			// judge.
			if string(buf[f.v0:f.v1]) != "0" || length {
				return nil, size
			}
			length = true
		case "Transfer-Encoding", "Pragma":
			// A body, or a header http.ReadRequest rewrites.
			return nil, size
		}
		h.fields = append(h.fields, f)
	}

	// The one copy, which the connection keeps; every string of the
	// request is a piece of it.
	s := unsafe.String(unsafe.SliceData(buf), len(buf))
	h.req = *base
	r := &h.req
	r.Method = s[:sp1]
	r.RequestURI = s[sp1+1 : sp2]
	r.Proto = s[sp2+1 : len(line)]
	r.ProtoMajor, r.ProtoMinor = 1, minor
	path, query, force := r.RequestURI, "", false
	if strings.HasSuffix(path, "?") && strings.Count(path, "?") == 1 {
		path, force = path[:len(path)-1], true // as url.ParseRequestURI
	} else {
		path, query, _ = strings.Cut(path, "?")
	}
	h.url = url.URL{Path: path, RawQuery: query, ForceQuery: force}
	r.URL = &h.url
	clear(h.hdr)
	vals := h.vals[:0]
	for i, f := range h.fields {
		k, v := s[f.k0:f.k1], s[f.v0:f.v1]
		if i == host {
			r.Host = v // http.ReadRequest moves Host out of the header
			continue
		}
		if vs, ok := h.hdr[k]; ok {
			h.hdr[k] = append(vs, v) // a repeated field: its own slice
			continue
		}
		vals = append(vals, v)
		h.hdr[k] = vals[len(vals)-1 : len(vals) : len(vals)]
	}
	h.vals = vals
	r.Header = h.hdr
	r.Body = noBody
	r.Close = shouldClose(minor, h.hdr["Connection"])
	return r, size
}

// newHead returns a head ready to parse.
func newHead() head { return head{hdr: http.Header{}} }

// release drops every reference to the last request before the
// connection is pooled.
func (h *head) release() {
	h.req, h.url = http.Request{}, url.URL{}
	clear(h.hdr)
	clear(h.vals[:cap(h.vals)])
}

// headerField splits l, a header line starting at offset at of the head,
// into its name and its value trimmed of blanks, as textproto does; ok is
// false for a line it would fold, refuse or keep a malformed name of.
func headerField(l []byte, at int) (f field, ok bool) {
	if len(l) == 0 || l[0] == ' ' || l[0] == '\t' {
		return f, false
	}
	colon := bytes.IndexByte(l, ':')
	if colon < 0 || !validToken(l[:colon]) {
		return f, false
	}
	v0, v1 := colon+1, len(l)
	for i := v0; i < v1; i++ {
		if !validValueByte(l[i]) {
			return f, false
		}
	}
	for v0 < v1 && (l[v0] == ' ' || l[v0] == '\t') {
		v0++
	}
	for v1 > v0 && (l[v1-1] == ' ' || l[v1-1] == '\t') {
		v1--
	}
	return field{k0: at, k1: at + colon, v0: at + v0, v1: at + v1}, true
}

// requestPath reports whether uri is an origin-form request target that
// url.ParseRequestURI takes apart with no unescaping: a path of bytes
// that need no escape, then an optional query of any bytes but controls.
func requestPath(uri []byte) bool {
	if len(uri) == 0 || uri[0] != '/' {
		return false
	}
	path, query, _ := bytes.Cut(uri, []byte("?"))
	for _, c := range path {
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			strings.IndexByte("-_.~$&+,/:;=@", c) >= 0) {
			return false
		}
	}
	for _, c := range query {
		if c < ' ' || c == 0x7f {
			return false
		}
	}
	return true
}

// validToken reports whether b is an RFC 7230 token: a method, or a
// header field name.
func validToken[T string | []byte](b T) bool {
	for i := 0; i < len(b); i++ {
		c := b[i]
		if !('a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' ||
			strings.IndexByte("!#$%&'*+-.^_`|~", c) >= 0) {
			return false
		}
	}
	return len(b) > 0
}

// validValueByte reports whether c may appear in a header field value:
// anything but a control other than tab.
func validValueByte(c byte) bool { return c >= ' ' && c != 0x7f || c == '\t' }

// canonicalKey rewrites a valid field name in place to its canonical
// form, as textproto.CanonicalMIMEHeaderKey does.
func canonicalKey(k []byte) {
	upper := true
	for i, c := range k {
		if upper && 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		} else if !upper && 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		k[i] = c
		upper = c == '-'
	}
}

// shouldClose is net/http's reading of the Connection header of a
// request, HTTP/1.minor, for whether the connection ends after it.
func shouldClose(minor int, connection []string) bool {
	hasClose := containsToken(connection, "close")
	if minor == 0 {
		return hasClose || !containsToken(connection, "keep-alive")
	}
	return hasClose
}

// containsToken reports whether any of the values vs holds token, as
// net/http reads a request's Connection header.
func containsToken(vs []string, token string) bool {
	for _, v := range vs {
		if hasToken(v, token) {
			return true
		}
	}
	return false
}

package server

import (
	"net/http"
	"time"
)

// MaxPooledBuffer is the largest reply buffer a closing connection
// returns to the pool.
const MaxPooledBuffer = maxPooledBuffer

// SetTimeouts sets l's header, read, write and idle timeouts (zero is
// none), short enough for a test to see them fire.
func SetTimeouts(l *Loop, header, read, write, idle time.Duration) {
	l.header, l.read, l.write, l.idle = header, read, write, idle
}

// Conns returns how many connections l holds open.
func Conns(l *Loop) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.conns)
}

// PooledBufferCaps takes every used connection out of the pool and
// returns the capacities of its reply buffers.
func PooledBufferCaps() []int {
	var caps []int
	for {
		c := connPool.Get().(*conn)
		if cap(c.w.hdr) == 0 && cap(c.w.buf) == 0 {
			return caps
		}
		caps = append(caps, cap(c.w.hdr), cap(c.w.buf))
	}
}

// RaceEnabled reports whether the race detector is on: allocation counts
// then mean nothing.
const RaceEnabled = raceEnabled

// HeadParser is the head reader of one of the loop's connections.
type HeadParser struct {
	h    head
	base http.Request
}

// Parse reads the head at the start of b as the loop does: the request,
// or nil when the loop would leave b to http.ReadRequest, and the length
// of the head, or 0 when b does not hold all of it. The request is valid
// until the next Parse.
func (p *HeadParser) Parse(b []byte) (*http.Request, int) {
	if p.h.hdr == nil {
		p.h = newHead()
	}
	return p.h.parse(b, &p.base)
}

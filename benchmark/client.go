package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// requestTimeout bounds one request; a reply later than this is a
// failed operation. Reads answer within tens of milliseconds; a write
// repairing the index beside two saturated cores has been seen to take a
// quarter of a second, and a failure should mean a fault, not a busy host.
const requestTimeout = 2 * time.Second

// conn is one keep-alive HTTP/1.1 connection driven by one goroutine.
// The load generator owns its sockets (rather than sharing an
// http.Transport pool) so that "2 connections" is exact and the
// generator's own CPU per request stays small beside the server's.
type conn struct {
	addr string // host:port
	c    net.Conn
	br   *bufio.Reader
	req  []byte
	body bytes.Buffer
}

func dial(baseURL string) *conn {
	return &conn{addr: strings.TrimPrefix(baseURL, "http://")}
}

func (c *conn) close() {
	if c.c != nil {
		_ = c.c.Close()
		c.c = nil
	}
}

// do sends one request and returns the status and the body. The body
// aliases the connection's buffer and is valid until the next call. A
// transport error closes the socket; the next call redials.
func (c *conn) do(method, path string, payload []byte) (int, []byte, error) {
	if c.c == nil {
		nc, err := net.DialTimeout("tcp", c.addr, requestTimeout)
		if err != nil {
			return 0, nil, err
		}
		c.c = nc
		c.br = bufio.NewReaderSize(nc, 16<<10)
	}
	c.req = append(c.req[:0], method...)
	c.req = append(c.req, ' ')
	c.req = append(c.req, path...)
	c.req = append(c.req, " HTTP/1.1\r\nHost: "...)
	c.req = append(c.req, c.addr...)
	if payload != nil {
		c.req = append(c.req, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		c.req = strconv.AppendInt(c.req, int64(len(payload)), 10)
	}
	c.req = append(c.req, "\r\n\r\n"...)
	c.req = append(c.req, payload...)

	status, err := c.roundTrip()
	if err != nil {
		c.close()
		return 0, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	return status, c.body.Bytes(), nil
}

func (c *conn) roundTrip() (int, error) {
	if err := c.c.SetDeadline(time.Now().Add(requestTimeout)); err != nil {
		return 0, err
	}
	if _, err := c.c.Write(c.req); err != nil {
		return 0, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = io.Copy(&c.body, resp.Body)
	_ = resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, nil
}

package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection driven synchronously by
// one client goroutine: write the request, read the reply. It exists
// because net/http's client spends two extra goroutines and a few
// dozen allocations per request, which would be charged to every
// metric; here the buffers are reused, so the client's cost per
// operation is small and constant.
type conn struct {
	c    net.Conn
	br   *bufio.Reader
	host string
	req  []byte
	body []byte
	// spans, when set, receives one client.roundtrip span per request,
	// and extra is appended to every request's headers (the traced pass
	// only).
	spans *spanLog
	extra string
}

func dial(addr string) (*conn, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("dialing %s: %w", addr, err)
	}
	return &conn{c: c, br: bufio.NewReaderSize(c, 16<<10), host: addr}, nil
}

func (c *conn) close() { _ = c.c.Close() }

// arm bounds every read and write until t, so a wedged server fails
// the run instead of hanging it.
func (c *conn) arm(t time.Time) { _ = c.c.SetDeadline(t) }

var (
	hdrContentLength = []byte("content-length:")
	hdrChunked       = []byte("transfer-encoding: chunked")
	errShortStatus   = errors.New("malformed HTTP status line")
)

// do sends one request and returns the status and body. The body
// aliases the connection's buffer and is valid until the next call.
// header is either empty or complete "Name: value\r\n" lines.
func (c *conn) do(method, path, header string, payload []byte) (int, []byte, error) {
	var t0 int64
	if c.spans != nil {
		t0 = c.spans.now()
	}
	b := c.req[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: "...)
	b = append(b, c.host...)
	b = append(b, "\r\n"...)
	b = append(b, header...)
	b = append(b, c.extra...)
	if payload != nil || method != "GET" {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(payload)), 10)
		b = append(b, "\r\n"...)
	}
	b = append(b, "\r\n"...)
	b = append(b, payload...)
	c.req = b
	if _, err := c.c.Write(b); err != nil {
		return 0, nil, err
	}
	status, body, err := c.readResponse(method)
	if c.spans != nil && err == nil {
		c.spans.add(layerRoundtrip, "", t0, c.spans.now())
	}
	return status, body, err
}

func (c *conn) readResponse(method string) (int, []byte, error) {
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	// "HTTP/1.1 200 OK"
	if len(line) < 12 {
		return 0, nil, errShortStatus
	}
	status, ok := atoi(line[9:12])
	if !ok {
		return 0, nil, errShortStatus
	}
	length, chunked := -1, false
	for {
		line, err = c.br.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		switch {
		case hasPrefixFold(line, hdrContentLength):
			v := bytes.TrimSpace(line[len(hdrContentLength):])
			if length, ok = atoi(v); !ok {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		case hasPrefixFold(line, hdrChunked):
			chunked = true
		}
	}
	c.body = c.body[:0]
	switch {
	case status == 204 || status == 304 || method == "HEAD":
	case chunked:
		for {
			line, err = c.br.ReadSlice('\n')
			if err != nil {
				return 0, nil, err
			}
			size, err := strconv.ParseInt(string(bytes.TrimSpace(line)), 16, 32)
			if err != nil {
				return 0, nil, fmt.Errorf("bad chunk size %q", line)
			}
			if err := c.readBody(int(size) + 2); err != nil {
				return 0, nil, err
			}
			c.body = c.body[:len(c.body)-2]
			if size == 0 {
				break
			}
		}
	case length >= 0:
		if err := c.readBody(length); err != nil {
			return 0, nil, err
		}
	default:
		return 0, nil, errors.New("response has neither Content-Length nor chunked encoding")
	}
	return status, c.body, nil
}

// readBody appends n bytes from the connection to c.body.
func (c *conn) readBody(n int) error {
	at := len(c.body)
	if cap(c.body) < at+n {
		grown := make([]byte, at, max(2*cap(c.body), at+n))
		copy(grown, c.body)
		c.body = grown
	}
	c.body = c.body[:at+n]
	_, err := io.ReadFull(c.br, c.body[at:])
	return err
}

// atoi parses a non-empty run of decimal digits without allocating.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	n := 0
	for _, d := range b {
		if d < '0' || d > '9' {
			return 0, false
		}
		n = n*10 + int(d-'0')
	}
	return n, true
}

// hasPrefixFold reports whether line starts with lowerPrefix, ignoring
// ASCII case, without allocating.
func hasPrefixFold(line, lowerPrefix []byte) bool {
	if len(line) < len(lowerPrefix) {
		return false
	}
	for i, p := range lowerPrefix {
		c := line[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != p {
			return false
		}
	}
	return true
}

package trigger

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"crypto/tls"
	"io"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

const (
	// webhookDrainLimit bounds how much of a response body is read to
	// get the connection back into the pool.
	webhookDrainLimit = 4 << 10
	// webhookUserAgent is the User-Agent every attempt sends, the one
	// net/http's client sends when a request names none.
	webhookUserAgent = "Go-http-client/1.1"
	// maxIdleHookConns and hookIdleTimeout bound the idle connections as
	// net/http's DefaultTransport does: at most 100 in all, none reused
	// after 90 s idle.
	maxIdleHookConns = 100
	hookIdleTimeout  = 90 * time.Second
)

// expired is a deadline in the past: set on a connection, it ends every
// read and write in flight on it at once.
var expired = time.Unix(1, 0)

// endpoint is a webhook URL in the form its attempts use, built when the
// subscription is stored: where to dial, and every byte of a request
// but its Content-Length value and its body.
type endpoint struct {
	// key names the endpoint's idle connections: scheme and address.
	key string
	// addr is the host and port dialled, the scheme's port when the URL
	// names none.
	addr string
	// serverName is the name TLS verifies; empty for http.
	serverName string
	// head and tail are a request's bytes before and after its
	// Content-Length value, in the order net/http writes them: the
	// request line, Host and User-Agent, then the header, whose keys
	// are sorted, and the blank line that ends it.
	head, tail []byte
}

// newEndpoint renders the requests a webhook's attempts send: a POST of
// the URL's path and query to its host, with header.
func newEndpoint(hook *url.URL, header http.Header) *endpoint {
	ep := &endpoint{}
	port := hook.Port()
	if hook.Scheme == "https" {
		ep.serverName = hook.Hostname()
		port = cmp.Or(port, "443")
	}
	ep.addr = net.JoinHostPort(hook.Hostname(), cmp.Or(port, "80"))
	ep.key = hook.Scheme + "://" + ep.addr
	ep.head = []byte("POST " + hook.RequestURI() + " HTTP/1.1\r\nHost: " + hook.Host +
		"\r\nUser-Agent: " + webhookUserAgent + "\r\nContent-Length: ")
	tail := bytes.NewBufferString("\r\n")
	header.Write(tail)
	tail.WriteString("\r\n")
	ep.tail = tail.Bytes()
	return ep
}

// appendRequest appends the request that POSTs payload to dst.
func (ep *endpoint) appendRequest(dst, payload []byte) []byte {
	dst = strconv.AppendInt(append(dst, ep.head...), int64(len(payload)), 10)
	return append(append(dst, ep.tail...), payload...)
}

// hookConn is one connection to a webhook endpoint with the buffers its
// attempts reuse: a request is assembled in buf and leaves in one write,
// and answers are read through br.
type hookConn struct {
	net.Conn
	br  *bufio.Reader
	buf []byte
	// idleAt is when the connection went back to the pool, and next the
	// endpoint's connection that went back before it (see hookPool).
	idleAt time.Time
	next   *hookConn
}

// exchange writes one request on c and reads its answer: 1xx answers
// other than 101 are skipped, and at most webhookDrainLimit of the
// body is read. answered reports whether any byte of an answer
// arrived; keep, whether c can carry another request: the body was
// read to its end, and the answer neither said Connection: close nor
// switched protocols.
func (c *hookConn) exchange(ep *endpoint, payload []byte) (status int, answered, keep bool) {
	c.buf = ep.appendRequest(c.buf[:0], payload)
	if _, err := c.Write(c.buf); err != nil {
		return 0, false, false
	}
	if _, err := c.br.Peek(1); err != nil {
		return 0, false, false
	}
	var resp *http.Response
	for resp == nil || resp.StatusCode < 200 && resp.StatusCode != http.StatusSwitchingProtocols {
		var err error
		if resp, err = http.ReadResponse(c.br, nil); err != nil {
			return 0, true, false
		}
	}
	// A bodiless answer (204, Content-Length: 0) has nothing to drain.
	drained := resp.Body == http.NoBody || c.drain(resp.Body)
	return resp.StatusCode, true, drained && !resp.Close && resp.StatusCode != http.StatusSwitchingProtocols
}

// drain reads body to its end, into buf, whose request has left, and
// reports whether the end came within webhookDrainLimit bytes. An
// undrained body costs the connection; an endless one must not cost the
// worker.
func (c *hookConn) drain(body io.Reader) bool {
	buf := c.buf[:cap(c.buf)]
	for n := 0; n <= webhookDrainLimit; {
		k, err := body.Read(buf)
		n += k
		if err == io.EOF {
			return n <= webhookDrainLimit
		}
		if err != nil {
			return false
		}
	}
	return false
}

// hookPool keeps the idle webhook connections: at most perHost per
// endpoint and maxIdleHookConns in all, none reused after
// hookIdleTimeout. It closes a connection it will not keep. Taking and
// returning a connection allocates nothing.
type hookPool struct {
	mu sync.Mutex
	// idle maps an endpoint with idle connections to the most recently
	// used one, whose next is the one used before it, and so on.
	idle    map[string]*hookConn
	n       int // idle connections in all
	perHost int
}

// get takes the endpoint's most recently used idle connection, or nil.
func (p *hookPool) get(key string, now time.Time) *hookConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	c := p.expire(key, now)
	if c != nil {
		p.link(key, c.next)
		c.next = nil
		p.n--
	}
	return c
}

// put returns a connection that finished an exchange with its
// endpoint, or closes it when the endpoint already has perHost idle. At
// maxIdleHookConns the oldest idle connection makes room.
func (p *hookPool) put(key string, c *hookConn, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	head, kept := p.expire(key, now), 0
	for x := head; x != nil; x = x.next {
		kept++
	}
	if kept >= p.perHost {
		c.Close()
		return
	}
	if p.n >= maxIdleHookConns {
		p.closeOldest()
		head = p.idle[key]
	}
	c.idleAt, c.next = now, head
	p.link(key, c)
	p.n++
}

// expire closes the endpoint's connections idle past hookIdleTimeout,
// which are the last of its list, and returns its list's head. Callers
// hold p.mu.
func (p *hookPool) expire(key string, now time.Time) *hookConn {
	var prev *hookConn
	for c := p.idle[key]; c != nil; prev, c = c, c.next {
		if now.Sub(c.idleAt) > hookIdleTimeout {
			p.cut(key, prev)
			break
		}
	}
	return p.idle[key]
}

// closeOldest closes the connection idle longest of all. Callers hold
// p.mu.
func (p *hookPool) closeOldest() {
	var oldest, oldestPrev *hookConn
	var oldestKey string
	for key, c := range p.idle {
		var prev *hookConn
		for ; c.next != nil; prev, c = c, c.next {
		}
		if oldest == nil || c.idleAt.Before(oldest.idleAt) {
			oldest, oldestPrev, oldestKey = c, prev, key
		}
	}
	if oldest != nil {
		p.cut(oldestKey, oldestPrev)
	}
}

// cut closes the endpoint's idle connections after prev, or all of them
// when prev is nil. Callers hold p.mu.
func (p *hookPool) cut(key string, prev *hookConn) {
	c := p.idle[key]
	if prev == nil {
		p.link(key, nil)
	} else {
		c, prev.next = prev.next, nil
	}
	for ; c != nil; c = c.next {
		c.Close()
		p.n--
	}
}

// link makes c the head of the endpoint's idle list. Callers hold p.mu.
func (p *hookPool) link(key string, c *hookConn) {
	switch {
	case c == nil:
		delete(p.idle, key)
	case p.idle == nil:
		p.idle = map[string]*hookConn{key: c}
	default:
		p.idle[key] = c
	}
}

// closeAll closes every idle connection.
func (p *hookPool) closeAll() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for key := range p.idle {
		p.cut(key, nil)
	}
}

// postWebhook performs one delivery attempt, bounded by WebhookTimeout
// through its context, which Kill also cancels: one request written and
// one answer read, on the endpoint's most recently used idle connection
// or a new one. When the context ends, the connection's deadline is
// moved into the past, which ends the attempt's read or write, and the
// connection is closed. One that answered in full goes back to the
// pool. A reused connection that fails before any answer arrived was
// most likely closed by the peer while idle: the request goes once more
// on a new connection, within the same attempt. Only a 2xx answer
// succeeds; a redirect is not followed.
func (b *Bus) postWebhook(ep *endpoint, payload []byte) bool {
	ctx, cancel := b.cfg.Clock.WithTimeout(b.killCtx, b.cfg.WebhookTimeout)
	defer cancel()
	c := b.hooks.get(ep.key, b.cfg.Clock.Now())
	for reused := c != nil; ; reused = false {
		if c == nil {
			var err error
			if c, err = b.dialHook(ctx, ep); err != nil {
				return false
			}
		}
		conn := c
		stop := context.AfterFunc(ctx, func() { _ = conn.SetDeadline(expired) })
		status, answered, keep := c.exchange(ep, payload)
		if stop() && ctx.Err() == nil && keep {
			b.hooks.put(ep.key, c, b.cfg.Clock.Now())
		} else {
			c.Close()
		}
		if answered || !reused || ctx.Err() != nil {
			return status >= 200 && status < 300
		}
		c = nil
	}
}

// dialHook opens a connection to the endpoint under the attempt's
// context: TCP, then for https a TLS handshake that offers HTTP/1.1
// alone.
func (b *Bus) dialHook(ctx context.Context, ep *endpoint) (*hookConn, error) {
	conn, err := new(net.Dialer).DialContext(dialContext{ctx}, "tcp", ep.addr)
	if err != nil {
		return nil, err
	}
	if ep.serverName != "" {
		cfg := b.tlsConfig.Clone()
		if cfg == nil {
			cfg = &tls.Config{}
		}
		cfg.ServerName, cfg.NextProtos = ep.serverName, []string{"http/1.1"}
		tc := tls.Client(conn, cfg)
		if err := tc.HandshakeContext(ctx); err != nil {
			conn.Close()
			return nil, err
		}
		conn = tc
	}
	return &hookConn{Conn: conn, br: bufio.NewReader(conn)}, nil
}

// dialContext is an attempt's context as net's dialer sees it: its end
// ends the dial, but it has no deadline. The attempt's deadline is on
// the bus's clock, and the dialer would read it as wall time.
type dialContext struct{ context.Context }

func (dialContext) Deadline() (time.Time, bool) { return time.Time{}, false }

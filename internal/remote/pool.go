package remote

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"
)

// pconn is one pooled connection to a site server, with the one buffered
// reader every response frame on it is read through.
type pconn struct {
	conn net.Conn
	br   *bufio.Reader
}

func (pc *pconn) close() { _ = pc.conn.Close() }

// exchange performs one request/response round trip on the connection under
// the given deadline, returning the bytes moved in each direction. A
// non-nil error means the connection is no longer usable.
//
// A cancelable ctx arms an AfterFunc that slams the connection deadline
// into the past the moment the context dies, so a blocking read or
// write unwinds immediately instead of running out its timeout — this is
// how client disconnect propagates into an in-flight exchange. The caller
// distinguishes "ctx killed it" from a genuine transport failure by
// checking ctx.Err first. An exchange that completes while the hook fires
// fails with the context's error all the same: the hook's goroutine may set
// its deadline after this return, on whoever took the connection next.
func (pc *pconn) exchange(ctx context.Context, req *Request, timeout time.Duration) (resp Response, stats wireStats, err error) {
	_ = pc.conn.SetDeadline(time.Now().Add(timeout))
	if ctx != nil && ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			_ = pc.conn.SetDeadline(time.Unix(1, 0))
		})
		defer func() {
			if !stop() && err == nil {
				resp, err = Response{}, ctx.Err()
			}
		}()
	}
	out := newFrame()
	out.request(req)
	n, err := out.send(pc.conn)
	out.release()
	stats.Sent = int64(n)
	if err != nil {
		return Response{}, stats, fmt.Errorf("send: %w", err)
	}
	// The cap on a request caps its reply: decoding one allocates many times
	// its size, so one runaway reply must not reach the decoder.
	in, err := readFrame(pc.br, maxFrameBytes)
	if err != nil {
		return Response{}, stats, fmt.Errorf("receive: %w", err)
	}
	stats.Received = int64(frameHeaderSize + len(in.b))
	resp, err = decodeResponse(in.b)
	in.release()
	if err != nil {
		return Response{}, stats, fmt.Errorf("receive: %w", err)
	}
	return resp, stats, nil
}

// pool keeps up to max idle connections to one address, replacing the
// dial-per-request pattern: a hot coordinator reuses warm connections and
// pays the dial once per connection instead of once per call.
type pool struct {
	addr        string
	dialTimeout time.Duration
	max         int

	mu     sync.Mutex
	idle   []*pconn
	closed bool
}

func newPool(addr string, dialTimeout time.Duration, max int) *pool {
	return &pool{addr: addr, dialTimeout: dialTimeout, max: max}
}

// get returns an idle connection or dials a fresh one. pooled reports
// whether the connection came out of the idle set — such a connection may
// have silently died while idle (peer restart), so its first failure is a
// staleness signal rather than evidence the peer is down.
func (p *pool) get() (pc *pconn, pooled bool, err error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		pc = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return pc, true, nil
	}
	p.mu.Unlock()
	pc, err = p.dial()
	return pc, false, err
}

// dial establishes a fresh connection, bypassing the idle set.
func (p *pool) dial() (*pconn, error) {
	conn, err := net.DialTimeout("tcp", p.addr, p.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", p.addr, err)
	}
	return &pconn{conn: conn, br: bufio.NewReader(conn)}, nil
}

// put returns a healthy connection to the pool, closing it when the pool is
// full or already closed.
func (p *pool) put(pc *pconn) {
	p.mu.Lock()
	if !p.closed && len(p.idle) < p.max {
		p.idle = append(p.idle, pc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	pc.close()
}

// size reports the number of idle pooled connections.
func (p *pool) size() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// closeAll closes every idle connection and rejects future put-backs.
func (p *pool) closeAll() {
	p.mu.Lock()
	idle := p.idle
	p.idle = nil
	p.closed = true
	p.mu.Unlock()
	for _, pc := range idle {
		pc.close()
	}
}

package transport

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"netobjects/internal/wire"
)

// TCP is the TCP transport. Its endpoints look like "tcp:host:port".
type TCP struct {
	// DialTimeout bounds connection establishment; zero means 10 seconds.
	DialTimeout time.Duration
}

// NewTCP returns a TCP transport with default settings.
func NewTCP() *TCP { return &TCP{} }

// Proto returns "tcp".
func (t *TCP) Proto() string { return "tcp" }

// Listen opens a TCP listener. An empty address listens on an ephemeral
// port on the loopback interface, which is what tests and single-machine
// deployments want; production addresses are passed explicitly.
func (t *TCP) Listen(addr string) (Listener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{l: l}, nil
}

// Dial connects to a TCP address.
func (t *TCP) Dial(addr string) (Conn, error) {
	return t.DialContext(context.Background(), addr)
}

// DialContext connects to a TCP address, bounded by both the transport's
// DialTimeout and the context's deadline or cancellation, whichever is
// tighter.
func (t *TCP) DialContext(ctx context.Context, addr string) (Conn, error) {
	timeout := t.DialTimeout
	if timeout == 0 {
		timeout = 10 * time.Second
	}
	d := net.Dialer{Timeout: timeout}
	c, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	return newTCPConn(c), nil
}

type tcpListener struct {
	l net.Listener
}

func (tl *tcpListener) Accept() (Conn, error) {
	c, err := tl.l.Accept()
	if err != nil {
		if errors.Is(err, net.ErrClosed) {
			return nil, ErrClosed
		}
		return nil, err
	}
	return newTCPConn(c), nil
}

func (tl *tcpListener) Close() error { return tl.l.Close() }

func (tl *tcpListener) Endpoint() string {
	return wire.JoinEndpoint("tcp", tl.l.Addr().String())
}

// tcpConn adapts a net.Conn to the framed Conn interface. Writes go
// through a buffered writer flushed per frame; small frames therefore cost
// one syscall. A frame too large for the writer's buffer would pass
// through it uncopied anyway, so it is written from where it lies, behind
// its length prefix, in one vectored write.
type tcpConn struct {
	c  net.Conn
	br *bufio.Reader
	bw *bufio.Writer

	// The vectored write's length prefix and buffer list. Send is not
	// concurrent (see Conn), so one of each serves every frame.
	hdr  [4]byte
	vec  [2][]byte
	bufs net.Buffers
}

// tcpBuffer is the size of a connection's read and write buffers.
const tcpBuffer = 32 << 10

func newTCPConn(c net.Conn) *tcpConn {
	if tc, ok := c.(*net.TCPConn); ok {
		// Calls are latency-sensitive request/response pairs.
		_ = tc.SetNoDelay(true)
	}
	return &tcpConn{
		c:  c,
		br: bufio.NewReaderSize(c, tcpBuffer),
		bw: bufio.NewWriterSize(c, tcpBuffer),
	}
}

func (tc *tcpConn) Send(payload []byte) error {
	if len(payload) >= tcpBuffer {
		return mapNetErr(tc.sendLarge(payload))
	}
	if err := wire.WriteFrame(tc.bw, payload); err != nil {
		return mapNetErr(err)
	}
	return mapNetErr(tc.bw.Flush())
}

// sendLarge writes one frame straight from payload. Every Send flushes,
// so the buffered writer holds nothing that must go first.
func (tc *tcpConn) sendLarge(payload []byte) error {
	if len(payload) > wire.MaxFrame {
		return fmt.Errorf("%w: %d bytes", wire.ErrFrameTooLarge, len(payload))
	}
	binary.BigEndian.PutUint32(tc.hdr[:], uint32(len(payload)))
	tc.vec[0], tc.vec[1] = tc.hdr[:], payload
	tc.bufs = tc.vec[:]
	_, err := tc.bufs.WriteTo(tc.c)
	tc.vec[1] = nil // WriteTo consumed bufs; do not keep the caller's frame alive
	return err
}

func (tc *tcpConn) Recv(scratch []byte) ([]byte, error) {
	b, err := wire.ReadFrame(tc.br, scratch)
	return b, mapNetErr(err)
}

func (tc *tcpConn) SetDeadline(t time.Time) error { return tc.c.SetDeadline(t) }

func (tc *tcpConn) Close() error { return tc.c.Close() }

func (tc *tcpConn) RemoteLabel() string { return "tcp:" + tc.c.RemoteAddr().String() }

// mapNetErr normalizes net package errors onto the transport error
// vocabulary so callers can test with errors.Is.
func mapNetErr(err error) error {
	if err == nil {
		return nil
	}
	var nerr net.Error
	if errors.As(err, &nerr) && nerr.Timeout() {
		return errors.Join(ErrTimeout, err)
	}
	if errors.Is(err, net.ErrClosed) {
		return errors.Join(ErrClosed, err)
	}
	return err
}

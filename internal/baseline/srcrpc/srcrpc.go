// Package srcrpc is a minimal remote procedure call layer over the same
// transports the network objects runtime uses: a method name and a byte
// payload per request, a byte payload per response, one exchange per
// pooled connection.
//
// It stands in for SRC RPC — the plain RPC system the Network Objects
// paper compares against — in the benchmark harness: the latency gap
// between a srcrpc exchange and a network objects invocation is the cost
// of the object layer (object table lookup, dispatch, pickling, collector
// bookkeeping).
package srcrpc

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"netobjects/internal/transport"
	"netobjects/internal/wire"
)

// Handler serves one method: it receives the request payload and returns
// the response payload.
type Handler func(payload []byte) ([]byte, error)

// Server dispatches inbound calls to registered handlers.
type Server struct {
	mu       sync.Mutex
	handlers map[string]Handler
	ls       []transport.Listener
	closed   bool
	wg       sync.WaitGroup
	conns    map[transport.Conn]struct{}
}

// NewServer returns a server with no handlers.
func NewServer() *Server {
	return &Server{
		handlers: make(map[string]Handler),
		conns:    make(map[transport.Conn]struct{}),
	}
}

// Handle registers a handler for method, replacing any previous one.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// Serve accepts connections on l until the server closes.
func (s *Server) Serve(l transport.Listener) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		_ = l.Close()
		return
	}
	s.ls = append(s.ls, l)
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			if s.closed {
				s.mu.Unlock()
				_ = c.Close()
				return
			}
			s.conns[c] = struct{}{}
			s.mu.Unlock()
			s.wg.Add(1)
			go s.serveConn(c)
		}
	}()
}

// Close stops the server and its connections.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	ls := s.ls
	conns := make([]transport.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, l := range ls {
		_ = l.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
}

func (s *Server) serveConn(c transport.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		_ = c.Close()
	}()
	var buf []byte
	for {
		frame, err := c.Recv(buf)
		if err != nil {
			return
		}
		buf = frame
		d := wire.NewDecoder(frame)
		method := d.String()
		payload := d.BytesField()
		if d.Err() != nil {
			return
		}
		s.mu.Lock()
		h := s.handlers[method]
		s.mu.Unlock()

		e := wire.NewEncoder(nil)
		if h == nil {
			e.Bool(false)
			e.String("srcrpc: no such method " + method)
			e.BytesField(nil)
		} else if out, err := h(payload); err != nil {
			e.Bool(false)
			e.String(err.Error())
			e.BytesField(nil)
		} else {
			e.Bool(true)
			e.String("")
			e.BytesField(out)
		}
		if err := c.Send(e.Bytes()); err != nil {
			return
		}
	}
}

// Client issues calls with the checkout discipline the original SRC RPC
// used: one outstanding exchange per connection, with a small self-managed
// idle cache per endpoint. The runtime's transport.Pool no longer offers
// checkout (everything rides multiplexed sessions), so the baseline keeps
// its own — the discipline under measurement is part of the baseline.
type Client struct {
	reg     *transport.Registry
	timeout time.Duration

	mu     sync.Mutex
	idle   map[string][]transport.Conn
	closed bool
}

// maxIdle caps the cached idle connections per endpoint.
const maxIdle = 4

// NewClient returns a client dialing through reg. A non-positive timeout
// defaults to 30 seconds per exchange.
func NewClient(reg *transport.Registry, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return &Client{reg: reg, timeout: timeout, idle: make(map[string][]transport.Conn)}
}

// Close releases the client's idle connections.
func (cl *Client) Close() {
	cl.mu.Lock()
	idle := cl.idle
	cl.idle = make(map[string][]transport.Conn)
	cl.closed = true
	cl.mu.Unlock()
	for _, conns := range idle {
		for _, c := range conns {
			_ = c.Close()
		}
	}
}

// checkout returns a connection to endpoint: a healthy cached idle one if
// available, else a fresh dial.
func (cl *Client) checkout(endpoint string) (transport.Conn, error) {
	cl.mu.Lock()
	for {
		conns := cl.idle[endpoint]
		if len(conns) == 0 {
			break
		}
		c := conns[len(conns)-1]
		cl.idle[endpoint] = conns[:len(conns)-1]
		if transport.Healthy(c) {
			cl.mu.Unlock()
			return c, nil
		}
		_ = c.Close()
	}
	cl.mu.Unlock()
	return cl.reg.Dial(endpoint)
}

// checkin returns a connection whose exchange completed cleanly to the
// idle cache, or closes it when the cache is full or the client closed.
func (cl *Client) checkin(endpoint string, c transport.Conn) {
	_ = c.SetDeadline(time.Time{})
	cl.mu.Lock()
	if !cl.closed && len(cl.idle[endpoint]) < maxIdle {
		cl.idle[endpoint] = append(cl.idle[endpoint], c)
		cl.mu.Unlock()
		return
	}
	cl.mu.Unlock()
	_ = c.Close()
}

// Call performs one exchange with the server at endpoint.
func (cl *Client) Call(endpoint, method string, payload []byte) ([]byte, error) {
	c, err := cl.checkout(endpoint)
	if err != nil {
		return nil, err
	}
	_ = c.SetDeadline(time.Now().Add(cl.timeout))
	e := wire.NewEncoder(nil)
	e.String(method)
	e.BytesField(payload)
	if err := c.Send(e.Bytes()); err != nil {
		_ = c.Close()
		return nil, err
	}
	resp, err := c.Recv(nil)
	if err != nil {
		_ = c.Close()
		return nil, err
	}
	d := wire.NewDecoder(resp)
	ok := d.Bool()
	msg := d.String()
	out := d.BytesField()
	if err := d.Err(); err != nil {
		_ = c.Close()
		return nil, err
	}
	// The response aliases the connection's receive buffer, which the
	// connection's next user recycles; copy before checking it in.
	out = append([]byte(nil), out...)
	cl.checkin(endpoint, c)
	if !ok {
		return nil, errors.New(msg)
	}
	return out, nil
}

// Error formatting helper used by handlers.
func Errorf(format string, args ...any) ([]byte, error) {
	return nil, fmt.Errorf(format, args...)
}

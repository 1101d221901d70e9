// Package rpc is the control plane's one request/response transport: the
// daemon, the lookup registrar and the event receiver serve named methods
// through it, and their clients call them.
//
// It speaks net/rpc's gob wire format — a Request header then the
// argument, a Response header then the reply, all on one gob stream per
// direction — so a peer built on net/rpc and one built on this package
// interoperate. Unlike net/rpc it does not reflect over a receiver's
// method set: each method is registered on its own by Handle with its
// argument and reply types fixed at compile time. That keeps the linker
// from retaining every exported method of every reachable type, and keeps
// net/http (net/rpc's HTTP half) out of every binary.
//
// See ARCHITECTURE.md at the repository root for where this package sits in
// the layer stack.
package rpc

import (
	"bufio"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"net"
	"reflect"
	"sync"
)

// request is the header written before each call's argument. Its field
// names and types are net/rpc's; gob matches fields by name.
type request struct {
	ServiceMethod string // "Service.Method"
	Seq           uint64 // chosen by the client, echoed in the response
}

// response is the header written before each reply. A non-empty Error
// replaces the reply: the body that follows it is an empty struct.
type response struct {
	ServiceMethod string
	Seq           uint64
	Error         string
}

// errShutdown fails every call on a client that was closed.
var errShutdown = errors.New("rpc: connection is shut down")

// method decodes one call's argument from the stream and returns the call,
// ready to run on its own goroutine.
type method func(dec *gob.Decoder) (run func() (reply any, err error), err error)

// Server dispatches calls to the methods registered with Handle.
type Server struct {
	methods map[string]method
}

// NewServer returns a server with no methods.
func NewServer() *Server {
	return &Server{methods: make(map[string]method)}
}

// Handle registers f under name ("Service.Method"). Register every method
// before serving: the method table is read without a lock.
func Handle[Req, Resp any](s *Server, name string, f func(Req, *Resp) error) {
	s.methods[name] = func(dec *gob.Decoder) (func() (any, error), error) {
		var req Req
		if err := dec.Decode(&req); err != nil {
			return nil, fmt.Errorf("rpc: decoding argument of %s: %w", name, err)
		}
		return func() (any, error) {
			var resp Resp
			err := f(req, &resp)
			return &resp, err
		}, nil
	}
}

// Serve accepts connections on ln and serves each on its own goroutine
// until Accept fails — the owner closed ln. It then closes every
// connection still open and returns once their calls have finished.
func (s *Server) Serve(ln net.Listener) {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		conns = make(map[net.Conn]struct{})
	)
	for {
		conn, err := ln.Accept()
		if err != nil {
			break
		}
		mu.Lock()
		conns[conn] = struct{}{}
		mu.Unlock()
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ServeConn(conn)
			mu.Lock()
			delete(conns, conn)
			mu.Unlock()
		}()
	}
	mu.Lock()
	for conn := range conns {
		conn.Close()
	}
	mu.Unlock()
	wg.Wait()
}

// ServeConn serves calls on one connection until it fails or the client
// closes it, running each call on its own goroutine; replies go out in
// completion order. A call naming an unknown method, or whose argument
// does not decode, is answered with an error and the connection stays
// usable. ServeConn closes conn and returns once every call it started
// has replied.
func (s *Server) ServeConn(conn io.ReadWriteCloser) {
	dec := gob.NewDecoder(conn)
	w := bufio.NewWriter(conn)
	enc := gob.NewEncoder(w)
	var sending sync.Mutex
	reply := func(req request, body any, err error) {
		resp := response{ServiceMethod: req.ServiceMethod, Seq: req.Seq}
		if err != nil {
			resp.Error = err.Error()
			body = struct{}{} // what net/rpc sends after an error
		}
		sending.Lock()
		defer sending.Unlock()
		// A failed write means the connection is gone; the read loop
		// sees that too and ends.
		if enc.Encode(&resp) == nil && enc.Encode(body) == nil {
			_ = w.Flush()
		}
	}

	var calls sync.WaitGroup
	for {
		var req request
		if err := dec.Decode(&req); err != nil {
			break
		}
		m := s.methods[req.ServiceMethod]
		if m == nil {
			if err := discard(dec); err != nil {
				break
			}
			reply(req, nil, errors.New("rpc: can't find method "+req.ServiceMethod))
			continue
		}
		run, err := m(dec)
		if err != nil {
			reply(req, nil, err)
			continue
		}
		calls.Add(1)
		go func() {
			defer calls.Done()
			body, err := run()
			reply(req, body, err)
		}()
	}
	calls.Wait()
	conn.Close()
}

// discard reads the next value off the stream and drops it.
func discard(dec *gob.Decoder) error { return dec.DecodeValue(reflect.Value{}) }

// call is one outstanding request of a Client.
type call struct {
	reply any
	err   error
	done  chan struct{} // closed once reply or err is set
}

// Client issues calls over one connection. It is safe for concurrent use:
// calls are matched to replies by sequence number, so they complete in
// whatever order the server answers them.
type Client struct {
	conn io.ReadWriteCloser
	dec  *gob.Decoder

	sendMu sync.Mutex // orders whole requests on the stream
	w      *bufio.Writer
	enc    *gob.Encoder

	mu      sync.Mutex
	seq     uint64
	pending map[uint64]*call
	err     error // once set, the connection is dead and every call fails with it
	closing bool

	done chan struct{} // closed when the reply reader has exited
}

// NewClient starts a client on conn; Close releases it.
func NewClient(conn io.ReadWriteCloser) *Client {
	w := bufio.NewWriter(conn)
	c := &Client{
		conn:    conn,
		dec:     gob.NewDecoder(conn),
		w:       w,
		enc:     gob.NewEncoder(w),
		pending: make(map[uint64]*call),
		done:    make(chan struct{}),
	}
	go c.read()
	return c
}

// Call invokes serviceMethod with args and waits for the reply, which is
// decoded into reply (a pointer). A service's error comes back as an
// error with its text; a dead connection fails the call, and every later
// one, with the error that killed it.
func (c *Client) Call(serviceMethod string, args, reply any) error {
	cl := &call{reply: reply, done: make(chan struct{})}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	seq := c.seq
	c.seq++
	c.pending[seq] = cl
	c.mu.Unlock()

	c.sendMu.Lock()
	err := c.enc.Encode(&request{ServiceMethod: serviceMethod, Seq: seq})
	if err == nil {
		err = c.enc.Encode(args)
	}
	if err == nil {
		err = c.w.Flush()
	}
	c.sendMu.Unlock()
	if err != nil {
		// Half a request may be on the stream: the connection cannot
		// carry another. Closing it ends the reader, which fails this
		// call and every other pending one.
		c.mu.Lock()
		if c.err == nil {
			c.err = err
		}
		c.mu.Unlock()
		c.conn.Close()
	}
	<-cl.done
	return cl.err
}

// read matches replies to pending calls until the stream fails, then
// fails whatever is still pending.
func (c *Client) read() {
	var err error
	for err == nil {
		var resp response
		if err = c.dec.Decode(&resp); err != nil {
			break
		}
		c.mu.Lock()
		cl := c.pending[resp.Seq]
		delete(c.pending, resp.Seq)
		c.mu.Unlock()
		switch {
		case cl == nil:
			err = discard(c.dec)
		case resp.Error != "":
			cl.err = errors.New(resp.Error)
			err = discard(c.dec)
			close(cl.done)
		default:
			if err = c.dec.Decode(cl.reply); err != nil {
				cl.err = fmt.Errorf("rpc: decoding reply of %s: %w", resp.ServiceMethod, err)
			}
			close(cl.done)
		}
	}

	c.mu.Lock()
	switch {
	case c.closing:
		err = errShutdown
	case c.err != nil:
		err = c.err
	case err == io.EOF:
		err = io.ErrUnexpectedEOF
	}
	c.err = err
	pending := c.pending
	c.pending = nil
	c.mu.Unlock()
	for _, cl := range pending {
		cl.err = err
		close(cl.done)
	}
	c.conn.Close()
	close(c.done)
}

// Close closes the connection, fails every pending call and returns once
// the client's reader has exited.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closing {
		c.mu.Unlock()
		return errShutdown
	}
	c.closing = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

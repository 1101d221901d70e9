package rpc

import (
	"bytes"
	"encoding/gob"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

type Args struct{ A, B int }
type Sum struct{ N int }

// testServer registers the methods the tests and the fuzz target call:
// Arith.Add answers at once, Arith.Fail returns an error. With a release
// map it also registers Arith.Wait, which reports its argument on arrived
// (if not nil) and blocks until that argument's channel is released.
func testServer(release map[int]chan struct{}, arrived chan<- int) *Server {
	s := NewServer()
	Handle(s, "Arith.Add", func(a Args, r *Sum) error {
		r.N = a.A + a.B
		return nil
	})
	Handle(s, "Arith.Fail", func(a Args, _ *struct{}) error {
		return errors.New("arith: cannot fail " + strings.Repeat("!", a.A))
	})
	if release == nil {
		return s
	}
	Handle(s, "Arith.Wait", func(a Args, r *Sum) error {
		if arrived != nil {
			arrived <- a.A
		}
		<-release[a.A]
		r.N = a.A
		return nil
	})
	return s
}

// serve starts s on a fresh listener; the returned stop closes the
// listener and waits for Serve to return.
func serve(t *testing.T, s *Server) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		s.Serve(ln)
		close(done)
	}()
	var once sync.Once
	stop = func() {
		once.Do(func() {
			ln.Close()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Error("Serve did not return after its listener closed")
			}
		})
	}
	t.Cleanup(stop)
	return ln.Addr().String(), stop
}

func dial(t *testing.T, addr string) *Client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(conn)
	t.Cleanup(func() { c.Close() })
	return c
}

// goroutinesBack waits until the goroutine count is back at or below
// base: a goroutine that signalled its exit may still be unwinding.
func goroutinesBack(base int) (int, bool) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base {
			return n, true
		}
		if time.Now().After(deadline) {
			return n, false
		}
		time.Sleep(time.Millisecond)
	}
}

func TestCallAndServiceError(t *testing.T) {
	addr, _ := serve(t, testServer(nil, nil))
	c := dial(t, addr)

	var sum Sum
	if err := c.Call("Arith.Add", Args{A: 2, B: 40}, &sum); err != nil || sum.N != 42 {
		t.Fatalf("Add = %+v, %v; want 42", sum, err)
	}
	if err := c.Call("Arith.Fail", Args{A: 3}, &struct{}{}); err == nil || err.Error() != "arith: cannot fail !!!" {
		t.Fatalf("Fail = %v; want the service's error text", err)
	}
	// The error consumed its (empty) body: the stream is still in step.
	if err := c.Call("Arith.Add", Args{A: 1, B: 1}, &sum); err != nil || sum.N != 2 {
		t.Fatalf("Add after an error = %+v, %v", sum, err)
	}
}

func TestUnknownMethodKeepsConnection(t *testing.T) {
	addr, _ := serve(t, testServer(nil, nil))
	c := dial(t, addr)
	for _, name := range []string{"Arith.Nope", "Nope", ""} {
		err := c.Call(name, Args{A: 1}, &Sum{})
		if err == nil || !strings.Contains(err.Error(), "can't find method") {
			t.Errorf("Call(%q) = %v; want a can't-find-method error", name, err)
		}
	}
	// An argument of the wrong type is refused the same way.
	if err := c.Call("Arith.Add", "not args", &Sum{}); err == nil {
		t.Error("Add with a string argument succeeded")
	}
	var sum Sum
	if err := c.Call("Arith.Add", Args{A: 5, B: 6}, &sum); err != nil || sum.N != 11 {
		t.Fatalf("Add after refused calls = %+v, %v; the connection must stay usable", sum, err)
	}
}

// TestConcurrentCallsOutOfOrder: calls on one client run concurrently on
// the server and each reply finds its caller by sequence number, so a
// later call finishes while an earlier one still waits.
func TestConcurrentCallsOutOfOrder(t *testing.T) {
	const n = 8
	release := make(map[int]chan struct{}, n)
	for i := 0; i < n; i++ {
		release[i] = make(chan struct{})
	}
	addr, _ := serve(t, testServer(release, nil))
	c := dial(t, addr)

	order := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var r Sum
			if err := c.Call("Arith.Wait", Args{A: i}, &r); err != nil || r.N != i {
				t.Errorf("Wait(%d) = %+v, %v", i, r, err)
			}
			order <- i
		}(i)
	}
	// Release in reverse: each call must complete before any earlier one.
	for i := n - 1; i >= 0; i-- {
		close(release[i])
		select {
		case got := <-order:
			if got != i {
				t.Fatalf("call %d completed when only %d was released", got, i)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("call %d did not complete after its release", i)
		}
	}
	wg.Wait()
}

// TestCloseFailsCalls: closing the client, or the connection dying under
// it, fails every pending call and every later call within a deadline.
func TestCloseFailsCalls(t *testing.T) {
	for _, tc := range []struct {
		name string
		kill func(c *Client, stopServer func())
	}{
		{"client Close", func(c *Client, _ func()) { c.Close() }},
		{"server gone", func(_ *Client, stopServer func()) { go stopServer() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const pending = 4
			release := map[int]chan struct{}{0: make(chan struct{})}
			arrived := make(chan int, pending)
			addr, stop := serve(t, testServer(release, arrived))
			c := dial(t, addr)
			var sum Sum
			if err := c.Call("Arith.Add", Args{A: 1}, &sum); err != nil {
				t.Fatal(err)
			}

			errs := make(chan error, pending)
			for i := 0; i < pending; i++ {
				go func() { errs <- c.Call("Arith.Wait", Args{A: 0}, &Sum{}) }()
			}
			for i := 0; i < pending; i++ {
				<-arrived
			}
			tc.kill(c, stop)
			for i := 0; i < pending; i++ {
				select {
				case err := <-errs:
					if err == nil {
						t.Error("pending call succeeded on a dead connection")
					}
				case <-time.After(5 * time.Second):
					t.Fatal("pending call still blocked 5s after the connection died")
				}
			}
			done := make(chan error, 1)
			go func() { done <- c.Call("Arith.Add", Args{A: 1}, &sum) }()
			select {
			case err := <-done:
				if err == nil {
					t.Error("call after the connection died succeeded")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("call after the connection died blocked")
			}
			close(release[0]) // lets the server's handlers, and so Serve, finish
		})
	}
}

// TestNoGoroutineOutlivesClose: once a client is closed and its server's
// listener closed (and Serve returned), nothing of either is left running.
func TestNoGoroutineOutlivesClose(t *testing.T) {
	base := runtime.NumGoroutine()
	release := map[int]chan struct{}{0: make(chan struct{})}
	close(release[0])
	s := testServer(release, nil)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	go func() {
		s.Serve(ln)
		close(served)
	}()

	var clients []*Client
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c := NewClient(conn)
		clients = append(clients, c)
		var wg sync.WaitGroup
		for j := 0; j < 4; j++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := c.Call("Arith.Wait", Args{A: 0}, &Sum{}); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	// One client closes itself; the listener's close must end the rest.
	clients[0].Close()
	ln.Close()
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after its listener closed")
	}
	for _, c := range clients[1:] {
		c.Close()
	}
	if n, ok := goroutinesBack(base); !ok {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines left, %d before:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// pipeConn serves a fixed byte stream and swallows replies.
type pipeConn struct {
	io.Reader
	io.Writer
}

func (pipeConn) Close() error { return nil }

// encodeCalls renders a client's byte stream: one gob stream of header,
// argument pairs.
func encodeCalls(vals ...any) []byte {
	var b bytes.Buffer
	enc := gob.NewEncoder(&b)
	for _, v := range vals {
		if err := enc.Encode(v); err != nil {
			panic(err)
		}
	}
	return b.Bytes()
}

// FuzzRPCConn feeds arbitrary bytes to ServeConn: it must return, never
// panic, and leave no goroutine behind.
func FuzzRPCConn(f *testing.F) {
	valid := encodeCalls(&request{ServiceMethod: "Arith.Add", Seq: 1}, Args{A: 1, B: 2})
	f.Add(valid)
	f.Add(valid[:len(valid)/3]) // truncated header
	f.Add(encodeCalls(&request{ServiceMethod: "Nope.Nope", Seq: 2}, Args{A: 1}))
	f.Add(encodeCalls(&request{ServiceMethod: "Arith.Add", Seq: 3}, "a string, not Args"))
	f.Add(encodeCalls(&request{ServiceMethod: "Arith.Fail", Seq: 4}, Args{A: 2},
		&request{ServiceMethod: "Arith.Add", Seq: 5}, Args{A: 3, B: 4}))
	// A message length just under gob's 1 GiB limit, then just at it:
	// 0xFC says "four big-endian bytes follow".
	f.Add([]byte{0xFC, 0x3F, 0xFF, 0xFF, 0xFF, 0x01, 0x02})
	f.Add([]byte{0xFC, 0x40, 0x00, 0x00, 0x00, 0x01, 0x02})

	s := testServer(nil, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		base := runtime.NumGoroutine()
		s.ServeConn(pipeConn{Reader: bytes.NewReader(data), Writer: io.Discard})
		if n, ok := goroutinesBack(base); !ok {
			t.Fatalf("%d goroutines after ServeConn returned, %d before", n, base)
		}
	})
}

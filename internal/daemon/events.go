package daemon

// The distributed-event mechanism of the paper's §3.3: Jini remote events
// carried over RPC. The key event type is the MPJAbort event — raised
// when any slave of a job dies — whose delivery causes every remaining
// slave of that job to be destroyed, converting partial failure into
// clean total failure. The daemon raises it (monitor); the client
// receives it (internal/job).

import (
	"fmt"
	"net"
	"sync"
	"time"

	"mpj/internal/rpc"
)

// TypeAbort is the MPJAbort event: a slave of the job has failed and the
// whole job must be torn down.
const TypeAbort = "MPJAbort"

// Event is the remote event record (the RemoteEvent analogue).
type Event struct {
	Type    string // TypeAbort
	JobID   uint64 // the job the event concerns
	Source  string // originator description, e.g. "daemon host:port"
	Seq     uint64 // originator-local sequence number
	Message string // human-readable detail
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("%s(job=%d from=%s: %s)", e.Type, e.JobID, e.Source, e.Message)
}

// Receiver accepts remote events on a local TCP endpoint. The handler is
// invoked on RPC server goroutines; it must be safe for concurrent use.
type Receiver struct {
	ln   net.Listener
	addr string

	mu     sync.Mutex
	closed bool
}

// NewReceiver starts an event receiver on an ephemeral localhost port.
func NewReceiver(handler func(Event)) (*Receiver, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("events: %w", err)
	}
	srv := rpc.NewServer()
	rpc.Handle(srv, "EventListener.Notify", func(ev Event, _ *struct{}) error {
		handler(ev)
		return nil
	})
	go srv.Serve(ln)
	return &Receiver{ln: ln, addr: ln.Addr().String()}, nil
}

// Addr returns the receiver's dialable address.
func (r *Receiver) Addr() string { return r.addr }

// Close stops accepting events.
func (r *Receiver) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.closed {
		r.closed = true
		r.ln.Close()
	}
}

// Notify delivers ev to the receiver at addr. It dials per call: event
// traffic is rare (aborts, job completion) so connection reuse is not
// worth the bookkeeping.
func Notify(addr string, ev Event) error {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return fmt.Errorf("events: dialing %s: %w", addr, err)
	}
	client := rpc.NewClient(conn)
	defer client.Close()
	if err := client.Call("EventListener.Notify", ev, &struct{}{}); err != nil {
		return fmt.Errorf("events: notifying %s: %w", addr, err)
	}
	return nil
}

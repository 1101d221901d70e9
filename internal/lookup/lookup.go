// Package lookup implements the Jini-style lookup service of the paper's
// §3.2: MPJ daemons register themselves with available lookup services;
// independent clients discover daemons through them (Figure 2), with no
// "hosts" file required.
//
// Two discovery modes mirror the paper's Jini usage:
//
//   - group (multicast) discovery: registrars answer UDP probes on a
//     well-known port, so clients find them with no configuration;
//   - unicast discovery: clients are given explicit registrar addresses,
//     which also lets a user restrict the hosts a job may use.
//
// Registrations are leased: a daemon that dies silently disappears from
// the registrar once its lease expires.
//
// See ARCHITECTURE.md at the repository root for where this package sits in
// the layer stack.
package lookup

import (
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"mpj/internal/lease"
	"mpj/internal/rpc"
)

// DefaultDiscoveryPort is the UDP port registrars answer probes on.
const DefaultDiscoveryPort = 4160 // the Jini lookup locator port

// probe/reply magic for UDP discovery datagrams.
const (
	probeMagic = "MPJ-LOOKUP?"
	replyMagic = "MPJ-REGISTRAR "
)

// ServiceItem describes one registered service.
type ServiceItem struct {
	ID    string            // registrar-assigned id
	Type  string            // service type, e.g. "MPJService"
	Addr  string            // the service's RPC endpoint
	Host  string            // hostname, for placement decisions
	Attrs map[string]string // free-form attributes
}

// Template matches services in Lookup. Empty fields match anything.
type Template struct {
	Type string
	Host string
}

// matches reports whether item satisfies the template.
func (t Template) matches(item ServiceItem) bool {
	if t.Type != "" && t.Type != item.Type {
		return false
	}
	if t.Host != "" && t.Host != item.Host {
		return false
	}
	return true
}

// RPC request/reply shapes.
type (
	// RegisterReq registers an item under a lease.
	RegisterReq struct {
		Item    ServiceItem
		LeaseMs int64
	}
	// RegisterResp returns the item id and its registration lease.
	RegisterResp struct {
		ID      string
		LeaseID string
	}
	// RenewReq extends a registration lease.
	RenewReq struct {
		LeaseID string
		LeaseMs int64
	}
	// LookupReq finds services matching a template.
	LookupReq struct {
		Tmpl Template
	}
	// LookupResp carries the matches.
	LookupResp struct {
		Items []ServiceItem
	}
)

// registrarSvc is the RPC surface of a Registrar.
type registrarSvc struct{ r *Registrar }

// Register adds a service under a fresh lease.
func (s *registrarSvc) Register(req RegisterReq, resp *RegisterResp) error {
	return s.r.register(req, resp)
}

// Renew extends a registration lease.
func (s *registrarSvc) Renew(req RenewReq, _ *struct{}) error {
	_, err := s.r.leases.Renew(req.LeaseID, time.Duration(req.LeaseMs)*time.Millisecond)
	return err
}

// Cancel drops a registration.
func (s *registrarSvc) Cancel(req RenewReq, _ *struct{}) error {
	s.r.remove(req.LeaseID)
	return s.r.leases.Cancel(req.LeaseID)
}

// Lookup returns all services matching the template.
func (s *registrarSvc) Lookup(req LookupReq, resp *LookupResp) error {
	s.r.mu.Lock()
	defer s.r.mu.Unlock()
	for _, it := range s.r.items {
		if req.Tmpl.matches(it) {
			resp.Items = append(resp.Items, it)
		}
	}
	return nil
}

// Registrar is a lookup service instance.
type Registrar struct {
	ln     net.Listener
	udp    *net.UDPConn
	leases *lease.Table

	mu     sync.Mutex
	items  map[string]ServiceItem // lease id → item
	nextID uint64
	closed bool
}

// NewRegistrar starts a registrar on an ephemeral TCP port. If udpPort is
// non-zero it also answers group-discovery probes on that UDP port.
func NewRegistrar(udpPort int) (*Registrar, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("lookup: %w", err)
	}
	r := &Registrar{ln: ln, items: make(map[string]ServiceItem)}
	r.leases = lease.NewTable(func(id string, payload any) { r.remove(id) })

	svc := &registrarSvc{r: r}
	srv := rpc.NewServer()
	rpc.Handle(srv, "Registrar.Register", svc.Register)
	rpc.Handle(srv, "Registrar.Renew", svc.Renew)
	rpc.Handle(srv, "Registrar.Cancel", svc.Cancel)
	rpc.Handle(srv, "Registrar.Lookup", svc.Lookup)
	go srv.Serve(ln)

	if udpPort != 0 {
		addr := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: udpPort}
		udp, err := net.ListenUDP("udp", addr)
		if err != nil {
			ln.Close()
			r.leases.Close()
			return nil, fmt.Errorf("lookup: discovery port: %w", err)
		}
		r.udp = udp
		go r.answerProbes()
	}
	return r, nil
}

// Addr returns the registrar's RPC endpoint.
func (r *Registrar) Addr() string { return r.ln.Addr().String() }

// Count reports the number of live registrations.
func (r *Registrar) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.items)
}

// Close shuts the registrar down.
func (r *Registrar) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	r.ln.Close()
	if r.udp != nil {
		r.udp.Close()
	}
	r.leases.Close()
}

func (r *Registrar) register(req RegisterReq, resp *RegisterResp) error {
	d := time.Duration(req.LeaseMs) * time.Millisecond
	if d <= 0 {
		return fmt.Errorf("lookup: non-positive lease %dms", req.LeaseMs)
	}
	info := r.leases.Grant(nil, d)
	r.mu.Lock()
	r.nextID++
	item := req.Item
	if item.ID == "" {
		item.ID = fmt.Sprintf("svc-%d", r.nextID)
	}
	r.items[info.ID] = item
	r.mu.Unlock()
	resp.ID = item.ID
	resp.LeaseID = info.ID
	return nil
}

func (r *Registrar) remove(leaseID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.items, leaseID)
}

// answerProbes replies to UDP discovery datagrams with this registrar's
// TCP endpoint.
func (r *Registrar) answerProbes() {
	buf := make([]byte, 256)
	for {
		n, from, err := r.udp.ReadFromUDP(buf)
		if err != nil {
			return // socket closed
		}
		if string(buf[:n]) != probeMagic {
			continue
		}
		reply := []byte(replyMagic + r.Addr())
		_, _ = r.udp.WriteToUDP(reply, from)
	}
}

// Client is a connection to one registrar.
type Client struct {
	addr string
	rpc  *rpc.Client
}

// Dial connects to a registrar.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("lookup: dialing registrar %s: %w", addr, err)
	}
	return &Client{addr: addr, rpc: rpc.NewClient(conn)}, nil
}

// Close releases the connection.
func (c *Client) Close() { c.rpc.Close() }

// Register registers an item with a lease of the given duration.
func (c *Client) Register(item ServiceItem, leaseDur time.Duration) (RegisterResp, error) {
	var resp RegisterResp
	err := c.rpc.Call("Registrar.Register", RegisterReq{Item: item, LeaseMs: leaseDur.Milliseconds()}, &resp)
	return resp, err
}

// Renew extends a registration lease.
func (c *Client) Renew(leaseID string, leaseDur time.Duration) error {
	return c.rpc.Call("Registrar.Renew", RenewReq{LeaseID: leaseID, LeaseMs: leaseDur.Milliseconds()}, &struct{}{})
}

// Cancel drops a registration.
func (c *Client) Cancel(leaseID string) error {
	return c.rpc.Call("Registrar.Cancel", RenewReq{LeaseID: leaseID}, &struct{}{})
}

// Lookup finds services matching the template.
func (c *Client) Lookup(tmpl Template) ([]ServiceItem, error) {
	var resp LookupResp
	if err := c.rpc.Call("Registrar.Lookup", LookupReq{Tmpl: tmpl}, &resp); err != nil {
		return nil, err
	}
	return resp.Items, nil
}

// Discover finds registrar addresses. Unicast locators take precedence
// (and, as in Jini, restrict the search to exactly those); with none
// given, group discovery probes the UDP port and collects every registrar
// that answers within the timeout.
func Discover(locators []string, udpPort int, timeout time.Duration) ([]string, error) {
	if len(locators) > 0 {
		return append([]string(nil), locators...), nil
	}
	if udpPort == 0 {
		udpPort = DefaultDiscoveryPort
	}
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("lookup: discovery socket: %w", err)
	}
	defer conn.Close()
	dst := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: udpPort}
	if _, err := conn.WriteToUDP([]byte(probeMagic), dst); err != nil {
		return nil, fmt.Errorf("lookup: sending probe: %w", err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(timeout))
	var found []string
	buf := make([]byte, 256)
	for {
		n, _, err := conn.ReadFromUDP(buf)
		if err != nil {
			break // deadline or socket closed ends collection
		}
		msg := string(buf[:n])
		if strings.HasPrefix(msg, replyMagic) {
			found = append(found, strings.TrimPrefix(msg, replyMagic))
		}
	}
	if len(found) == 0 {
		return nil, fmt.Errorf("lookup: no registrars answered group discovery on UDP port %d", udpPort)
	}
	return found, nil
}

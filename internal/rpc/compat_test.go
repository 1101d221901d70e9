package rpc_test

import (
	"errors"
	"io"
	"log"
	"net"
	stdrpc "net/rpc"
	"strings"
	"testing"
	"time"

	"mpj/internal/daemon"
	"mpj/internal/lookup"
)

// The package keeps net/rpc's gob wire format so that an mpjrun and an
// mpjd built on either side of the switch still talk. These tests hold
// both directions: a stdlib client calls every method of the three
// services, and the services' own clients call stdlib servers.

func stdDial(t *testing.T, addr string) *stdrpc.Client {
	t.Helper()
	c, err := stdrpc.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestStdlibClientCallsDaemon(t *testing.T) {
	spawner := daemon.FuncSpawner{Run: func(_ daemon.SlaveSpec, _ string, stop <-chan struct{}) error {
		<-stop
		return nil
	}}
	d, err := daemon.New(daemon.WithSpawner(spawner), daemon.WithLogger(log.New(io.Discard, "", 0)))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := stdDial(t, d.Addr())

	var info daemon.SlaveInfo
	spec := daemon.SlaveSpec{JobID: 7, Rank: 0, Size: 1, App: "x", LeaseMs: 60_000}
	if err := c.Call("MPJService.CreateSlave", spec, &info); err != nil || info.SlaveID == "" {
		t.Fatalf("CreateSlave = %+v, %v", info, err)
	}
	var ping daemon.PingReply
	if err := c.Call("MPJService.Ping", struct{}{}, &ping); err != nil || ping.Addr != d.Addr() || ping.Jobs != 1 || ping.Slaves != 1 {
		t.Fatalf("Ping = %+v, %v; want one job with one slave", ping, err)
	}
	var renew daemon.RenewJobReply
	if err := c.Call("MPJService.RenewJob", daemon.RenewJobReq{JobID: 7, LeaseMs: 60_000}, &renew); err != nil {
		t.Fatalf("RenewJob: %v", err)
	}
	// A service error crosses as its text.
	err = c.Call("MPJService.RenewJob", daemon.RenewJobReq{JobID: 99, LeaseMs: 1000}, &renew)
	if err == nil || err.Error() != "daemon: no leased job 99" {
		t.Fatalf("RenewJob of an unknown job = %v; want the daemon's error text", err)
	}
	var hb daemon.HeartbeatReply
	req := daemon.HeartbeatReq{JobID: 7, Memberships: []daemon.Membership{{Epoch: 7, Rank: 0}}}
	if err := c.Call("MPJService.Heartbeat", req, &hb); err != nil || hb.Addr != d.Addr() {
		t.Fatalf("Heartbeat = %+v, %v", hb, err)
	}
	if err := c.Call("MPJService.DestroyJob", daemon.JobRef{JobID: 7, Reason: "test"}, &struct{}{}); err != nil {
		t.Fatalf("DestroyJob: %v", err)
	}
	// gob leaves zero fields out, so decode into a fresh reply.
	var after daemon.PingReply
	if err := c.Call("MPJService.Ping", struct{}{}, &after); err != nil || after.Jobs != 0 {
		t.Fatalf("Ping after DestroyJob = %+v, %v; want no jobs", after, err)
	}
	// An unknown method is an error and the connection stays usable.
	if err := c.Call("MPJService.Nope", struct{}{}, &struct{}{}); err == nil {
		t.Fatal("unknown method succeeded")
	}
	if err := c.Call("MPJService.Ping", struct{}{}, &ping); err != nil {
		t.Fatalf("Ping after an unknown method: %v", err)
	}
}

func TestStdlibClientCallsRegistrar(t *testing.T) {
	r, err := lookup.NewRegistrar(0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c := stdDial(t, r.Addr())

	item := lookup.ServiceItem{Type: "MPJService", Addr: "127.0.0.1:1", Host: "h", Attrs: map[string]string{"k": "v"}}
	var reg lookup.RegisterResp
	if err := c.Call("Registrar.Register", lookup.RegisterReq{Item: item, LeaseMs: 60_000}, &reg); err != nil || reg.LeaseID == "" {
		t.Fatalf("Register = %+v, %v", reg, err)
	}
	if err := c.Call("Registrar.Renew", lookup.RenewReq{LeaseID: reg.LeaseID, LeaseMs: 60_000}, &struct{}{}); err != nil {
		t.Fatalf("Renew: %v", err)
	}
	var found lookup.LookupResp
	if err := c.Call("Registrar.Lookup", lookup.LookupReq{Tmpl: lookup.Template{Type: "MPJService"}}, &found); err != nil ||
		len(found.Items) != 1 || found.Items[0].Addr != item.Addr || found.Items[0].Attrs["k"] != "v" {
		t.Fatalf("Lookup = %+v, %v", found, err)
	}
	if err := c.Call("Registrar.Cancel", lookup.RenewReq{LeaseID: reg.LeaseID}, &struct{}{}); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	if r.Count() != 0 {
		t.Fatalf("%d registrations after Cancel", r.Count())
	}
	if err := c.Call("Registrar.Register", lookup.RegisterReq{Item: item}, &reg); err == nil ||
		!strings.Contains(err.Error(), "non-positive lease") {
		t.Fatalf("Register with no lease = %v; want the registrar's error text", err)
	}
}

func TestStdlibClientCallsEventListener(t *testing.T) {
	got := make(chan daemon.Event, 1)
	recv, err := daemon.NewReceiver(func(ev daemon.Event) { got <- ev })
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()
	c := stdDial(t, recv.Addr())
	want := daemon.Event{Type: daemon.TypeAbort, JobID: 3, Source: "s", Seq: 4, Message: "m"}
	if err := c.Call("EventListener.Notify", want, &struct{}{}); err != nil {
		t.Fatalf("Notify: %v", err)
	}
	select {
	case ev := <-got:
		if ev != want {
			t.Fatalf("delivered %+v, want %+v", ev, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("event not delivered")
	}
}

// oldDaemon and oldRegistrar answer as the net/rpc services did before
// the switch: receivers whose method sets net/rpc reflects over.
type oldDaemon struct{ addr string }

func (o *oldDaemon) Ping(_ struct{}, reply *daemon.PingReply) error {
	reply.Addr = o.addr
	reply.Jobs = 2
	return nil
}

func (o *oldDaemon) RenewJob(req daemon.RenewJobReq, reply *daemon.RenewJobReply) error {
	if req.JobID != 5 {
		return errors.New("daemon: no leased job")
	}
	reply.Dead = []daemon.DeadRank{{Epoch: 5, Rank: 1, Cause: "gone"}}
	return nil
}

type oldRegistrar struct{}

func (oldRegistrar) Lookup(req lookup.LookupReq, resp *lookup.LookupResp) error {
	resp.Items = []lookup.ServiceItem{{Type: req.Tmpl.Type, Addr: "a:1"}}
	return nil
}

func stdServe(t *testing.T, register func(*stdrpc.Server) error) string {
	t.Helper()
	srv := stdrpc.NewServer()
	if err := register(srv); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		// srv.Accept would log the listener's close.
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return ln.Addr().String()
}

func TestClientsCallStdlibServers(t *testing.T) {
	addr := stdServe(t, func(s *stdrpc.Server) error {
		return s.RegisterName(daemon.ServiceType, &oldDaemon{addr: "old"})
	})
	dc, err := daemon.DialDaemon(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dc.Close()
	if ping, err := dc.Ping(); err != nil || ping.Addr != "old" || ping.Jobs != 2 {
		t.Fatalf("Ping = %+v, %v", ping, err)
	}
	if dead, err := dc.RenewJob(5, time.Second); err != nil || len(dead) != 1 || dead[0].Cause != "gone" {
		t.Fatalf("RenewJob = %+v, %v", dead, err)
	}
	if _, err := dc.RenewJob(6, time.Second); err == nil || err.Error() != "daemon: no leased job" {
		t.Fatalf("RenewJob of an unknown job = %v; want the server's error text", err)
	}
	// A method the old server lacks is an error, not a broken stream.
	if err := dc.DestroyJob(5, "x"); err == nil {
		t.Fatal("DestroyJob on a server without it succeeded")
	}
	if _, err := dc.Ping(); err != nil {
		t.Fatalf("Ping after an unknown method: %v", err)
	}

	addr = stdServe(t, func(s *stdrpc.Server) error { return s.RegisterName("Registrar", oldRegistrar{}) })
	lc, err := lookup.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer lc.Close()
	if items, err := lc.Lookup(lookup.Template{Type: "T"}); err != nil || len(items) != 1 || items[0].Type != "T" {
		t.Fatalf("Lookup = %+v, %v", items, err)
	}
}

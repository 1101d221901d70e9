package lookup

import (
	"fmt"
	"testing"
	"time"
)

func newTestRegistrar(t *testing.T, udpPort int) *Registrar {
	t.Helper()
	r, err := NewRegistrar(udpPort)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestRegisterAndLookup(t *testing.T) {
	reg := newTestRegistrar(t, 0)
	c, err := Dial(reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	item := ServiceItem{Type: "MPJService", Addr: "10.0.0.1:99", Host: "hostA",
		Attrs: map[string]string{"slots": "4"}}
	resp, err := c.Register(item, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" || resp.LeaseID == "" {
		t.Fatalf("bad response %+v", resp)
	}

	items, err := c.Lookup(Template{Type: "MPJService"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 1 || items[0].Addr != "10.0.0.1:99" || items[0].Attrs["slots"] != "4" {
		t.Fatalf("lookup = %+v", items)
	}

	// Non-matching templates.
	if items, _ := c.Lookup(Template{Type: "Other"}); len(items) != 0 {
		t.Errorf("type mismatch returned %v", items)
	}
	if items, _ := c.Lookup(Template{Host: "hostB"}); len(items) != 0 {
		t.Errorf("host mismatch returned %v", items)
	}
	if items, _ := c.Lookup(Template{Host: "hostA"}); len(items) != 1 {
		t.Errorf("host match returned %v", items)
	}
}

func TestRegistrationLeaseExpiry(t *testing.T) {
	reg := newTestRegistrar(t, 0)
	c, err := Dial(reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Register(ServiceItem{Type: "MPJService"}, 40*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for reg.Count() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("registration did not expire")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestRenewalAndCancel(t *testing.T) {
	reg := newTestRegistrar(t, 0)
	c, err := Dial(reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := c.Register(ServiceItem{Type: "MPJService"}, 60*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		time.Sleep(25 * time.Millisecond)
		if err := c.Renew(resp.LeaseID, 60*time.Millisecond); err != nil {
			t.Fatalf("renew: %v", err)
		}
	}
	if reg.Count() != 1 {
		t.Error("renewed registration lapsed")
	}
	if err := c.Cancel(resp.LeaseID); err != nil {
		t.Fatal(err)
	}
	if reg.Count() != 0 {
		t.Error("cancelled registration still present")
	}
}

func TestRejectsNonPositiveLease(t *testing.T) {
	reg := newTestRegistrar(t, 0)
	c, err := Dial(reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Register(ServiceItem{Type: "X"}, 0); err == nil {
		t.Error("zero lease accepted")
	}
}

func TestUnicastDiscovery(t *testing.T) {
	addrs, err := Discover([]string{"a:1", "b:2"}, 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 2 || addrs[0] != "a:1" {
		t.Fatalf("unicast discover = %v", addrs)
	}
}

func TestGroupDiscovery(t *testing.T) {
	const port = 41601
	reg := newTestRegistrar(t, port)
	addrs, err := Discover(nil, port, 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != 1 || addrs[0] != reg.Addr() {
		t.Fatalf("group discover = %v, want [%s]", addrs, reg.Addr())
	}
}

func TestGroupDiscoveryNoRegistrar(t *testing.T) {
	if _, err := Discover(nil, 41699, 100*time.Millisecond); err == nil {
		t.Error("discovery with no registrar succeeded")
	}
}

func TestMultipleServicesMultipleClients(t *testing.T) {
	reg := newTestRegistrar(t, 0)
	for i := 0; i < 5; i++ {
		c, err := Dial(reg.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Register(ServiceItem{
			Type: "MPJService",
			Addr: fmt.Sprintf("10.0.0.%d:1", i),
			Host: fmt.Sprintf("host%d", i),
		}, time.Minute); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	c, err := Dial(reg.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	items, err := c.Lookup(Template{Type: "MPJService"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("found %d services, want 5", len(items))
	}
}

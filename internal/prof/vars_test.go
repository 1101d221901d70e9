package prof

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// startVars serves the endpoint on a fresh listener with the given
// deadline; the listener closes when the test ends.
func startVars(t *testing.T, deadline time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go serveVars(ln, deadline)
	return ln.Addr().String()
}

// TestVarsDocument: the document is expvar's — one JSON object whose
// keys, sorted, are the published blocks plus cmdline and memstats.
func TestVarsDocument(t *testing.T) {
	PublishMPJ()
	Publish("zz.test", func() any { return map[string]int{"n": 1} })
	Publish("zz.test", func() any { return map[string]int{"n": 2} }) // replaces
	doc := document()

	var vars map[string]json.RawMessage
	if err := json.Unmarshal(doc, &vars); err != nil {
		t.Fatalf("document is not JSON: %v\n%s", err, doc)
	}
	var cmdline []string
	if err := json.Unmarshal(vars["cmdline"], &cmdline); err != nil || !reflect.DeepEqual(cmdline, os.Args) {
		t.Errorf("cmdline = %s, want os.Args %q", vars["cmdline"], os.Args)
	}
	var ms struct{ HeapAlloc, NumGC uint64 }
	if err := json.Unmarshal(vars["memstats"], &ms); err != nil || ms.HeapAlloc == 0 {
		t.Errorf("memstats = %.80s…, %v; want runtime.MemStats", vars["memstats"], err)
	}
	if string(vars["zz.test"]) != `{"n":2}` {
		t.Errorf("zz.test = %s, want the last published function's value", vars["zz.test"])
	}
	if _, ok := vars["mpj"]; !ok {
		t.Error("mpj block missing")
	}

	// expvar's layout: "{\n", then `"key": value` lines joined by ",\n",
	// keys in sorted order, then "\n}\n".
	lines := strings.Split(strings.TrimSuffix(string(doc), "\n}\n"), ",\n")
	var keys []string
	for i, l := range lines {
		if i == 0 {
			l = strings.TrimPrefix(l, "{\n")
		}
		k, _, _ := strings.Cut(l, ": ")
		keys = append(keys, k)
	}
	if !sort.StringsAreSorted(keys) || len(keys) != len(vars) {
		t.Errorf("keys %v: want %d, sorted", keys, len(vars))
	}
}

// request sends raw bytes and returns everything the endpoint answers
// before it closes the connection.
func request(t *testing.T, addr, raw string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, raw); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	out, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("reading the answer to %.40q: %v", raw, err)
	}
	return string(out)
}

func TestVarsNotFound(t *testing.T) {
	addr := startVars(t, 5*time.Second)
	base := "http://" + addr

	for _, path := range []string{"/", "/debug/varsx", "/debug/vars/", "/debug/pprof/"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
	resp, err := http.Post(base+"/debug/vars", "text/plain", strings.NewReader("a body the endpoint never reads"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /debug/vars = %d, want 404", resp.StatusCode)
	}
	for _, raw := range []string{
		"HEAD /debug/vars HTTP/1.1\r\nHost: x\r\n\r\n",
		"get /debug/vars HTTP/1.1\r\n\r\n",
		"GET /debug/vars\r\n\r\n",
		"not a request at all\n\n",
	} {
		if got := request(t, addr, raw); !strings.HasPrefix(got, "HTTP/1.1 404 ") {
			t.Errorf("%q answered %.60q, want a 404", raw, got)
		}
	}
	// A query string is not part of the path.
	if got := request(t, addr, "GET /debug/vars?x=1 HTTP/1.0\n\n"); !strings.HasPrefix(got, "HTTP/1.1 200 ") {
		t.Errorf("GET with a query answered %.60q, want 200", got)
	}
}

func TestVarsHeadOverBound(t *testing.T) {
	addr := startVars(t, 5*time.Second)
	raw := "GET /debug/vars HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", 2*maxHead) + "\r\n\r\n"
	got := request(t, addr, raw)
	if !strings.HasPrefix(got, "HTTP/1.1 431 ") {
		t.Fatalf("a %d-byte head answered %.60q, want 431", len(raw), got)
	}
	// One line short of the bound is still answered.
	raw = "GET /debug/vars HTTP/1.1\r\nX-Pad: " + strings.Repeat("a", maxHead-100) + "\r\n\r\n"
	if got := request(t, addr, raw); !strings.HasPrefix(got, "HTTP/1.1 200 ") {
		t.Fatalf("a %d-byte head answered %.60q, want 200", len(raw), got)
	}
}

// TestVarsHeadDeadline: a client that never finishes its head is cut off
// at the deadline, with no answer.
func TestVarsHeadDeadline(t *testing.T) {
	const deadline = 200 * time.Millisecond
	addr := startVars(t, deadline)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET /debug/vars HTTP/1.1\r\nHost: x\r\n"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_ = conn.SetReadDeadline(start.Add(10 * time.Second))
	n, err := bufio.NewReader(conn).Read(make([]byte, 1))
	took := time.Since(start)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("connection still open after %v (deadline %v)", took, deadline)
	}
	if n != 0 || err == nil {
		t.Fatalf("unfinished head answered (%d bytes, %v)", n, err)
	}
	if took > 5*time.Second {
		t.Fatalf("cut off after %v, deadline %v", took, deadline)
	}
}

// TestVarsKeysEveryLiveRecorder: two live recorders of one rank — a
// survivor that rejoined a spawn mesh keeps its first recorder until the
// old mesh closes — are both listed, each under its own key, and a key
// freed by a retired recorder is reused.
func TestVarsKeysEveryLiveRecorder(t *testing.T) {
	ranks := func() map[string]any { return Vars().(map[string]any)["ranks"].(map[string]any) }
	first, second := New(23, Spec{Counters: true}), New(23, Spec{Counters: true})
	Track(first)
	Track(second)
	first.Send(5, 100, true)
	second.Send(5, 200, true)
	got := ranks()
	for key, want := range map[string]int64{"23": 100, "23#2": 200} {
		entry, ok := got[key].(map[string]any)
		if !ok {
			t.Fatalf("no entry %q in %v", key, got)
		}
		if s := entry["counters"].(Snapshot); s.EagerSentBytes != want {
			t.Errorf("entry %q counts %d bytes, want %d", key, s.EagerSentBytes, want)
		}
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	third := New(23, Spec{Counters: true})
	Track(third)
	got = ranks()
	if _, ok := got["23#2"]; !ok {
		t.Errorf("the second recorder lost its key: %v", got)
	}
	if _, ok := got["23"]; !ok {
		t.Errorf("the freed key was not reused: %v", got)
	}
	for _, r := range []*Recorder{second, third} {
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if got := ranks(); got["23"] != nil || got["23#2"] != nil {
		t.Errorf("closed recorders still listed: %v", got)
	}
}

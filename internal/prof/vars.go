package prof

import (
	"bufio"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file implements the /debug/vars endpoint behind MPJ_PROF_ADDR and
// mpjd -prof-addr: recorders register in a process-wide registry, the
// "mpj" block serves their per-rank counters (plus whatever status each
// recorder exposes — failed ranks, failure epochs), and Serve answers
// GET /debug/vars with the JSON document the standard library's expvar
// handler writes: every published block plus "cmdline" and "memstats",
// keys sorted. The responder speaks just enough HTTP/1.1 for curl and
// net/http clients — one request per connection, a bounded head, a
// deadline — so no rank process links net/http.
//
// Closed recorders leave the per-rank listing but their totals fold into
// a retired sum, so the endpoint's cumulative block survives job
// completion — a curl after the run still sees the traffic.

// reg is the process-wide recorder registry. keys holds each live
// recorder's entry name in the "ranks" listing.
var reg struct {
	mu      sync.Mutex
	live    []*Recorder
	keys    map[*Recorder]string
	retired Snapshot
	closed  int // recorders folded into retired
}

// Track registers a recorder with the endpoint's registry. The runtime calls
// it for every recorder it creates; Recorder.Close retires it. The
// recorder is listed under its rank number, or — when a live recorder of
// the same rank has that key, as a survivor's does when it rejoins a spawn
// mesh — under "<rank>#2", "<rank>#3", … whichever is free.
func Track(r *Recorder) {
	if r == nil {
		return
	}
	reg.mu.Lock()
	defer reg.mu.Unlock()
	if _, ok := reg.keys[r]; ok {
		return
	}
	taken := make(map[string]bool, len(reg.keys))
	for _, k := range reg.keys {
		taken[k] = true
	}
	key := strconv.Itoa(r.rank)
	for n := 2; taken[key]; n++ {
		key = strconv.Itoa(r.rank) + "#" + strconv.Itoa(n)
	}
	if reg.keys == nil {
		reg.keys = make(map[*Recorder]string)
	}
	reg.keys[r] = key
	reg.live = append(reg.live, r)
}

// untrack folds a closing recorder's totals into the retired sum.
func untrack(r *Recorder) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	for i, x := range reg.live {
		if x == r {
			reg.live = append(reg.live[:i], reg.live[i+1:]...)
			delete(reg.keys, r)
			reg.retired.add(r.Snapshot())
			reg.closed++
			return
		}
	}
}

// Vars builds the value of the "mpj" block: per-live-recorder counter
// snapshots and status, keyed as Track named them, plus the cumulative
// total including retired recorders.
func Vars() any {
	reg.mu.Lock()
	live := append([]*Recorder(nil), reg.live...)
	keys := make([]string, len(live))
	for i, r := range live {
		keys[i] = reg.keys[r]
	}
	total := reg.retired
	closed := reg.closed
	reg.mu.Unlock()

	ranks := make(map[string]any, len(live))
	for i, r := range live {
		s := r.Snapshot()
		total.add(s)
		entry := map[string]any{"counters": s}
		if st := r.Status(); st != nil {
			entry["status"] = st
		}
		ranks[keys[i]] = entry
	}
	return map[string]any{
		"ranks":  ranks,
		"total":  total,
		"closed": closed,
	}
}

// pub maps each published block's name to the function that builds it.
// It starts with the two blocks expvar publishes in every process.
var pub = struct {
	mu sync.Mutex
	m  map[string]func() any
}{m: map[string]func() any{
	"cmdline":  func() any { return os.Args },
	"memstats": memstats,
}}

func memstats() any {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// Publish exposes f's value under name on the /debug/vars endpoint,
// replacing any function previously published under that name: the
// runtime re-publishes on every job start, and benchmarks run many.
func Publish(name string, f func() any) {
	pub.mu.Lock()
	defer pub.mu.Unlock()
	pub.m[name] = f
}

// PublishMPJ publishes the "mpj" counter block (see Vars). Idempotent.
func PublishMPJ() { Publish("mpj", Vars) }

// document renders every published block as one JSON object, keys sorted,
// laid out as expvar's handler lays it out.
func document() []byte {
	pub.mu.Lock()
	names := make([]string, 0, len(pub.m))
	fs := make(map[string]func() any, len(pub.m))
	for name, f := range pub.m {
		names = append(names, name)
		fs[name] = f
	}
	pub.mu.Unlock()
	sort.Strings(names)

	b := []byte("{\n")
	for i, name := range names {
		if i > 0 {
			b = append(b, ",\n"...)
		}
		b = strconv.AppendQuote(b, name)
		b = append(b, ": "...)
		js, err := json.Marshal(fs[name]())
		if err != nil {
			js, _ = json.Marshal("prof: " + err.Error())
		}
		b = append(b, js...)
	}
	return append(b, "\n}\n"...)
}

// servers tracks listeners already serving, keyed by requested address,
// so repeated Serve calls (one per RunLocal in a benchmark loop) reuse
// the first listener instead of failing on the occupied port.
var servers = struct {
	mu sync.Mutex
	m  map[string]string // requested addr → bound addr
}{m: make(map[string]string)}

// Serve starts the /debug/vars endpoint on addr and returns the bound
// address. A second call with the same addr returns the existing
// endpoint's address. The endpoint runs until the process exits — it
// outlives jobs on purpose.
func Serve(addr string) (string, error) {
	servers.mu.Lock()
	defer servers.mu.Unlock()
	if bound, ok := servers.m[addr]; ok {
		return bound, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	go serveVars(ln, varsDeadline)
	bound := ln.Addr().String()
	servers.m[addr] = bound
	return bound, nil
}

const (
	// maxHead bounds a request's line and headers; curl and net/http
	// send a few hundred bytes.
	maxHead = 8 << 10
	// varsDeadline bounds a whole exchange: a client that has not sent
	// its head, or not taken the answer, by then is cut off.
	varsDeadline = 10 * time.Second
)

// serveVars answers each connection on ln once, until ln closes.
func serveVars(ln net.Listener, deadline time.Duration) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Out of descriptors, say: back off as net/http does.
			time.Sleep(50 * time.Millisecond)
			continue
		}
		go answer(conn, deadline)
	}
}

// answer reads one request head and writes one response: the vars
// document for GET /debug/vars, 404 for anything else, 431 for a head
// over maxHead. A head still unfinished at the deadline gets nothing.
func answer(conn net.Conn, deadline time.Duration) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(deadline))
	head := &io.LimitedReader{R: conn, N: maxHead}
	method, path, err := readHead(bufio.NewReader(head))
	var status, ctype string
	var body []byte
	switch {
	case err != nil && head.N == 0:
		status, ctype, body = "431 Request Header Fields Too Large", "text/plain; charset=utf-8", []byte("request head too large\n")
	case err != nil:
		return
	case method == "GET" && path == "/debug/vars":
		status, ctype, body = "200 OK", "application/json; charset=utf-8", document()
	default:
		status, ctype, body = "404 Not Found", "text/plain; charset=utf-8", []byte("404 page not found\n")
	}
	resp := "HTTP/1.1 " + status + "\r\nContent-Type: " + ctype +
		"\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\nConnection: close\r\n\r\n"
	if _, err := conn.Write(append([]byte(resp), body...)); err != nil {
		return
	}
	// Close only once the client has: closing with its request body or
	// the rest of an oversized head unread would reset the connection
	// and could drop the answer before the client reads it.
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.CloseWrite()
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(conn, 1<<20))
}

// readHead reads a request line and headers up to the empty line that
// ends them and returns the method and the path without its query.
func readHead(r *bufio.Reader) (method, path string, err error) {
	line, err := r.ReadString('\n')
	if err != nil {
		return "", "", err
	}
	for {
		h, err := r.ReadString('\n')
		if err != nil {
			return "", "", err
		}
		if strings.TrimRight(h, "\r\n") == "" {
			break
		}
	}
	f := strings.Fields(line)
	if len(f) != 3 || !strings.HasPrefix(f[2], "HTTP/") {
		return "", "", nil
	}
	path, _, _ = strings.Cut(f[1], "?")
	return f[0], path, nil
}

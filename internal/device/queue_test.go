package device

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// TestQueueKeepsOrder drives the queue against a plain slice model: random
// pushes, drops at random positions and filters keep the same entries in
// the same order, and every slot outside the live entries is zero.
func TestQueueKeepsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q queue[*int]
	var model []*int
	for step := 0; step < 20000; step++ {
		switch k := rng.Intn(10); {
		case k < 5 || len(model) == 0:
			x := new(int)
			*x = step
			q.push(x)
			model = append(model, x)
		case k < 9:
			i := rng.Intn(len(model))
			if rng.Intn(2) == 0 {
				i = rng.Intn(min(len(model), 3)) // matches sit near the front
			}
			q.drop(i)
			model = append(model[:i:i], model[i+1:]...)
		default:
			kept := q.live()[:0]
			var km []*int
			for _, x := range q.live() {
				if *x%3 != 0 {
					kept = append(kept, x)
					km = append(km, x)
				}
			}
			q.keep(len(kept))
			model = km
		}
		live := q.live()
		if len(live) != len(model) {
			t.Fatalf("step %d: %d live entries, want %d", step, len(live), len(model))
		}
		for i := range live {
			if live[i] != model[i] {
				t.Fatalf("step %d: entry %d is %d, want %d", step, i, *live[i], *model[i])
			}
		}
		for i, x := range q.buf[:cap(q.buf)] {
			if x != nil && (i < q.head || i >= len(q.buf)) {
				t.Fatalf("step %d: slot %d outside the live entries [%d, %d) still holds %d", step, i, q.head, len(q.buf), *x)
			}
		}
	}
}

// TestQueueSteadyStateAllocatesNothing: a queue k deep, where each match
// takes the front entry and each arrival joins the back, runs in one array.
// Re-slicing the front away would shed a slot of capacity per match and
// reallocate every few matches.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	for _, k := range []int{1, 2, 3, 8, 64} {
		var q queue[int]
		for i := 0; i < k; i++ {
			q.push(i)
		}
		for i := 0; i < 4*k; i++ { // let the array reach its size
			q.drop(0)
			q.push(i)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			q.drop(0)
			q.push(0)
		}); allocs != 0 {
			t.Errorf("depth %d: %.2f allocations per match and arrival, want 0", k, allocs)
		}
	}
}

// TestDeepQueuesMatchInOrder: a few thousand messages from three sources,
// on two contexts and four tags, some eager and some rendezvous, queue
// unexpected at rank 0 before any receive is posted. Specific receives,
// AnyTag receives, AnySource receives and a final AnySource/AnyTag drain
// then take them. Every message a receive gets is the earliest one still
// queued that it matches among those of its source and context: messages
// do not overtake per (source, tag, context), and AnyTag does not overtake
// per (source, context). Iprobe names the entry the matching receive then
// gets; a rendezvous send cancelled from the middle of the queue, and a
// posted receive cancelled from the middle of the posted queue, leave the
// others in place.
func TestDeepQueuesMatchInOrder(t *testing.T) {
	const (
		perSource  = 1200
		eagerLimit = 512
		cancelTag  = 9
	)
	ds := openMesh(t, 4, WithEagerLimit(eagerLimit))
	d0 := ds[0]
	rng := rand.New(rand.NewSource(55))

	// sent[src] lists what each source sent, in send order; a message's
	// payload carries its source, tag, context and index there, and its
	// length tells an eager message from a rendezvous one and the probe
	// which entry it saw.
	type msg struct{ tag, ctx, idx, size int }
	sent := make([][]msg, len(ds))
	taken := make([][]bool, len(ds))
	var rdv []*Request
	var cancelled *Request
	for i := 0; i < perSource; i++ {
		for src := 1; src < len(ds); src++ {
			m := msg{tag: rng.Intn(4), ctx: 2 * rng.Intn(2), idx: len(sent[src]), size: 16 + rng.Intn(8)}
			if rng.Intn(40) == 0 {
				m.size = eagerLimit + 16 + rng.Intn(8)
			}
			buf := make([]byte, m.size)
			binary.LittleEndian.PutUint32(buf[0:], uint32(src))
			binary.LittleEndian.PutUint32(buf[4:], uint32(m.tag))
			binary.LittleEndian.PutUint32(buf[8:], uint32(m.ctx))
			binary.LittleEndian.PutUint32(buf[12:], uint32(m.idx))
			r := must(ds[src].Isend(buf, 0, m.tag, m.ctx, ModeStandard))
			if m.size > eagerLimit {
				rdv = append(rdv, r)
			} else if _, err := r.Wait(); err != nil {
				t.Fatal(err)
			}
			sent[src] = append(sent[src], m)
			taken[src] = append(taken[src], false)
		}
		if i == perSource/2 {
			cancelled = must(ds[1].Isend(make([]byte, eagerLimit+1), 0, cancelTag, 0, ModeStandard))
		}
	}
	total := int64(3*perSource + 1)
	waitUntil(t, func() bool { return d0.Stats().Unexpected.Load() == total })

	// The rendezvous send from the middle of the queue cancels, and takes
	// only its own entry with it.
	if err := cancelled.Cancel(); err != nil {
		t.Fatal(err)
	}
	if st, err := cancelled.Wait(); err != nil || !st.Cancelled {
		t.Fatalf("cancel of a queued rendezvous send: %+v, %v; want cancelled", st, err)
	}
	if _, ok, err := d0.Iprobe(1, cancelTag, 0); ok || err != nil {
		t.Fatalf("the cancelled message is still probeable: ok=%v err=%v", ok, err)
	}

	// earliest is the message the receive (src, tag, ctx) must get: the
	// first untaken one it matches, by source then send order for
	// AnySource, since each source's messages arrive in the order sent.
	earliest := func(src, tag, ctx int) (int, msg, bool) {
		for s := 1; s < len(ds); s++ {
			if src != AnySource && s != src {
				continue
			}
			for i, m := range sent[s] {
				if !taken[s][i] && m.ctx == ctx && (tag == AnyTag || m.tag == tag) {
					return s, m, true
				}
			}
		}
		return 0, msg{}, false
	}
	recv := func(src, tag, ctx int) bool {
		t.Helper()
		ws, wm, ok := earliest(src, tag, ctx)
		if !ok {
			return false
		}
		st, probed, err := d0.Iprobe(src, tag, ctx)
		if err != nil || !probed {
			t.Fatalf("Iprobe(%d, %d, %d) found nothing: %v", src, tag, ctx, err)
		}
		buf := make([]byte, eagerLimit+32)
		r := must(d0.Irecv(buf, src, tag, ctx))
		rst, err := r.Wait()
		if err != nil {
			t.Fatal(err)
		}
		gs := int(binary.LittleEndian.Uint32(buf[0:]))
		gtag := int(binary.LittleEndian.Uint32(buf[4:]))
		gctx := int(binary.LittleEndian.Uint32(buf[8:]))
		gi := int(binary.LittleEndian.Uint32(buf[12:]))
		if gs < 1 || gs >= len(ds) || gi >= len(sent[gs]) || taken[gs][gi] {
			t.Fatalf("receive (%d, %d, %d) got source %d index %d: not a queued message", src, tag, ctx, gs, gi)
		}
		got := sent[gs][gi]
		taken[gs][gi] = true
		if rst.Source != gs || rst.Tag != got.tag || rst.Count != got.size || gtag != got.tag || gctx != ctx {
			t.Fatalf("receive (%d, %d, %d): status %+v for source %d's message %+v", src, tag, ctx, rst, gs, got)
		}
		if st != rst {
			t.Fatalf("receive (%d, %d, %d): Iprobe saw %+v, the receive got %+v", src, tag, ctx, st, rst)
		}
		if src != AnySource && (gs != ws || gi != wm.idx) {
			t.Fatalf("receive (%d, %d, %d) got source %d's message %d, want %d: overtaken", src, tag, ctx, gs, gi, wm.idx)
		}
		if src == AnySource {
			if _, first, ok := earliest(gs, tag, ctx); ok && first.idx < gi {
				t.Fatalf("receive (any, %d, %d) got source %d's message %d ahead of its message %d", tag, ctx, gs, gi, first.idx)
			}
		}
		return true
	}

	for i := 0; i < 600; i++ { // specific receives
		recv(1+rng.Intn(3), rng.Intn(4), 2*rng.Intn(2))
	}
	for i := 0; i < 600; i++ { // AnyTag from one source
		recv(1+rng.Intn(3), AnyTag, 2*rng.Intn(2))
	}
	for i := 0; i < 600; i++ { // AnySource with one tag
		recv(AnySource, rng.Intn(4), 2*rng.Intn(2))
	}
	for _, ctx := range []int{0, 2} { // drain
		for recv(AnySource, AnyTag, ctx) {
		}
	}
	if _, ok, _ := d0.Iprobe(AnySource, AnyTag, 0); ok {
		t.Fatal("a message is still queued after the drain")
	}
	for _, r := range rdv {
		if _, err := r.Wait(); err != nil {
			t.Fatal(err)
		}
	}

	// Posted receives that nothing matches yet, one cancelled from the
	// middle: the others take the messages that come, in order.
	const ctx = 4
	posted := make([]*Request, 7)
	bufs := make([][]byte, len(posted))
	for i := range posted {
		bufs[i] = make([]byte, 4)
		posted[i] = must(d0.Irecv(bufs[i], 1, 0, ctx))
	}
	if err := posted[3].Cancel(); err != nil {
		t.Fatal(err)
	}
	if st, err := posted[3].Wait(); err != nil || !st.Cancelled {
		t.Fatalf("cancel of a posted receive: %+v, %v; want cancelled", st, err)
	}
	for i := 0; i < len(posted)-1; i++ {
		buf := make([]byte, 4)
		binary.LittleEndian.PutUint32(buf, uint32(i))
		if _, err := must(ds[1].Isend(buf, 0, 0, ctx, ModeStandard)).Wait(); err != nil {
			t.Fatal(err)
		}
	}
	want := 0
	for i, r := range posted {
		if i == 3 {
			continue
		}
		if _, err := r.Wait(); err != nil {
			t.Fatal(err)
		}
		if got := int(binary.LittleEndian.Uint32(bufs[i])); got != want {
			t.Fatalf("posted receive %d got message %d, want %d", i, got, want)
		}
		want++
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/quick"
)

func TestHeaderRoundTrip(t *testing.T) {
	cases := []Header{
		{Kind: KindEager, Src: 0, Tag: 0, Context: 0, Seq: 0, MsgID: 0, Len: 0},
		{Kind: KindRTS, Src: 3, Tag: 42, Context: 7, Seq: 1, MsgID: 99, Len: 1 << 20},
		{Kind: KindCTS, Src: 15, Tag: -1, Context: 2, Seq: 1 << 40, MsgID: 1 << 60, Len: 0},
		{Kind: KindData, Src: 1, Tag: 1 << 30, Context: 1 << 30, Seq: ^uint64(0), MsgID: 5, Len: 17},
		{Kind: KindCancel, Src: 2, Tag: -2, Context: 0, Seq: 9, MsgID: 8, Len: 0},
		{Kind: KindGoodbye, Src: 6, Tag: 0, Context: 0, Seq: 0, MsgID: 0, Len: 0},
	}
	for _, want := range cases {
		buf := make([]byte, HeaderLen)
		if err := want.Encode(buf); err != nil {
			t.Fatalf("Encode(%+v): %v", want, err)
		}
		var got Header
		if err := got.Decode(buf); err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if got != want {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(kind uint8, src, tag, ctx int32, seq, msgID uint64, ln int32) bool {
		want := Header{Kind: Kind(kind), Src: src, Tag: tag, Context: ctx, Seq: seq, MsgID: msgID, Len: ln}
		buf := make([]byte, HeaderLen)
		if err := want.Encode(buf); err != nil {
			return false
		}
		var got Header
		if err := got.Decode(buf); err != nil {
			return false
		}
		return got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEncodeShortBuffer(t *testing.T) {
	h := Header{Kind: KindEager}
	if err := h.Encode(make([]byte, HeaderLen-1)); err != ErrShortHeader {
		t.Errorf("Encode into short buffer: got %v, want ErrShortHeader", err)
	}
	if err := h.Decode(make([]byte, HeaderLen-1)); err != ErrShortHeader {
		t.Errorf("Decode from short buffer: got %v, want ErrShortHeader", err)
	}
}

func TestNewFramePayload(t *testing.T) {
	h := Header{Kind: KindEager, Src: 1, Tag: 2, Context: 3, Len: 5}
	payload := []byte("hello")
	frame := NewFrame(&h, payload)
	if len(frame) != HeaderLen+5 {
		t.Fatalf("frame length = %d, want %d", len(frame), HeaderLen+5)
	}
	if !bytes.Equal(Payload(frame), payload) {
		t.Errorf("Payload = %q, want %q", Payload(frame), payload)
	}
	var got Header
	if err := got.Decode(frame); err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("decoded header %+v, want %+v", got, h)
	}
}

func TestStreamFraming(t *testing.T) {
	var buf bytes.Buffer
	frames := [][]byte{
		NewFrame(&Header{Kind: KindEager, Len: 3}, []byte("abc")),
		NewFrame(&Header{Kind: KindRTS, Len: 100}, nil),
		NewFrame(&Header{Kind: KindData, Len: 0}, nil),
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame #%d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame #%d mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("ReadFrame at end: got %v, want io.EOF", err)
	}
}

func TestReadFrameRejectsBogusLengths(t *testing.T) {
	// Length prefix below HeaderLen.
	var buf bytes.Buffer
	buf.Write([]byte{1, 0, 0, 0})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("ReadFrame accepted undersized frame")
	}
	// Length prefix above the sanity cap.
	buf.Reset()
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); err == nil {
		t.Error("ReadFrame accepted oversized frame")
	}
	// Truncated payload.
	buf.Reset()
	frame := NewFrame(&Header{Kind: KindEager, Len: 10}, make([]byte, 10))
	if err := WriteFrame(&buf, frame); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-4])
	if _, err := ReadFrame(trunc); err == nil {
		t.Error("ReadFrame accepted truncated frame")
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindEager: "EAGER", KindRTS: "RTS", KindCTS: "CTS",
		KindData: "DATA", KindCancel: "CANCEL", KindGoodbye: "GOODBYE",
		KindPulled: "PULLED",
		Kind(200):  "Kind(200)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), got, want)
		}
	}
}

// TestReadHeaderThenBody: the header-first pair reads exactly what
// ReadFrame reads, leaves the payload on the stream in between, and wraps
// format violations in ErrFrame.
func TestReadHeaderThenBody(t *testing.T) {
	var buf bytes.Buffer
	want := NewFrame(&Header{Kind: KindEager, Tag: 7, Len: 5}, []byte("hello"))
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	scratch := make([]byte, PrefixLen+HeaderLen)
	n, err := ReadHeader(&buf, scratch)
	if err != nil || n != len(want) {
		t.Fatalf("ReadHeader = %d, %v; want %d", n, err, len(want))
	}
	var h Header
	if err := h.Decode(scratch[PrefixLen:]); err != nil || h.Tag != 7 || h.Len != 5 {
		t.Fatalf("header-first decode: %+v, %v", h, err)
	}
	if buf.Len() != 5 {
		t.Fatalf("ReadHeader consumed the payload: %d bytes left, want 5", buf.Len())
	}
	got, err := ReadBody(&buf, scratch[PrefixLen:], n)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadBody: %v, frames equal %v", err, bytes.Equal(got, want))
	}
	for _, pfx := range [][]byte{{1, 0, 0, 0}, {0xff, 0xff, 0xff, 0xff}} {
		in := append(append([]byte{}, pfx...), make([]byte, HeaderLen)...)
		if _, err := ReadHeader(bytes.NewReader(in), scratch); !errors.Is(err, ErrFrame) {
			t.Errorf("prefix % x: got %v, want ErrFrame", pfx, err)
		}
	}
}

// TestReadBodyDoesNotTrustThePrefix: a frame longer than one top-class
// payload is read correctly, and a prefix demanding a gigabyte from a
// stream that holds a few bytes costs one trusted buffer, not a gigabyte.
func TestReadBodyDoesNotTrustThePrefix(t *testing.T) {
	big := make([]byte, 3*maxTrusted+17)
	for i := range big {
		big[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	want := NewFrame(&Header{Kind: KindEager, Len: int32(len(big))}, big)
	if err := WriteFrame(&buf, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("frame beyond the trust bound: %v, equal %v", err, bytes.Equal(got, want))
	}

	liar := make([]byte, PrefixLen+HeaderLen+10)
	binary.LittleEndian.PutUint32(liar, maxFrameLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = ReadFrame(bytes.NewReader(liar))
	runtime.ReadMemStats(&after)
	if err != io.ErrUnexpectedEOF {
		t.Errorf("truncated gigabyte frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*maxTrusted {
		t.Errorf("a %d-byte stream made ReadFrame allocate %d bytes", len(liar), grew)
	}
}

package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"math"
	"sync"
	"unsafe"
)

// Datatype describes how elements of a user buffer are converted to and
// from the byte vectors the device level moves (the paper keeps "all
// handling of user-buffer datatypes outside the device level").
//
// A buffer is a Go slice of the datatype's base element type (e.g. []int32
// for Int). Derived datatypes (Contiguous, Vector, Indexed) describe
// patterns over the same base slice; one derived element spans Extent base
// slots of which only the pattern's slots are transmitted.
type Datatype interface {
	// Name returns the MPJ name of the type (e.g. "MPJ.INT").
	Name() string
	// ByteSize returns the packed size in bytes of one element, or -1
	// if elements have variable size (Object).
	ByteSize() int
	// Extent returns how many base-buffer slots one element spans.
	// Base types have extent 1.
	Extent() int
	// Base returns the underlying base datatype (itself for base types).
	Base() Datatype
	// Pack appends count elements of buf starting at slot off to dst
	// and returns the extended slice.
	Pack(dst []byte, buf any, off, count int) ([]byte, error)
	// Unpack decodes up to count elements from data into buf starting
	// at slot off. It returns the number of elements decoded.
	Unpack(data []byte, buf any, off, count int) (int, error)
	// Alloc allocates a buffer holding n elements of this type
	// (n*Extent base slots), for internal scratch use.
	Alloc(n int) any
}

// packerInto is implemented by datatypes that can serialize into an
// exactly-sized caller-provided destination — a pooled wire frame — instead
// of appending. Variable-size datatypes (Object) deliberately do not
// implement it and stay on the append path; callers must fall back to Pack
// when the assertion fails or ByteSize is negative.
type packerInto interface {
	// PackInto fills dst, whose length must be exactly count*ByteSize(),
	// with count elements of buf starting at slot off.
	PackInto(dst []byte, buf any, off, count int) error
}

// rawWindower is implemented by datatypes whose wire encoding equals their
// in-memory layout, so a receive can land directly in the user buffer.
type rawWindower interface {
	// window returns the byte window aliasing buf[off:off+count], or
	// ok=false when the layout, the buffer type or the bounds rule it out.
	window(buf any, off, count int) (win []byte, ok bool)
}

// hostIsLE reports whether this process stores multi-byte values
// little-endian — the wire byte order. On such hosts (amd64, arm64, ...)
// fixed-width elements have identical in-memory and wire representations
// and Pack/Unpack degrade to single memmoves: the bulk path, the pure-Go
// answer to the paper's remark that array marshalling is the pain point of
// a pure-language MPI.
var hostIsLE = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// baseType implements Datatype for a fixed-width primitive element T.
type baseType[T any] struct {
	name string
	size int
	enc  func(dst []byte, v T)
	dec  func(src []byte) T

	// raw caches whether the wire encoding of T equals its in-memory
	// layout (see isRaw); rawOnce guards the one-time verification.
	rawOnce sync.Once
	raw     bool
}

func (b *baseType[T]) Name() string   { return b.name }
func (b *baseType[T]) ByteSize() int  { return b.size }
func (b *baseType[T]) Extent() int    { return 1 }
func (b *baseType[T]) Base() Datatype { return b }

func (b *baseType[T]) slice(buf any) ([]T, error) {
	s, ok := buf.([]T)
	if !ok {
		return nil, fmt.Errorf("%w: %s expects %T, got %T", ErrBuffer, b.name, []T(nil), buf)
	}
	return s, nil
}

// isRaw reports whether []T can be moved to and from the wire as raw
// memory. The answer is computed once by verification, not assumption: the
// host must be little-endian, T must have no padding (Sizeof == wire size),
// and enc/dec must reproduce the in-memory bytes of sample values exactly.
// Types that fail any test (DoubleInt's padded struct, any type on a
// big-endian host) simply keep the per-element encode/decode loop.
func (b *baseType[T]) isRaw() bool {
	b.rawOnce.Do(func() {
		var z T
		if !hostIsLE || int(unsafe.Sizeof(z)) != b.size {
			return
		}
		asc := make([]byte, b.size)
		for i := range asc {
			asc[i] = byte(i + 1)
		}
		enc := make([]byte, b.size)
		for _, pat := range [][]byte{make([]byte, b.size), asc} {
			v := b.dec(pat)
			b.enc(enc, v)
			mem := unsafe.Slice((*byte)(unsafe.Pointer(&v)), b.size)
			if !bytes.Equal(mem, enc) {
				return
			}
		}
		b.raw = true
	})
	return b.raw
}

// bytesOf returns the raw memory window of s[off:off+count]. Callers must
// have bounds-checked off/count and established isRaw; count must be > 0.
func (b *baseType[T]) bytesOf(s []T, off, count int) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[off])), count*b.size)
}

// viewRaw reinterprets a packed byte vector as []T — the inverse of
// bytesOf, behind the bulk reduction combiners. Callers must have
// established isRaw for T; size is T's wire (= memory) size. The view is
// refused (ok=false) when the vector is not aligned for T: packed data can
// sit at the payload offset of a pooled frame (HeaderLen is odd), where a
// multi-byte load through the view would fault on strict-alignment
// hardware, so misaligned inputs must take the per-element path.
func viewRaw[T any](b []byte, size int) ([]T, bool) {
	n := len(b) / size
	if n == 0 {
		return nil, true
	}
	var z T
	p := unsafe.Pointer(&b[0])
	if uintptr(p)%unsafe.Alignof(z) != 0 {
		return nil, false
	}
	return unsafe.Slice((*T)(p), n), true
}

func (b *baseType[T]) Pack(dst []byte, buf any, off, count int) ([]byte, error) {
	s, err := b.slice(buf)
	if err != nil {
		return nil, err
	}
	if off < 0 || count < 0 || off+count > len(s) {
		return nil, fmt.Errorf("%w: [%d:%d] of %d-element %s buffer", ErrCount, off, off+count, len(s), b.name)
	}
	if count == 0 {
		return dst, nil
	}
	// Bulk path: one memmove when the in-memory layout is the wire
	// layout. []byte keeps its identity copy even on big-endian hosts.
	if b.isRaw() {
		return append(dst, b.bytesOf(s, off, count)...), nil
	}
	if bs, ok := any(s).([]byte); ok {
		return append(dst, bs[off:off+count]...), nil
	}
	base := len(dst)
	dst = append(dst, make([]byte, count*b.size)...)
	for i := 0; i < count; i++ {
		b.enc(dst[base+i*b.size:], s[off+i])
	}
	return dst, nil
}

// packIntoSlice fills dst — whose length must be exactly count*size — with
// count elements of s starting at off. It is the concrete, boxing-free
// packer behind PackInto and the typed facade.
func (b *baseType[T]) packIntoSlice(dst []byte, s []T, off, count int) error {
	if off < 0 || count < 0 || off+count > len(s) {
		return fmt.Errorf("%w: [%d:%d] of %d-element %s buffer", ErrCount, off, off+count, len(s), b.name)
	}
	if len(dst) != count*b.size {
		return fmt.Errorf("%w: PackInto destination holds %d bytes for %d elements of %s",
			ErrCount, len(dst), count, b.name)
	}
	if count == 0 {
		return nil
	}
	if b.isRaw() {
		copy(dst, b.bytesOf(s, off, count))
		return nil
	}
	for i := 0; i < count; i++ {
		b.enc(dst[i*b.size:], s[off+i])
	}
	return nil
}

// PackInto implements packerInto.
func (b *baseType[T]) PackInto(dst []byte, buf any, off, count int) error {
	s, err := b.slice(buf)
	if err != nil {
		return err
	}
	return b.packIntoSlice(dst, s, off, count)
}

// unpackSlice decodes up to count elements from data into s at off,
// returning the number decoded — the concrete form behind Unpack.
func (b *baseType[T]) unpackSlice(data []byte, s []T, off, count int) (int, error) {
	if count < 0 {
		return 0, fmt.Errorf("%w: negative count %d", ErrCount, count)
	}
	n := len(data) / b.size
	if n > count {
		n = count
	}
	if off < 0 || off+n > len(s) {
		return 0, fmt.Errorf("%w: unpack [%d:%d] of %d-element %s buffer", ErrCount, off, off+n, len(s), b.name)
	}
	if n == 0 {
		return 0, nil
	}
	if b.isRaw() {
		copy(b.bytesOf(s, off, n), data[:n*b.size])
		return n, nil
	}
	if bs, ok := any(s).([]byte); ok {
		copy(bs[off:off+n], data[:n])
		return n, nil
	}
	for i := 0; i < n; i++ {
		s[off+i] = b.dec(data[i*b.size:])
	}
	return n, nil
}

func (b *baseType[T]) Unpack(data []byte, buf any, off, count int) (int, error) {
	s, err := b.slice(buf)
	if err != nil {
		return 0, err
	}
	return b.unpackSlice(data, s, off, count)
}

// window implements rawWindower: the byte window of buf[off:off+count]
// when a receive may land there directly.
func (b *baseType[T]) window(buf any, off, count int) ([]byte, bool) {
	s, ok := buf.([]T)
	if !ok || count <= 0 || off < 0 || off+count > len(s) || !b.isRaw() {
		return nil, false
	}
	return b.bytesOf(s, off, count), true
}

func (b *baseType[T]) Alloc(n int) any { return make([]T, n) }

// packExact packs count elements of dt into an exactly-sized fresh buffer,
// avoiding the append path's growth copies. Variable-size datatypes — and
// any third-party Datatype that does not implement packerInto — fall back
// to the append path cleanly.
func packExact(dt Datatype, buf any, off, count int) ([]byte, error) {
	if pi, ok := dt.(packerInto); ok && count >= 0 {
		if sz := dt.ByteSize(); sz >= 0 {
			out := make([]byte, count*sz)
			if err := pi.PackInto(out, buf, off, count); err != nil {
				return nil, err
			}
			return out, nil
		}
	}
	return dt.Pack(nil, buf, off, count)
}

// The MPJ base datatypes. Names follow the MPJ draft API (MPJ.INT etc.);
// Go slice element types are noted per constant.
var (
	// Byte moves []byte. It has an identity encoding and is the type
	// the device level itself works in.
	Byte Datatype = &baseType[byte]{
		name: "MPJ.BYTE", size: 1,
		enc: func(d []byte, v byte) { d[0] = v },
		dec: func(s []byte) byte { return s[0] },
	}
	// Boolean moves []bool.
	Boolean Datatype = &baseType[bool]{
		name: "MPJ.BOOLEAN", size: 1,
		enc: func(d []byte, v bool) {
			if v {
				d[0] = 1
			} else {
				d[0] = 0
			}
		},
		dec: func(s []byte) bool { return s[0] != 0 },
	}
	// Char moves []rune (Java char is 16-bit; Go runes are code points,
	// encoded in 4 bytes to stay lossless).
	Char Datatype = &baseType[rune]{
		name: "MPJ.CHAR", size: 4,
		enc: func(d []byte, v rune) { binary.LittleEndian.PutUint32(d, uint32(v)) },
		dec: func(s []byte) rune { return rune(binary.LittleEndian.Uint32(s)) },
	}
	// Short moves []int16.
	Short Datatype = &baseType[int16]{
		name: "MPJ.SHORT", size: 2,
		enc: func(d []byte, v int16) { binary.LittleEndian.PutUint16(d, uint16(v)) },
		dec: func(s []byte) int16 { return int16(binary.LittleEndian.Uint16(s)) },
	}
	// Int moves []int32.
	Int Datatype = &baseType[int32]{
		name: "MPJ.INT", size: 4,
		enc: func(d []byte, v int32) { binary.LittleEndian.PutUint32(d, uint32(v)) },
		dec: func(s []byte) int32 { return int32(binary.LittleEndian.Uint32(s)) },
	}
	// Long moves []int64.
	Long Datatype = &baseType[int64]{
		name: "MPJ.LONG", size: 8,
		enc: func(d []byte, v int64) { binary.LittleEndian.PutUint64(d, uint64(v)) },
		dec: func(s []byte) int64 { return int64(binary.LittleEndian.Uint64(s)) },
	}
	// GoInt moves []int, a convenience beyond the Java API surface.
	GoInt Datatype = &baseType[int]{
		name: "MPJ.GOINT", size: 8,
		enc: func(d []byte, v int) { binary.LittleEndian.PutUint64(d, uint64(v)) },
		dec: func(s []byte) int { return int(binary.LittleEndian.Uint64(s)) },
	}
	// Float moves []float32.
	Float Datatype = &baseType[float32]{
		name: "MPJ.FLOAT", size: 4,
		enc: func(d []byte, v float32) { binary.LittleEndian.PutUint32(d, math.Float32bits(v)) },
		dec: func(s []byte) float32 { return math.Float32frombits(binary.LittleEndian.Uint32(s)) },
	}
	// Double moves []float64.
	Double Datatype = &baseType[float64]{
		name: "MPJ.DOUBLE", size: 8,
		enc: func(d []byte, v float64) { binary.LittleEndian.PutUint64(d, math.Float64bits(v)) },
		dec: func(s []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(s)) },
	}
)

// DoubleInt is the element of the DoubleInt2 pair type used by MaxLoc and
// MinLoc reductions: a value with the rank (or index) it came from.
type DoubleInt struct {
	Value float64
	Index int32
}

// IntInt is the element of the IntInt2 pair type for MaxLoc/MinLoc on
// integer data.
type IntInt struct {
	Value int32
	Index int32
}

// FloatInt is the element of the FloatInt2 pair type for MaxLoc/MinLoc on
// float32 data.
type FloatInt struct {
	Value float32
	Index int32
}

// Pair datatypes for MaxLoc/MinLoc reductions (MPI's DOUBLE_INT family).
var (
	// DoubleInt2 moves []DoubleInt.
	DoubleInt2 Datatype = &baseType[DoubleInt]{
		name: "MPJ.DOUBLE_INT", size: 12,
		enc: func(d []byte, v DoubleInt) {
			binary.LittleEndian.PutUint64(d, math.Float64bits(v.Value))
			binary.LittleEndian.PutUint32(d[8:], uint32(v.Index))
		},
		dec: func(s []byte) DoubleInt {
			return DoubleInt{
				Value: math.Float64frombits(binary.LittleEndian.Uint64(s)),
				Index: int32(binary.LittleEndian.Uint32(s[8:])),
			}
		},
	}
	// IntInt2 moves []IntInt.
	IntInt2 Datatype = &baseType[IntInt]{
		name: "MPJ.INT_INT", size: 8,
		enc: func(d []byte, v IntInt) {
			binary.LittleEndian.PutUint32(d, uint32(v.Value))
			binary.LittleEndian.PutUint32(d[4:], uint32(v.Index))
		},
		dec: func(s []byte) IntInt {
			return IntInt{
				Value: int32(binary.LittleEndian.Uint32(s)),
				Index: int32(binary.LittleEndian.Uint32(s[4:])),
			}
		},
	}
	// FloatInt2 moves []FloatInt.
	FloatInt2 Datatype = &baseType[FloatInt]{
		name: "MPJ.FLOAT_INT", size: 8,
		enc: func(d []byte, v FloatInt) {
			binary.LittleEndian.PutUint32(d, math.Float32bits(v.Value))
			binary.LittleEndian.PutUint32(d[4:], uint32(v.Index))
		},
		dec: func(s []byte) FloatInt {
			return FloatInt{
				Value: math.Float32frombits(binary.LittleEndian.Uint32(s)),
				Index: int32(binary.LittleEndian.Uint32(s[4:])),
			}
		},
	}
)

// objectType implements the MPJ.OBJECT datatype over []any buffers via gob
// serialization — the Go analogue of the paper's "direct communication of
// objects via object serialization" ("the new version 1.2 of the software
// supports direct communication of objects via object serialization").
// encoding/gob is self-describing and handles arbitrary object graphs, and
// — like Java serialization — costs noticeably more than moving primitive
// arrays, which experiment E7 quantifies.
type objectType struct{}

// Object moves []any; element values must be gob-registered (RegisterType).
var Object Datatype = objectType{}

func (objectType) Name() string     { return "MPJ.OBJECT" }
func (objectType) ByteSize() int    { return -1 }
func (objectType) Extent() int      { return 1 }
func (o objectType) Base() Datatype { return o }

func (objectType) Pack(dst []byte, buf any, off, count int) ([]byte, error) {
	s, ok := buf.([]any)
	if !ok {
		return nil, fmt.Errorf("%w: MPJ.OBJECT expects []any, got %T", ErrBuffer, buf)
	}
	if off < 0 || count < 0 || off+count > len(s) {
		return nil, fmt.Errorf("%w: [%d:%d] of %d-element object buffer", ErrCount, off, off+count, len(s))
	}
	out := bytes.NewBuffer(dst)
	if err := gob.NewEncoder(out).Encode(s[off : off+count]); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrType, err)
	}
	return out.Bytes(), nil
}

func (objectType) Unpack(data []byte, buf any, off, count int) (int, error) {
	s, ok := buf.([]any)
	if !ok {
		return 0, fmt.Errorf("%w: MPJ.OBJECT expects []any, got %T", ErrBuffer, buf)
	}
	var elems []any
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&elems); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrType, err)
	}
	n := len(elems)
	if n > count {
		n = count
	}
	if off < 0 || off+n > len(s) {
		return 0, fmt.Errorf("%w: unpack [%d:%d] of %d-element object buffer", ErrCount, off, off+n, len(s))
	}
	copy(s[off:off+n], elems[:n])
	return n, nil
}

func (objectType) Alloc(n int) any { return make([]any, n) }

// RegisterType records a concrete Go type for transmission inside OBJECT
// buffers, the analogue of marking a Java class Serializable: gob needs the
// concrete type known on both sides.
func RegisterType(v any) { gob.Register(v) }

package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// applyOp is a test helper running an op over packed representations.
func applyOp(t *testing.T, op *Op, dt Datatype, in, inout any, n int) any {
	t.Helper()
	comb, err := op.combinerFor(dt)
	if err != nil {
		t.Fatalf("%s on %s: %v", op.Name(), dt.Name(), err)
	}
	inB, err := dt.Pack(nil, in, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	inoutB, err := dt.Pack(nil, inout, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if err := comb(inB, inoutB); err != nil {
		t.Fatal(err)
	}
	out := dt.Alloc(n)
	if _, err := dt.Unpack(inoutB, out, 0, n); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNumericOps(t *testing.T) {
	in := []int32{5, -3, 7}
	inout := []int32{2, 4, 7}
	if got := applyOp(t, SumOp, Int, in, inout, 3); !reflect.DeepEqual(got, []int32{7, 1, 14}) {
		t.Errorf("sum = %v", got)
	}
	if got := applyOp(t, MaxOp, Int, in, inout, 3); !reflect.DeepEqual(got, []int32{5, 4, 7}) {
		t.Errorf("max = %v", got)
	}
	if got := applyOp(t, MinOp, Int, in, inout, 3); !reflect.DeepEqual(got, []int32{2, -3, 7}) {
		t.Errorf("min = %v", got)
	}
	if got := applyOp(t, ProdOp, Int, in, inout, 3); !reflect.DeepEqual(got, []int32{10, -12, 49}) {
		t.Errorf("prod = %v", got)
	}
}

func TestFloatOps(t *testing.T) {
	in := []float64{1.5, -2}
	inout := []float64{0.5, 3}
	if got := applyOp(t, SumOp, Double, in, inout, 2); !reflect.DeepEqual(got, []float64{2, 1}) {
		t.Errorf("sum = %v", got)
	}
	if got := applyOp(t, MaxOp, Double, in, inout, 2); !reflect.DeepEqual(got, []float64{1.5, 3}) {
		t.Errorf("max = %v", got)
	}
}

func TestLogicalOps(t *testing.T) {
	in := []bool{true, true, false, false}
	inout := []bool{true, false, true, false}
	if got := applyOp(t, LAndOp, Boolean, in, inout, 4); !reflect.DeepEqual(got, []bool{true, false, false, false}) {
		t.Errorf("land = %v", got)
	}
	if got := applyOp(t, LOrOp, Boolean, in, inout, 4); !reflect.DeepEqual(got, []bool{true, true, true, false}) {
		t.Errorf("lor = %v", got)
	}
	if got := applyOp(t, LXorOp, Boolean, in, inout, 4); !reflect.DeepEqual(got, []bool{false, true, true, false}) {
		t.Errorf("lxor = %v", got)
	}
}

func TestBitwiseOps(t *testing.T) {
	in := []int64{0b1100}
	inout := []int64{0b1010}
	if got := applyOp(t, BAndOp, Long, in, inout, 1); got.([]int64)[0] != 0b1000 {
		t.Errorf("band = %b", got.([]int64)[0])
	}
	if got := applyOp(t, BOrOp, Long, in, inout, 1); got.([]int64)[0] != 0b1110 {
		t.Errorf("bor = %b", got.([]int64)[0])
	}
	if got := applyOp(t, BXorOp, Long, in, inout, 1); got.([]int64)[0] != 0b0110 {
		t.Errorf("bxor = %b", got.([]int64)[0])
	}
}

func TestMaxLocMinLoc(t *testing.T) {
	in := []DoubleInt{{Value: 3, Index: 0}, {Value: 1, Index: 0}, {Value: 5, Index: 2}}
	inout := []DoubleInt{{Value: 3, Index: 1}, {Value: 2, Index: 1}, {Value: 4, Index: 1}}
	got := applyOp(t, MaxLocOp, DoubleInt2, in, inout, 3).([]DoubleInt)
	want := []DoubleInt{{3, 0}, {2, 1}, {5, 2}} // tie at 3 → lower index
	if !reflect.DeepEqual(got, want) {
		t.Errorf("maxloc = %v, want %v", got, want)
	}
	got = applyOp(t, MinLocOp, DoubleInt2, in, inout, 3).([]DoubleInt)
	want = []DoubleInt{{3, 0}, {1, 0}, {4, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("minloc = %v, want %v", got, want)
	}
}

func TestOpTypeRestrictions(t *testing.T) {
	cases := []struct {
		op *Op
		dt Datatype
	}{
		{SumOp, Boolean},    // no arithmetic on booleans
		{LAndOp, Int},       // no logical ops on ints
		{BAndOp, Double},    // no bitwise ops on floats
		{MaxLocOp, Double},  // loc ops need pair types
		{SumOp, DoubleInt2}, // no arithmetic on pairs
		{SumOp, Object},     // no predefined ops on objects
	}
	for _, tc := range cases {
		if _, err := tc.op.combinerFor(tc.dt); !errors.Is(err, ErrOp) {
			t.Errorf("%s on %s: err=%v, want ErrOp", tc.op.Name(), tc.dt.Name(), err)
		}
	}
}

func TestOpOnDerivedUsesBase(t *testing.T) {
	// Reductions over derived types operate element-wise on the base.
	dt, err := Contiguous(2, Int)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SumOp.combinerFor(dt); err != nil {
		t.Errorf("SumOp on Contiguous(Int): %v", err)
	}
}

func TestUserDefinedOp(t *testing.T) {
	// Sum-of-squares accumulate: inout[i] += in[i]*in[i].
	op := NewOp("sumsq", func(in, inout any, dt Datatype) error {
		a := in.([]float64)
		b := inout.([]float64)
		for i := range b {
			b[i] += a[i] * a[i]
		}
		return nil
	})
	got := applyOp(t, op, Double, []float64{2, 3}, []float64{1, 1}, 2).([]float64)
	if !reflect.DeepEqual(got, []float64{5, 10}) {
		t.Errorf("user op = %v", got)
	}
}

func TestUserOpRejectsObject(t *testing.T) {
	op := NewOp("noop", func(in, inout any, dt Datatype) error { return nil })
	comb, err := op.combinerFor(Object)
	if err != nil {
		t.Fatalf("combinerFor: %v", err)
	}
	if err := comb([]byte{1}, []byte{1}); !errors.Is(err, ErrOp) {
		t.Errorf("user op on Object: err=%v, want ErrOp", err)
	}
}

func TestCombinerLengthMismatch(t *testing.T) {
	comb, err := SumOp.combinerFor(Int)
	if err != nil {
		t.Fatal(err)
	}
	if err := comb(make([]byte, 4), make([]byte, 8)); !errors.Is(err, ErrOp) {
		t.Errorf("length mismatch: err=%v, want ErrOp", err)
	}
}

// BenchmarkCombine prices the reduction kernels on the vector a 1 MiB ring
// allreduce folds per step at np=4 (256 KiB): the aligned raw-view path the
// schedules take, and the per-element decoding fallback an odd offset
// forces.
func BenchmarkCombine(b *testing.B) {
	const n = 256 << 10
	for _, tc := range []struct {
		name string
		op   *Op
		dt   Datatype
		off  int
	}{
		{"sum/double", SumOp, Double, 0},
		{"max/double", MaxOp, Double, 0},
		{"sum/int", SumOp, Int, 0},
		{"prod/float", ProdOp, Float, 0},
		{"band/long", BAndOp, Long, 0},
		{"sum/double/unaligned", SumOp, Double, 1},
	} {
		b.Run(tc.name, func(b *testing.B) {
			comb, err := tc.op.combinerFor(tc.dt)
			if err != nil {
				b.Fatal(err)
			}
			in, inout := make([]byte, n+8)[tc.off:tc.off+n], make([]byte, n+8)[tc.off:tc.off+n]
			b.SetBytes(n)
			for b.Loop() {
				if err := comb(in, inout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestVecKernelsMatchElementPath: the typed loops of Sum/Prod/Max/Min give,
// byte for byte, what the per-element decoding path gives — which an odd
// offset forces, and which calls the op's element function — on every
// numeric type, with wrap-around, infinities and NaNs among the inputs.
func TestVecKernelsMatchElementPath(t *testing.T) {
	const elems = 1031
	rng := rand.New(rand.NewSource(7))
	nan := math.Float64bits(math.NaN())
	for _, op := range []*Op{SumOp, ProdOp, MaxOp, MinOp} {
		for _, dt := range []Datatype{Byte, Short, Int, Long, GoInt, Float, Double} {
			comb, err := op.combinerFor(dt)
			if err != nil {
				t.Fatal(err)
			}
			n := elems * dt.ByteSize()
			in, inout := make([]byte, n), make([]byte, n)
			rng.Read(in)
			rng.Read(inout)
			switch dt {
			case Double: // one NaN bit pattern: which operand's payload survives is the FPU's business
				for i := 0; i < elems; i += 97 {
					binary.LittleEndian.PutUint64(in[8*i:], nan)
					binary.LittleEndian.PutUint64(inout[8*(i+1):], nan)
					binary.LittleEndian.PutUint64(in[8*(i+2):], math.Float64bits(math.Inf(-1)))
				}
			case Float:
				for i := range in { // random float32 bit patterns hold NaNs of every payload: clear them
					if i%4 == 3 && in[i]&0x7f == 0x7f {
						in[i] &^= 0x40
					}
					if i%4 == 3 && inout[i]&0x7f == 0x7f {
						inout[i] &^= 0x40
					}
				}
			}
			bulk := append([]byte(nil), inout...)
			if err := comb(in, bulk); err != nil {
				t.Fatal(err)
			}
			// The same vectors one byte off element alignment.
			oddIn, oddOut := append([]byte{0}, in...)[1:], append([]byte{0}, inout...)[1:]
			if dt.ByteSize() > 1 {
				if _, aligned := viewRaw[int64](oddOut[:8], 8); aligned {
					t.Fatal("the odd copy is aligned: the test compares the bulk path with itself")
				}
			}
			if err := comb(oddIn, oddOut); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(bulk, oddOut) {
				t.Errorf("%s on %s: typed loop and element path disagree", op.Name(), dt.Name())
			}
		}
	}
}

// TestFuse4MatchesPairwise: the host area's fused leaf — step 1 of the
// halving tree through the 4-input fuser — writes, byte for byte, what the
// pairwise fuse, fuse and comb write, for every op and type with a 4-input
// loop, at lengths 0–9 and 1001, with ±0 among the float inputs and NaNs
// (two payloads) and infinities among MAX's and MIN's. One misaligned
// input makes the 4-input fuser decline, writing nothing, and the tree then
// folds pairwise to the same bits.
func TestFuse4MatchesPairwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	specials := []float64{math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1),
		math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000000002)}
	a := newHostArea(nil, 4, 0) // halving touches only the partials, no mapping
	for _, op := range []*Op{SumOp, ProdOp, MaxOp, MinOp} {
		edge := specials[:2] // ±0: NaN payloads through + and * are the FPU's business
		if op == MaxOp || op == MinOp {
			edge = specials
		}
		for _, dt := range []Datatype{Byte, Short, Int, Long, GoInt, Float, Double} {
			k, sz := op.byType[dt], dt.ByteSize()
			pairwise := k
			pairwise.fuse4 = nil
			for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1001} {
				parts := make([][]byte, 4)
				for r := range parts {
					parts[r] = make([]byte, n*sz)
					for i := 0; i < len(parts[r]); i += sz {
						v := rng.Float64()*2000 - 1000
						if rng.Intn(4) == 0 {
							v = edge[rng.Intn(len(edge))]
						}
						switch dt {
						case Float:
							binary.LittleEndian.PutUint32(parts[r][i:], math.Float32bits(float32(v)))
						case Double:
							binary.LittleEndian.PutUint64(parts[r][i:], math.Float64bits(v))
						default:
							rng.Read(parts[r][i : i+sz])
						}
					}
				}
				in := func(r int) []byte { return parts[r] }
				r := n % 4 // the member whose partial the tree builds
				fused, want := make([]byte, n*sz), make([]byte, n*sz)
				if !k.fuse4(in(r), in(r^1), in(r^2), in(r^3), fused) {
					t.Fatalf("%s on %s, %d elements: the 4-input fuser declined aligned views", op.Name(), dt.Name(), n)
				}
				if err := a.halving(1, r, want, in, pairwise); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(fused, want) {
					t.Errorf("%s on %s, %d elements: the 4-input loop and the pairwise folds disagree", op.Name(), dt.Name(), n)
				}
				if n < 1001 || sz == 1 {
					continue
				}
				odd := append([]byte{0}, parts[0]...)[1:]
				oddIn := func(r int) []byte {
					if r == 0 {
						return odd
					}
					return parts[r]
				}
				out := bytes.Repeat([]byte{0xa5}, n*sz)
				if k.fuse4(odd, parts[1], parts[2], parts[3], out) || !bytes.Equal(out, bytes.Repeat([]byte{0xa5}, n*sz)) {
					t.Errorf("%s on %s: the 4-input fuser took or wrote a misaligned view", op.Name(), dt.Name())
				}
				if err := a.halving(1, r, out, oddIn, k); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out, want) {
					t.Errorf("%s on %s: a misaligned view's pairwise fallback disagrees", op.Name(), dt.Name())
				}
			}
		}
	}
}

// TestMaxMinKernelsLikeScalar: the MAX and MIN kernels return the bits
// maxOf and minOf return on the pairs a branch-free kernel gets wrong most
// easily — a NaN on either side (each with its own payload), +0
// against -0 both ways, infinities, the extremes of the integers — also
// folding in place (out = b).
func TestMaxMinKernelsLikeScalar(t *testing.T) {
	nanA, nanB := math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0xfff4000000000002)
	negZero := math.Copysign(0, -1)
	a := []float64{nanA, 1, nanA, 0, negZero, math.Inf(1), math.Inf(-1), -1, 2, 5}
	b := []float64{1, nanB, nanB, negZero, 0, math.Inf(-1), math.Inf(1), 1, 2, nanA}
	checkMaxMin(t, "float64", a, b, maxVecF[float64], minVecF[float64], math.Float64bits)
	a32, b32 := make([]float32, len(a)), make([]float32, len(b))
	for i := range a {
		a32[i], b32[i] = float32(a[i]), float32(b[i])
	}
	checkMaxMin(t, "float32", a32, b32, maxVecF[float32], minVecF[float32], math.Float32bits)
	checkMaxMin(t, "byte", []byte{0, 255, 7, 128}, []byte{255, 0, 7, 127}, maxVec[byte], minVec[byte], func(v byte) byte { return v })
	checkMaxMin(t, "int64", []int64{math.MinInt64, math.MaxInt64, -1, 0, 3}, []int64{math.MaxInt64, math.MinInt64, 0, -1, 3},
		maxVec[int64], minVec[int64], func(v int64) int64 { return v })
}

func checkMaxMin[T number, B comparable](t *testing.T, name string, a, b []T, maxK, minK func(a, b, out []T), bits func(T) B) {
	t.Helper()
	for _, k := range []struct {
		op   string
		vec  func(a, b, out []T)
		elem func(a, b T) T
	}{{"max", maxK, maxOf[T]}, {"min", minK, minOf[T]}} {
		out := make([]T, len(a))
		k.vec(a, b, out)
		inPlace := append([]T(nil), b...)
		k.vec(a, inPlace, inPlace)
		for i := range a {
			want := bits(k.elem(a[i], b[i]))
			if got := bits(out[i]); got != want {
				t.Errorf("%s %s(%v, %v): bits %v, want %v", name, k.op, a[i], b[i], got, want)
			}
			if got := bits(inPlace[i]); got != want {
				t.Errorf("%s %s(%v, %v) in place: bits %v, want %v", name, k.op, a[i], b[i], got, want)
			}
		}
	}
}

// BenchmarkVecCombiner times the predefined folds over a 512 KiB vector,
// the bulk path of the large allreduce's schedule and of the host area.
// The rand rows fold two vectors of random bits into a third (the fuser),
// so the operands stay random from one iteration to the next: there a
// data-dependent branch per element would mispredict half the time. The
// other rows fold zeros in place.
func BenchmarkVecCombiner(b *testing.B) {
	const size = 512 << 10
	for _, row := range []struct {
		name string
		op   *Op
		dt   Datatype
		rand bool
	}{
		{"sum/float64", SumOp, Double, false}, {"sum/int64", SumOp, Long, false}, {"sum/int32", SumOp, Int, false},
		{"max/float64", MaxOp, Double, false}, {"min/int64", MinOp, Long, false}, {"prod/float64", ProdOp, Double, false},
		{"max/float64/rand", MaxOp, Double, true}, {"min/float64/rand", MinOp, Double, true},
		{"max/int64/rand", MaxOp, Long, true}, {"min/int64/rand", MinOp, Long, true},
		{"max/float32/rand", MaxOp, Float, true}, {"max/byte/rand", MaxOp, Byte, true},
	} {
		b.Run(row.name, func(b *testing.B) {
			comb, err := row.op.combinerFor(row.dt)
			if err != nil {
				b.Fatal(err)
			}
			in, inout := make([]byte, size), make([]byte, size)
			if row.rand {
				rng := rand.New(rand.NewSource(1))
				rng.Read(in)
				rng.Read(inout)
				out, fuse := make([]byte, size), row.op.byType[row.dt].fuse
				comb = func(a, b []byte) error { return fuse(a, b, out) }
			}
			b.SetBytes(size)
			for i := 0; i < b.N; i++ {
				if err := comb(in, inout); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

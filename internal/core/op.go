package core

import "fmt"

// combiner folds one packed vector into another: inout[i] = op(in[i],
// inout[i]) element-wise over packed representations.
type combiner func(in, inout []byte) error

// fuser writes the fold of two packed vectors into a third: out[i] =
// op(a[i], b[i]); out may be b. The host area's chains and pairwise tree
// levels combine two members' parts this way without copying one first.
type fuser func(a, b, out []byte) error

// fuser4 writes the fold of four packed vectors into a fifth in one pass:
// out[i] = op(op(b[i], d[i]), op(a[i], c[i])), the two lowest levels of
// the host area's reduction tree (hostArea.halving) — the operands, in the
// order, of fuse(a, c), fuse(b, d) into a partial and comb(partial, out),
// so the bits are theirs. out may be any input. It reports false, having
// written nothing, where it has no typed loop over the five views; the
// caller then folds pairwise.
type fuser4 func(a, b, c, d, out []byte) bool

// kernel is an op's code for one datatype; fuse4 is nil without a 4-input loop.
type kernel struct {
	comb  combiner
	fuse  fuser
	fuse4 fuser4
}

// Op is a reduction operation for Reduce/Allreduce/ReduceScatter/Scan,
// the analogue of MPI_Op. The predefined ops support the datatype classes
// MPI prescribes (numeric for MaxOp/MinOp/SumOp/ProdOp, boolean for the
// logical ops, integer for the bitwise ops, pair types for the -Loc ops);
// applying an op to an unsupported datatype reports ErrOp.
type Op struct {
	name    string
	byType  map[Datatype]kernel
	generic func(dt Datatype) (combiner, error) // user-defined ops
	user    bool                                // built by NewOp or OpFromFunc
}

// Name returns the operation's name.
func (o *Op) Name() string { return o.name }

// combinerFor resolves the combiner for dt.
func (o *Op) combinerFor(dt Datatype) (combiner, error) {
	base := dt.Base()
	if k, ok := o.byType[base]; ok {
		return k.comb, nil
	}
	if o.generic != nil {
		return o.generic(base)
	}
	return nil, fmt.Errorf("%w: %s does not support %s", ErrOp, o.name, dt.Name())
}

// numCombiner builds the kernel of a primitive base type from its element
// function alone; see vecCombiner.
func numCombiner[T any](dt Datatype, f func(a, b T) T) kernel {
	return vecCombiner(dt, f, nil, nil)
}

// vecCombiner builds the kernel of a primitive base type. When T's wire
// encoding is its memory layout and the vectors are element-aligned, the
// fold runs over []T views (the bulk path the ring reduction and the host
// area lean on — their inputs are pooled scratch buffers, raw user windows
// and the area's slots, all aligned): through vec, a loop the compiler
// instantiates for T with the operation in its body, when the op has one —
// a call through f per element costs more than the arithmetic — else
// through f. Otherwise — on big-endian hosts, for padded pair structs, or
// for vectors at the odd payload offset of an adopted frame — it decodes
// and re-encodes per element. vec must compute out[i] = f(a[i], b[i]), out
// being b or disjoint from both; the combiner is the fuser with out = b.
// vec4, if any, is the fuser4's loop over the same views (no element path).
func vecCombiner[T any](dt Datatype, f func(a, b T) T, vec func(a, b, out []T), vec4 func(a, b, c, d, out []T)) kernel {
	t := dt.(*baseType[T])
	fuse := func(a, b, out []byte) error {
		if len(a) != len(out) || len(b) != len(out) {
			return fmt.Errorf("%w: reduce length mismatch %d, %d != %d", ErrOp, len(a), len(b), len(out))
		}
		if t.isRaw() {
			av, aok := viewRaw[T](a, t.size)
			bv, bok := viewRaw[T](b, t.size)
			ov, ook := viewRaw[T](out, t.size)
			if aok && bok && ook {
				if vec != nil {
					vec(av, bv, ov)
					return nil
				}
				for i, v := range av {
					ov[i] = f(v, bv[i])
				}
				return nil
			}
		}
		for i := 0; i+t.size <= len(out); i += t.size {
			t.enc(out[i:], f(t.dec(a[i:]), t.dec(b[i:])))
		}
		return nil
	}
	k := kernel{comb: func(in, inout []byte) error { return fuse(in, inout, inout) }, fuse: fuse}
	if vec4 != nil {
		k.fuse4 = func(a, b, c, d, out []byte) bool {
			if !t.isRaw() || len(a) != len(out) || len(b) != len(out) || len(c) != len(out) || len(d) != len(out) {
				return false
			}
			av, aok := viewRaw[T](a, t.size)
			bv, bok := viewRaw[T](b, t.size)
			cv, cok := viewRaw[T](c, t.size)
			dv, dok := viewRaw[T](d, t.size)
			ov, ook := viewRaw[T](out, t.size)
			if !aok || !bok || !cok || !dok || !ook {
				return false
			}
			vec4(av, bv, cv, dv, ov)
			return true
		}
	}
	return k
}

// number is the element types of the arithmetic reductions.
type number interface {
	integer | float32 | float64
}

// integer is the integer types among them.
type integer interface {
	int8 | int16 | int32 | int64 | int | byte
}

func maxOf[T number](a, b T) T {
	if a > b {
		return a
	}
	return b
}

func minOf[T number](a, b T) T {
	if a < b {
		return a
	}
	return b
}

func sumOf[T number](a, b T) T  { return a + b }
func prodOf[T number](a, b T) T { return a * b }

// The typed kernels of the four arithmetic reductions, element for element
// what their *Of functions compute (a NaN in b stays, as maxOf keeps b).
// a, b and out have one length. Each loop is unrolled four ways, one bounds
// check per four elements; the folds are element-wise, so the bits are
// those of the plain loop.
//
// Integer MAX and MIN take no branch on the data, which would mispredict on
// every other element of random input: the builtin max and min compile to
// a conditional move (bytes are widened first: amd64 has no byte-sized
// one). The float builtins differ from maxOf on NaN and ±0, so floats keep
// maxOf's branch.

func maxVec[T integer](a, b, out []T) {
	b, out = b[:len(a)], out[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y, o := a[i:i+4:i+4], b[i:i+4:i+4], out[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = widenMax(x[0], y[0]), widenMax(x[1], y[1]), widenMax(x[2], y[2]), widenMax(x[3], y[3])
	}
	for ; i < len(a); i++ {
		out[i] = widenMax(a[i], b[i])
	}
}

func minVec[T integer](a, b, out []T) {
	b, out = b[:len(a)], out[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y, o := a[i:i+4:i+4], b[i:i+4:i+4], out[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = widenMin(x[0], y[0]), widenMin(x[1], y[1]), widenMin(x[2], y[2]), widenMin(x[3], y[3])
	}
	for ; i < len(a); i++ {
		out[i] = widenMin(a[i], b[i])
	}
}

func widenMax[T integer](a, b T) T { return T(max(int64(a), int64(b))) }
func widenMin[T integer](a, b T) T { return T(min(int64(a), int64(b))) }

// maxVecF and minVecF keep maxOf's branch: a mask pick of the bits was
// about 4× faster over random data but 2× slower over predictable data,
// and no measured workload tells which of the two MAX/MIN folds see.
func maxVecF[T float32 | float64](a, b, out []T) {
	b, out = b[:len(a)], out[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y, o := a[i:i+4:i+4], b[i:i+4:i+4], out[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = maxOf(x[0], y[0]), maxOf(x[1], y[1]), maxOf(x[2], y[2]), maxOf(x[3], y[3])
	}
	for ; i < len(a); i++ {
		out[i] = maxOf(a[i], b[i])
	}
}

func minVecF[T float32 | float64](a, b, out []T) {
	b, out = b[:len(a)], out[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y, o := a[i:i+4:i+4], b[i:i+4:i+4], out[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = minOf(x[0], y[0]), minOf(x[1], y[1]), minOf(x[2], y[2]), minOf(x[3], y[3])
	}
	for ; i < len(a); i++ {
		out[i] = minOf(a[i], b[i])
	}
}

func sumVec[T number](a, b, out []T) {
	b, out = b[:len(a)], out[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y, o := a[i:i+4:i+4], b[i:i+4:i+4], out[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = x[0]+y[0], x[1]+y[1], x[2]+y[2], x[3]+y[3]
	}
	for ; i < len(a); i++ {
		out[i] = a[i] + b[i]
	}
}

func prodVec[T number](a, b, out []T) {
	b, out = b[:len(a)], out[:len(a)]
	i := 0
	for ; i+4 <= len(a); i += 4 {
		x, y, o := a[i:i+4:i+4], b[i:i+4:i+4], out[i:i+4:i+4]
		o[0], o[1], o[2], o[3] = x[0]*y[0], x[1]*y[1], x[2]*y[2], x[3]*y[3]
	}
	for ; i < len(a); i++ {
		out[i] = a[i] * b[i]
	}
}

// The 4-input loops of fuser4. Reslicing leaves no bounds check in their
// bodies; unrolled four ways like the pairwise loops they were no faster.

func maxVec4[T integer](a, b, c, d, out []T) {
	b, c, d, out = b[:len(a)], c[:len(a)], d[:len(a)], out[:len(a)]
	for i, x := range a {
		out[i] = widenMax(widenMax(b[i], d[i]), widenMax(x, c[i]))
	}
}

func minVec4[T integer](a, b, c, d, out []T) {
	b, c, d, out = b[:len(a)], c[:len(a)], d[:len(a)], out[:len(a)]
	for i, x := range a {
		out[i] = widenMin(widenMin(b[i], d[i]), widenMin(x, c[i]))
	}
}

func maxVecF4[T float32 | float64](a, b, c, d, out []T) {
	b, c, d, out = b[:len(a)], c[:len(a)], d[:len(a)], out[:len(a)]
	for i, x := range a {
		out[i] = maxOf(maxOf(b[i], d[i]), maxOf(x, c[i]))
	}
}

func minVecF4[T float32 | float64](a, b, c, d, out []T) {
	b, c, d, out = b[:len(a)], c[:len(a)], d[:len(a)], out[:len(a)]
	for i, x := range a {
		out[i] = minOf(minOf(b[i], d[i]), minOf(x, c[i]))
	}
}

func sumVec4[T number](a, b, c, d, out []T) {
	b, c, d, out = b[:len(a)], c[:len(a)], d[:len(a)], out[:len(a)]
	for i, x := range a {
		out[i] = (b[i] + d[i]) + (x + c[i])
	}
}

func prodVec4[T number](a, b, c, d, out []T) {
	b, c, d, out = b[:len(a)], c[:len(a)], d[:len(a)], out[:len(a)]
	for i, x := range a {
		out[i] = (b[i] * d[i]) * (x * c[i])
	}
}

// Predefined reduction operations.
var (
	// MaxOp computes element-wise maxima of numeric data.
	MaxOp = &Op{name: "MPJ.MAX", byType: map[Datatype]kernel{
		Byte:   vecCombiner(Byte, maxOf[byte], maxVec[byte], maxVec4[byte]),
		Short:  vecCombiner(Short, maxOf[int16], maxVec[int16], maxVec4[int16]),
		Int:    vecCombiner(Int, maxOf[int32], maxVec[int32], maxVec4[int32]),
		Long:   vecCombiner(Long, maxOf[int64], maxVec[int64], maxVec4[int64]),
		GoInt:  vecCombiner(GoInt, maxOf[int], maxVec[int], maxVec4[int]),
		Float:  vecCombiner(Float, maxOf[float32], maxVecF[float32], maxVecF4[float32]),
		Double: vecCombiner(Double, maxOf[float64], maxVecF[float64], maxVecF4[float64]),
	}}
	// MinOp computes element-wise minima of numeric data.
	MinOp = &Op{name: "MPJ.MIN", byType: map[Datatype]kernel{
		Byte:   vecCombiner(Byte, minOf[byte], minVec[byte], minVec4[byte]),
		Short:  vecCombiner(Short, minOf[int16], minVec[int16], minVec4[int16]),
		Int:    vecCombiner(Int, minOf[int32], minVec[int32], minVec4[int32]),
		Long:   vecCombiner(Long, minOf[int64], minVec[int64], minVec4[int64]),
		GoInt:  vecCombiner(GoInt, minOf[int], minVec[int], minVec4[int]),
		Float:  vecCombiner(Float, minOf[float32], minVecF[float32], minVecF4[float32]),
		Double: vecCombiner(Double, minOf[float64], minVecF[float64], minVecF4[float64]),
	}}
	// SumOp computes element-wise sums of numeric data.
	SumOp = &Op{name: "MPJ.SUM", byType: map[Datatype]kernel{
		Byte:   vecCombiner(Byte, sumOf[byte], sumVec[byte], sumVec4[byte]),
		Short:  vecCombiner(Short, sumOf[int16], sumVec[int16], sumVec4[int16]),
		Int:    vecCombiner(Int, sumOf[int32], sumVec[int32], sumVec4[int32]),
		Long:   vecCombiner(Long, sumOf[int64], sumVec[int64], sumVec4[int64]),
		GoInt:  vecCombiner(GoInt, sumOf[int], sumVec[int], sumVec4[int]),
		Float:  vecCombiner(Float, sumOf[float32], sumVec[float32], sumVec4[float32]),
		Double: vecCombiner(Double, sumOf[float64], sumVec[float64], sumVec4[float64]),
	}}
	// ProdOp computes element-wise products of numeric data.
	ProdOp = &Op{name: "MPJ.PROD", byType: map[Datatype]kernel{
		Byte:   vecCombiner(Byte, prodOf[byte], prodVec[byte], prodVec4[byte]),
		Short:  vecCombiner(Short, prodOf[int16], prodVec[int16], prodVec4[int16]),
		Int:    vecCombiner(Int, prodOf[int32], prodVec[int32], prodVec4[int32]),
		Long:   vecCombiner(Long, prodOf[int64], prodVec[int64], prodVec4[int64]),
		GoInt:  vecCombiner(GoInt, prodOf[int], prodVec[int], prodVec4[int]),
		Float:  vecCombiner(Float, prodOf[float32], prodVec[float32], prodVec4[float32]),
		Double: vecCombiner(Double, prodOf[float64], prodVec[float64], prodVec4[float64]),
	}}
	// LAndOp computes element-wise logical AND of boolean data.
	LAndOp = &Op{name: "MPJ.LAND", byType: map[Datatype]kernel{
		Boolean: numCombiner(Boolean, func(a, b bool) bool { return a && b }),
	}}
	// LOrOp computes element-wise logical OR of boolean data.
	LOrOp = &Op{name: "MPJ.LOR", byType: map[Datatype]kernel{
		Boolean: numCombiner(Boolean, func(a, b bool) bool { return a || b }),
	}}
	// LXorOp computes element-wise logical XOR of boolean data.
	LXorOp = &Op{name: "MPJ.LXOR", byType: map[Datatype]kernel{
		Boolean: numCombiner(Boolean, func(a, b bool) bool { return a != b }),
	}}
	// BAndOp computes element-wise bitwise AND of integer data.
	BAndOp = &Op{name: "MPJ.BAND", byType: map[Datatype]kernel{
		Byte:  numCombiner(Byte, func(a, b byte) byte { return a & b }),
		Short: numCombiner(Short, func(a, b int16) int16 { return a & b }),
		Int:   numCombiner(Int, func(a, b int32) int32 { return a & b }),
		Long:  numCombiner(Long, func(a, b int64) int64 { return a & b }),
		GoInt: numCombiner(GoInt, func(a, b int) int { return a & b }),
	}}
	// BOrOp computes element-wise bitwise OR of integer data.
	BOrOp = &Op{name: "MPJ.BOR", byType: map[Datatype]kernel{
		Byte:  numCombiner(Byte, func(a, b byte) byte { return a | b }),
		Short: numCombiner(Short, func(a, b int16) int16 { return a | b }),
		Int:   numCombiner(Int, func(a, b int32) int32 { return a | b }),
		Long:  numCombiner(Long, func(a, b int64) int64 { return a | b }),
		GoInt: numCombiner(GoInt, func(a, b int) int { return a | b }),
	}}
	// BXorOp computes element-wise bitwise XOR of integer data.
	BXorOp = &Op{name: "MPJ.BXOR", byType: map[Datatype]kernel{
		Byte:  numCombiner(Byte, func(a, b byte) byte { return a ^ b }),
		Short: numCombiner(Short, func(a, b int16) int16 { return a ^ b }),
		Int:   numCombiner(Int, func(a, b int32) int32 { return a ^ b }),
		Long:  numCombiner(Long, func(a, b int64) int64 { return a ^ b }),
		GoInt: numCombiner(GoInt, func(a, b int) int { return a ^ b }),
	}}
	// MaxLocOp computes element-wise maxima of pair data, carrying the
	// index of the maximum; ties resolve to the lower index.
	MaxLocOp = &Op{name: "MPJ.MAXLOC", byType: map[Datatype]kernel{
		DoubleInt2: numCombiner(DoubleInt2, func(a, b DoubleInt) DoubleInt {
			if a.Value > b.Value || (a.Value == b.Value && a.Index < b.Index) {
				return a
			}
			return b
		}),
		FloatInt2: numCombiner(FloatInt2, func(a, b FloatInt) FloatInt {
			if a.Value > b.Value || (a.Value == b.Value && a.Index < b.Index) {
				return a
			}
			return b
		}),
		IntInt2: numCombiner(IntInt2, func(a, b IntInt) IntInt {
			if a.Value > b.Value || (a.Value == b.Value && a.Index < b.Index) {
				return a
			}
			return b
		}),
	}}
	// MinLocOp computes element-wise minima of pair data, carrying the
	// index of the minimum; ties resolve to the lower index.
	MinLocOp = &Op{name: "MPJ.MINLOC", byType: map[Datatype]kernel{
		DoubleInt2: numCombiner(DoubleInt2, func(a, b DoubleInt) DoubleInt {
			if a.Value < b.Value || (a.Value == b.Value && a.Index < b.Index) {
				return a
			}
			return b
		}),
		FloatInt2: numCombiner(FloatInt2, func(a, b FloatInt) FloatInt {
			if a.Value < b.Value || (a.Value == b.Value && a.Index < b.Index) {
				return a
			}
			return b
		}),
		IntInt2: numCombiner(IntInt2, func(a, b IntInt) IntInt {
			if a.Value < b.Value || (a.Value == b.Value && a.Index < b.Index) {
				return a
			}
			return b
		}),
	}}
)

// NewOp creates a user-defined reduction, the analogue of MPI_Op_create.
// f receives decoded element slices (the concrete slice type of dt's base,
// e.g. []float64 for Double, []any for Object) and must fold in into inout
// element-wise. The operation must be associative; the library assumes
// commutativity when picking reduction trees, as MPI does by default.
func NewOp(name string, f func(in, inout any, dt Datatype) error) *Op {
	return &Op{
		name: name,
		user: true,
		generic: func(dt Datatype) (combiner, error) {
			return func(inBytes, inoutBytes []byte) error {
				in, err := decodeAll(dt, inBytes)
				if err != nil {
					return err
				}
				inout, err := decodeAll(dt, inoutBytes)
				if err != nil {
					return err
				}
				if err := f(in, inout, dt); err != nil {
					return err
				}
				packed, err := dt.Pack(nil, inout, 0, countOf(dt, inoutBytes))
				if err != nil {
					return err
				}
				if len(packed) != len(inoutBytes) {
					return fmt.Errorf("%w: user op %s changed packed size", ErrOp, name)
				}
				copy(inoutBytes, packed)
				return nil
			}, nil
		},
	}
}

// countOf computes how many dt elements a packed buffer holds (fixed-size
// base types only; user ops on Object decode the stream itself).
func countOf(dt Datatype, packed []byte) int {
	if sz := dt.ByteSize(); sz > 0 {
		return len(packed) / sz
	}
	return 0
}

// decodeAll unpacks an entire packed vector into a fresh buffer.
func decodeAll(dt Datatype, packed []byte) (any, error) {
	n := countOf(dt, packed)
	if dt.ByteSize() < 0 {
		return nil, fmt.Errorf("%w: user-defined ops require fixed-size datatypes", ErrOp)
	}
	buf := dt.Alloc(n)
	if _, err := dt.Unpack(packed, buf, 0, n); err != nil {
		return nil, err
	}
	return buf, nil
}

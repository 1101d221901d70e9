package core

import (
	"reflect"
	"testing"
	"testing/quick"
)

type objPoint struct {
	X, Y float64
	Name string
}

func init() { RegisterType(objPoint{}) }

// objectRoundTrip packs in as OBJECT elements and unpacks them again.
func objectRoundTrip(in []any) ([]any, error) {
	data, err := Object.Pack(nil, in, 0, len(in))
	if err != nil {
		return nil, err
	}
	out := make([]any, len(in))
	n, err := Object.Unpack(data, out, 0, len(in))
	return out[:n], err
}

func TestObjectsRoundTrip(t *testing.T) {
	in := []any{
		42, "hello", 3.14, true,
		objPoint{X: 1, Y: 2, Name: "p"},
		[]int{1, 2, 3},
		map[string]int{"a": 1},
	}
	RegisterType([]int{})
	RegisterType(map[string]int{})
	out, err := objectRoundTrip(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
}

func TestEmptyObjects(t *testing.T) {
	out, err := objectRoundTrip(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Errorf("decoded %d elements from empty encode", len(out))
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := Object.Unpack([]byte("not a gob stream"), make([]any, 1), 0, 1); err == nil {
		t.Error("OBJECT unpacked garbage")
	}
}

func TestObjectsRoundTripProperty(t *testing.T) {
	f := func(ints []int64, strs []string) bool {
		var in []any
		for _, v := range ints {
			in = append(in, v)
		}
		for _, s := range strs {
			in = append(in, s)
		}
		out, err := objectRoundTrip(in)
		if err != nil {
			return false
		}
		if len(in) == 0 {
			return len(out) == 0
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

package interp

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/obl/ir"
	"repro/internal/simmach"
)

// Kind tags a runtime value.
type Kind uint8

// Value kinds.
const (
	KindNil Kind = iota
	KindInt
	KindFloat
	KindBool
	KindRef
)

// Value is an OBL runtime value. Booleans are stored in I.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	Ref  *Object
}

// IntVal makes an integer value.
func IntVal(i int64) Value { return Value{Kind: KindInt, I: i} }

// FloatVal makes a float value.
func FloatVal(f float64) Value { return Value{Kind: KindFloat, F: f} }

// BoolVal makes a boolean value.
func BoolVal(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// RefVal makes a reference value.
func RefVal(o *Object) Value { return Value{Kind: KindRef, Ref: o} }

// String formats the value as the print statement shows it.
func (v Value) String() string {
	switch v.Kind {
	case KindNil:
		return "nil"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.I != 0)
	case KindRef:
		if v.Ref == nil {
			return "nil"
		}
		if v.Ref.Class != nil {
			return fmt.Sprintf("%s@%p", v.Ref.Class.Name, v.Ref)
		}
		return fmt.Sprintf("array[%d]", len(v.Ref.Elems))
	default:
		return fmt.Sprintf("Value(kind=%d)", v.Kind)
	}
}

// Equal implements the == operator (matching kinds compared by value;
// references by identity).
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindNil:
		return true
	case KindInt, KindBool:
		return v.I == o.I
	case KindFloat:
		return v.F == o.F
	case KindRef:
		return v.Ref == o.Ref
	}
	return false
}

// Object is a heap object: a class instance (Fields) or an array (Elems).
// As in the paper's execution model, every object carries a mutual
// exclusion lock, created lazily on first acquire.
type Object struct {
	Class  *ir.Class
	Fields []Value
	Elems  []Value
	lock   *simmach.Lock
}

// Lock returns the object's mutual exclusion lock, creating it on first
// use.
func (o *Object) Lock(m *simmach.Machine) *simmach.Lock {
	if o.lock == nil {
		name := "array"
		if o.Class != nil {
			name = o.Class.Name
		}
		o.lock = m.NewLock(name)
	}
	return o.lock
}

// intrinsic is the host implementation of an extern. Args arrive in
// declaration order; the extra cost (beyond the declared static cost) is
// returned for dynamically-priced externs like work.
type intrinsic func(args []Value) (Value, simmach.Time)

// intrinsics is the registry of extern implementations available to OBL
// programs. Every extern an OBL program declares must appear here; they
// are pure, deterministic functions. work(n) is special: it performs no
// computation but costs n virtual nanoseconds, modelling the expensive
// numeric kernels that the miniature applications elide (documented as a
// substitution in DESIGN.md).
var intrinsics = map[string]intrinsic{
	"sqrt": func(a []Value) (Value, simmach.Time) {
		return FloatVal(math.Sqrt(a[0].F)), 0
	},
	"sin": func(a []Value) (Value, simmach.Time) {
		return FloatVal(math.Sin(a[0].F)), 0
	},
	"cos": func(a []Value) (Value, simmach.Time) {
		return FloatVal(math.Cos(a[0].F)), 0
	},
	"exp": func(a []Value) (Value, simmach.Time) {
		return FloatVal(math.Exp(a[0].F)), 0
	},
	"log": func(a []Value) (Value, simmach.Time) {
		return FloatVal(math.Log(a[0].F)), 0
	},
	"pow": func(a []Value) (Value, simmach.Time) {
		return FloatVal(math.Pow(a[0].F, a[1].F)), 0
	},
	"floor": func(a []Value) (Value, simmach.Time) {
		return FloatVal(math.Floor(a[0].F)), 0
	},
	"fabs": func(a []Value) (Value, simmach.Time) {
		return FloatVal(math.Abs(a[0].F)), 0
	},
	"iabs": func(a []Value) (Value, simmach.Time) {
		if a[0].I < 0 {
			return IntVal(-a[0].I), 0
		}
		return IntVal(a[0].I), 0
	},
	// work(n) costs n virtual nanoseconds and returns nothing.
	"work": func(a []Value) (Value, simmach.Time) {
		n := a[0].I
		if n < 0 {
			n = 0
		}
		return Value{}, simmach.Time(n)
	},
	// noise(i) is a deterministic hash of i in [0, 1).
	"noise": func(a []Value) (Value, simmach.Time) {
		return FloatVal(hash01(uint64(a[0].I))), 0
	},
	// Smooth deterministic binary kernels for the applications' physics.
	"interact": func(a []Value) (Value, simmach.Time) {
		x, y := a[0].F, a[1].F
		return FloatVal(x * y / (1 + math.Abs(x-y))), 0
	},
	"force": func(a []Value) (Value, simmach.Time) {
		d := a[0].F - a[1].F
		return FloatVal(d / (1 + d*d)), 0
	},
	"term": func(a []Value) (Value, simmach.Time) {
		return FloatVal(math.Cos(a[0].F) * math.Sin(a[1].F)), 0
	},
}

// zeroOf returns the zero value for an element kind (nil for references).
func zeroOf(k ir.ElemKind) Value {
	switch k {
	case ir.ElemInt:
		return IntVal(0)
	case ir.ElemFloat:
		return FloatVal(0)
	case ir.ElemBool:
		return BoolVal(false)
	default:
		return Value{}
	}
}

// hash01 maps a 64-bit integer to [0,1) deterministically (splitmix64).
func hash01(x uint64) float64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// CheckExterns verifies that every extern in the program has an
// implementation.
func CheckExterns(p *ir.Program) error {
	for _, e := range p.Externs {
		if _, ok := intrinsics[e.Name]; !ok {
			return fmt.Errorf("interp: extern %q has no implementation; available: sqrt sin cos exp log pow floor fabs iabs work noise interact force term", e.Name)
		}
	}
	return nil
}

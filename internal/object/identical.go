package object

import "reflect"

// Identical reports whether a and b hold the same data, as reflect.DeepEqual
// would, except that every Value in them is compared by identity: kind,
// payload bits, text, elements and RefAt's stamp. DeepEqual reads a Value's
// data pointer as an address, so two copies of one string would differ; Equal
// is looser (3 equals 3.0, a stamp is ignored). It is the comparison for
// tests of what survives an encoding or a copy. Objects are compared by
// their named records (every name, kind and payload bit, not a stamp) and
// modeled sizes, not by the layouts a store, a decoder or New gives them.
func Identical(a, b any) bool { return identical(reflect.ValueOf(a), reflect.ValueOf(b)) }

var valueType, objectType = reflect.TypeFor[Value](), reflect.TypeFor[Object]()

func identical(a, b reflect.Value) bool {
	if !a.IsValid() || !b.IsValid() {
		return a.IsValid() == b.IsValid()
	}
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer, reflect.Interface:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return identical(a.Elem(), b.Elem())
	case reflect.Slice, reflect.Array:
		if a.Kind() == reflect.Slice && a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !identical(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if w := b.MapIndex(it.Key()); !w.IsValid() || !identical(it.Value(), w) {
				return false
			}
		}
		return true
	case reflect.Struct:
		if a.Type() == valueType {
			return identicalValues(valueOf(a), valueOf(b))
		}
		if a.Type() == objectType && a.CanAddr() && b.CanAddr() {
			x, y := (*Object)(a.Addr().UnsafePointer()), (*Object)(b.Addr().UnsafePointer())
			rx, errx := AppendObject(nil, x)
			ry, erry := AppendObject(nil, y)
			return errx == nil && erry == nil && string(rx) == string(ry) && x.wire == y.wire
		}
		for i := range a.NumField() {
			if !identical(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Func:
		return a.IsNil() && b.IsNil()
	default:
		return a.Equal(b)
	}
}

// valueOf reads a Value field by field: one reached through an unexported
// field cannot be read whole.
func valueOf(r reflect.Value) Value {
	return Value{p: r.Field(0).UnsafePointer(), n: r.Field(1).Uint(), tag: r.Field(2).Uint()}
}

func identicalValues(v, w Value) bool {
	if v.tag != w.tag || v.n != w.n || v.Text() != w.Text() {
		return false
	}
	a, b := v.Elems(), w.Elems()
	for i := range a {
		if !identicalValues(a[i], b[i]) {
			return false
		}
	}
	return true
}

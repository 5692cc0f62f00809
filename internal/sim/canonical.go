package sim

import (
	"fmt"
	"reflect"
	"strconv"
)

// Canonical renders every model parameter of the configuration as a
// deterministic "Name=value;" string — the basis of the evaluation layer's
// run-spec digests (internal/core). Fields are emitted in declaration order
// so adding a parameter automatically changes the canonical form (and
// therefore invalidates cached results that depended on its default), while
// runtime-only attachments (the Observer hook, and any future pointer or
// function field) are excluded: they never affect measured statistics.
// Values are spelled exactly as fmt's %v spells them: persisted digests
// depend on the bytes.
func (c Config) Canonical() string {
	b := make([]byte, 0, 1024)
	v := reflect.ValueOf(c)
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Pointer, reflect.Func, reflect.Interface, reflect.Chan:
			continue
		}
		b = append(b, t.Field(i).Name...)
		b = append(b, '=')
		b = appendValue(b, f)
		b = append(b, ';')
	}
	return string(b)
}

// appendValue appends v as fmt's %v renders it: plain kinds directly, and a
// type with methods (a String method changes %v) through fmt.
func appendValue(b []byte, v reflect.Value) []byte {
	if v.Type().NumMethod() == 0 {
		switch v.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			return strconv.AppendInt(b, v.Int(), 10)
		case reflect.Float64:
			return strconv.AppendFloat(b, v.Float(), 'g', -1, 64)
		case reflect.Bool:
			return strconv.AppendBool(b, v.Bool())
		case reflect.String:
			return append(b, v.String()...)
		}
	}
	return fmt.Append(b, v.Interface())
}

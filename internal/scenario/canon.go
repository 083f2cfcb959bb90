package scenario

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
	"strings"
)

// The canonical JSON of Params and Outcome is written here once, by
// append-style encoders that emit exactly the bytes encoding/json emits:
// object keys sorted bytewise, numbers by encoding/json's float rule,
// strings HTML-escaped. Point hashes, streamed rows, results documents
// and journal records all come from these encoders, and FuzzParamsJSON
// pins them to encoding/json. Values encoding/json would render through
// a less common path (a string that needs escaping, a value of a kind
// Params does not hold) are handed to json.Marshal one at a time.

// AppendJSONString appends s as encoding/json encodes it. Plain
// printable ASCII without '"', '\\', '<', '>' or '&' is copied as is;
// anything else goes through json.Marshal.
func AppendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			js, _ := json.Marshal(s) // a string always encodes
			return append(b, js...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// AppendJSONFloat appends f as encoding/json encodes a float of the given
// bit size (32 or 64): the shortest 'f' form, or 'e' below 1e-6 and at or
// above 1e21 with a one-digit negative exponent unpadded. NaN and ±Inf
// are an error, as they are there.
func AppendJSONFloat(b []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) || bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if format == 'e' {
		// e-07 → e-7
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendScalar appends one parameter value.
func appendScalar(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case string:
		return AppendJSONString(b, x), nil
	case bool:
		return strconv.AppendBool(b, x), nil
	case float64:
		return AppendJSONFloat(b, x, 64)
	case float32:
		return AppendJSONFloat(b, float64(x), 32)
	case int:
		return strconv.AppendInt(b, int64(x), 10), nil
	case int8:
		return strconv.AppendInt(b, int64(x), 10), nil
	case int16:
		return strconv.AppendInt(b, int64(x), 10), nil
	case int32:
		return strconv.AppendInt(b, int64(x), 10), nil
	case int64:
		return strconv.AppendInt(b, x, 10), nil
	case uint:
		return strconv.AppendUint(b, uint64(x), 10), nil
	case uint8:
		return strconv.AppendUint(b, uint64(x), 10), nil
	case uint16:
		return strconv.AppendUint(b, uint64(x), 10), nil
	case uint32:
		return strconv.AppendUint(b, uint64(x), 10), nil
	case uint64:
		return strconv.AppendUint(b, x, 10), nil
	}
	js, err := json.Marshal(v)
	return append(b, js...), err
}

type entry[V any] struct {
	k string
	v V
}

// sortedEntries returns m's entries in the order encoding/json writes
// map keys: bytewise. It appends to es, so a caller's array of a few
// entries keeps small maps off the heap.
func sortedEntries[V any](m map[string]V, es []entry[V]) []entry[V] {
	for k, v := range m {
		es = append(es, entry[V]{k, v})
	}
	slices.SortFunc(es, func(x, y entry[V]) int { return strings.Compare(x.k, y.k) })
	return es
}

// AppendJSON appends p's canonical JSON object; it fails where
// encoding/json fails (a NaN or infinite value).
func (p Params) AppendJSON(b []byte) ([]byte, error) {
	if p == nil {
		return append(b, "null"...), nil
	}
	var stack [16]entry[any]
	b = append(b, '{')
	for i, e := range sortedEntries(p, stack[:0]) {
		if i > 0 {
			b = append(b, ',')
		}
		b = AppendJSONString(b, e.k)
		b = append(b, ':')
		var err error
		if b, err = appendScalar(b, e.v); err != nil {
			return b, err
		}
	}
	return append(b, '}'), nil
}

// MarshalJSON renders p through AppendJSON.
func (p Params) MarshalJSON() ([]byte, error) { return p.AppendJSON(nil) }

// AppendJSON appends o's JSON object, fields in struct order, empty
// optional fields omitted.
func (o *Outcome) AppendJSON(b []byte) []byte {
	b = append(b, `{"sim_end_ns":`...)
	b = strconv.AppendInt(b, o.SimEndNS, 10)
	if o.CtxSwitches != 0 {
		b = append(b, `,"ctx_switches":`...)
		b = strconv.AppendUint(b, o.CtxSwitches, 10)
	}
	if len(o.Checksums) > 0 {
		b = append(b, `,"checksums":[`...)
		for i, c := range o.Checksums {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendUint(b, c, 10)
		}
		b = append(b, ']')
	}
	if o.DatesHash != "" {
		b = append(b, `,"dates_hash":`...)
		b = AppendJSONString(b, o.DatesHash)
	}
	if len(o.Counters) > 0 {
		var stack [16]entry[uint64]
		b = append(b, `,"counters":{`...)
		for i, e := range sortedEntries(o.Counters, stack[:0]) {
			if i > 0 {
				b = append(b, ',')
			}
			b = AppendJSONString(b, e.k)
			b = append(b, ':')
			b = strconv.AppendUint(b, e.v, 10)
		}
		b = append(b, '}')
	}
	return append(b, '}')
}

// MarshalJSON renders o through AppendJSON.
func (o Outcome) MarshalJSON() ([]byte, error) { return o.AppendJSON(nil), nil }

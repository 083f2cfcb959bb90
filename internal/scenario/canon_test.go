package scenario

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzParamsJSON pins the canonical encoder to encoding/json: a Params
// map built from fuzzer-chosen keys and values of every kind scalarOK
// accepts must encode to exactly json.Marshal's bytes (and fail where
// it fails), and HashPoint must hash exactly those bytes. The checked-in
// corpus (testdata/fuzz/FuzzParamsJSON) holds the float format
// boundaries, HTML-escaped and control bytes, and invalid UTF-8; plain
// `go test` replays it.
func FuzzParamsJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, key, str string, f64 float64, f32 float32, i64 int64, u64 uint64, flag bool) {
		p := Params{
			key:            str,
			str:            flag,
			key + "\x00":   f64,
			"f32" + key:    f32,
			"float64":      -f64,
			"int":          int(i64),
			"int8":         int8(i64),
			"int16":        int16(i64),
			"int32":        int32(i64),
			"int64":        i64,
			"uint":         uint(u64),
			"uint8":        uint8(u64),
			"uint16":       uint16(u64),
			"uint32":       uint32(u64),
			"uint64":       u64,
			"<" + str:      float32(f64),
			"\u00e9" + key: nil,
		}
		for _, m := range []Params{p, {key: f64}, {}} {
			got, gotErr := m.AppendJSON(nil)
			want, wantErr := json.Marshal(map[string]any(m))
			if (gotErr != nil) != (wantErr != nil) {
				t.Fatalf("%#v: encoder error %v, encoding/json error %v", m, gotErr, wantErr)
			}
			if wantErr != nil {
				if _, err := HashPoint(key, m); err == nil {
					t.Fatalf("%#v: HashPoint accepted what encoding/json rejects (%v)", m, wantErr)
				}
				continue
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%#v:\nencoder       %s\nencoding/json %s", m, got, want)
			}
			ref, _ := json.Marshal(struct {
				Model  string         `json:"model"`
				Params map[string]any `json:"params"`
			}{key, m})
			sum := sha256.Sum256(ref)
			h, err := HashPoint(key, m)
			if err != nil || h != fmt.Sprintf("%x", sum[:8]) {
				t.Fatalf("%#v: HashPoint = %q, %v; want %x (over %s)", m, h, err, sum[:8], ref)
			}
		}
	})
}

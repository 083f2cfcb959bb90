// Package scenario turns declarative what-if specifications into concrete
// simulation points. The paper's value proposition is cheap, accurate
// design-space exploration — sweeping FIFO depths, quanta and topologies to
// size a SoC (§IV) — and this package is the layer that names those sweeps:
//
//   - a Spec is a JSON-decodable description of one workload model
//     (pipeline, soc, soc-clustered, kpn, noc) plus its parameters;
//   - a Matrix lists per-parameter value axes; Expand takes the cartesian
//     product and yields one concrete Point per combination;
//   - every Point carries a canonical hash of (model, parameters), so
//     duplicate points — across axes or across specs — are detected and
//     simulated once;
//   - a model Registry maps model names to run/check functions; the
//     workload packages self-register in their init (internal/pipeline,
//     internal/soc, internal/kpn, internal/noc).
//
// The campaign engine (internal/campaign) consumes expanded points; the
// HTTP front-end (cmd/simd) and the CLI (cmd/campaign) accept Spec/Set
// documents over the wire and from files.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
)

// Params maps parameter names to scalar values (string, bool or number).
// Values decoded from JSON arrive as float64/string/bool; values built in
// Go code may be any integer kind — canonicalization and the Reader accept
// both.
type Params map[string]any

// Clone returns a shallow copy of p (values are scalars).
func (p Params) Clone() Params {
	out := make(Params, len(p))
	for k, v := range p {
		out[k] = v
	}
	return out
}

// Spec is one declarative scenario: a model name, fixed parameters, and an
// optional matrix of parameter axes to sweep.
type Spec struct {
	// Name optionally labels the spec in reports.
	Name string `json:"name,omitempty"`
	// Model names a registered workload model (see Models()).
	Model string `json:"model"`
	// Params fixes scalar parameters shared by every expanded point.
	Params Params `json:"params,omitempty"`
	// Matrix maps parameter names to value lists; Expand takes the
	// cartesian product over the axes (sorted by name, last axis
	// fastest). A key may appear in Params or Matrix, not both.
	Matrix map[string][]any `json:"matrix,omitempty"`
}

// Set is a campaign submission: one or more specs whose expansions are
// concatenated (and deduplicated by point hash downstream).
type Set struct {
	// Name optionally labels the campaign.
	Name string `json:"name,omitempty"`
	// Specs are expanded in order.
	Specs []Spec `json:"specs"`
}

// Point is one concrete, fully-parameterized simulation to run.
type Point struct {
	// Model names the registered model.
	Model string `json:"model"`
	// Params holds the concrete parameter assignment.
	Params Params `json:"params"`
	// Hash is the canonical content hash of (Model, Params): equal
	// hashes mean equal simulations.
	Hash string `json:"hash"`
}

// ParseSet decodes a campaign submission: either a Set document
// ({"specs": [...]}) or a single bare Spec ({"model": ...}).
func ParseSet(data []byte) (Set, error) {
	var probe struct {
		Name   string           `json:"name"`
		Specs  []Spec           `json:"specs"`
		Model  string           `json:"model"`
		Params Params           `json:"params"`
		Matrix map[string][]any `json:"matrix"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return Set{}, fmt.Errorf("scenario: bad spec document: %w", err)
	}
	if len(probe.Specs) > 0 {
		if probe.Model != "" {
			return Set{}, fmt.Errorf("scenario: document has both 'specs' and a top-level 'model'")
		}
		return Set{Name: probe.Name, Specs: probe.Specs}, nil
	}
	if probe.Model == "" {
		return Set{}, fmt.Errorf("scenario: document names no model and no specs")
	}
	return Set{
		Name:  probe.Name,
		Specs: []Spec{{Name: probe.Name, Model: probe.Model, Params: probe.Params, Matrix: probe.Matrix}},
	}, nil
}

// scalarOK reports whether v is an acceptable parameter value.
func scalarOK(v any) bool {
	switch v.(type) {
	case string, bool, float64, float32, int, int8, int16, int32, int64,
		uint, uint8, uint16, uint32, uint64:
		return true
	}
	return false
}

// Validate checks the spec against the model registry: the model must be
// registered, every parameter key known to it, all values scalar, matrix
// axes non-empty, and no key fixed and swept at once.
func (s Spec) Validate() error {
	m, ok := Lookup(s.Model)
	if !ok {
		return fmt.Errorf("scenario: unknown model %q (have %v)", s.Model, Models())
	}
	known := make(map[string]bool, len(m.Keys))
	for _, k := range m.Keys {
		known[k] = true
	}
	for k, v := range s.Params {
		if !known[k] {
			return fmt.Errorf("scenario: model %q: unknown parameter %q (keys: %v)", s.Model, k, m.Keys)
		}
		if !scalarOK(v) {
			return fmt.Errorf("scenario: model %q: parameter %q: non-scalar value %T", s.Model, k, v)
		}
	}
	for k, vs := range s.Matrix {
		if !known[k] {
			return fmt.Errorf("scenario: model %q: unknown matrix axis %q (keys: %v)", s.Model, k, m.Keys)
		}
		if _, dup := s.Params[k]; dup {
			return fmt.Errorf("scenario: model %q: %q appears in both params and matrix", s.Model, k)
		}
		if len(vs) == 0 {
			return fmt.Errorf("scenario: model %q: matrix axis %q is empty", s.Model, k)
		}
		for _, v := range vs {
			if !scalarOK(v) {
				return fmt.Errorf("scenario: model %q: matrix axis %q: non-scalar value %T", s.Model, k, v)
			}
		}
	}
	return nil
}

// MaxExpansion is the absolute ceiling on a spec's cartesian product —
// a guard against axis products that would exhaust memory (or overflow
// int) before any per-campaign limit could be applied.
const MaxExpansion = 1 << 30

// NumPoints validates the spec and returns the number of points Expand
// would produce, without materializing any of them, erroring beyond
// MaxExpansion. Submission front-ends check this (against their own,
// smaller limits) before paying for the expansion.
func (s Spec) NumPoints() (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	n := 1
	for k, vs := range s.Matrix {
		if n > MaxExpansion/len(vs) {
			return 0, fmt.Errorf("scenario: model %q: matrix at axis %q exceeds %d points", s.Model, k, MaxExpansion)
		}
		n *= len(vs)
	}
	return n, nil
}

// NumPoints sums the specs' expansion sizes, erroring beyond MaxExpansion.
func (s Set) NumPoints() (int, error) {
	total := 0
	for i, sp := range s.Specs {
		n, err := sp.NumPoints()
		if err != nil {
			return 0, fmt.Errorf("spec %d: %w", i, err)
		}
		if total > MaxExpansion-n {
			return 0, fmt.Errorf("scenario: set exceeds %d points", MaxExpansion)
		}
		total += n
	}
	return total, nil
}

// Expand validates the spec and returns its concrete points: the cartesian
// product of the matrix axes over the fixed params. Axes iterate in sorted
// name order with the last axis varying fastest, so the expansion order is
// deterministic and independent of map iteration.
func (s Spec) Expand() ([]Point, error) {
	n, err := s.NumPoints()
	if err != nil {
		return nil, err
	}
	axes := make([]string, 0, len(s.Matrix))
	for k := range s.Matrix {
		axes = append(axes, k)
	}
	sort.Strings(axes)
	points := make([]Point, 0, n)
	idx := make([]int, len(axes))
	for {
		p := s.Params.Clone()
		for i, k := range axes {
			p[k] = s.Matrix[k][idx[i]]
		}
		h, err := HashPoint(s.Model, p)
		if err != nil {
			return nil, err
		}
		points = append(points, Point{Model: s.Model, Params: p, Hash: h})
		// Odometer increment, last axis fastest.
		i := len(axes) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.Matrix[axes[i]]) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return points, nil
		}
	}
}

// Expand expands every spec in order and concatenates the points.
func (s Set) Expand() ([]Point, error) {
	var points []Point
	for i, sp := range s.Specs {
		ps, err := sp.Expand()
		if err != nil {
			return nil, fmt.Errorf("spec %d: %w", i, err)
		}
		points = append(points, ps...)
	}
	return points, nil
}

// HashPoint returns the canonical content hash of a concrete scenario:
// sha256 over the JSON encoding of {model, params} (map keys sorted, and
// numeric values normalized, by this package's one encoder, which is
// byte-identical to encoding/json and pinned to it by FuzzParamsJSON),
// truncated to 16 hex digits. Two points with the same hash describe the
// same simulation.
func HashPoint(model string, params Params) (string, error) {
	var stack [256]byte // a typical point's canonical bytes fit
	canon := append(stack[:0], `{"model":`...)
	canon = AppendJSONString(canon, model)
	canon = append(canon, `,"params":`...)
	canon, err := params.AppendJSON(canon)
	if err != nil {
		return "", fmt.Errorf("scenario: hashing %q: %w", model, err)
	}
	canon = append(canon, '}')
	sum := sha256.Sum256(canon)
	var digits [16]byte
	hex.Encode(digits[:], sum[:8])
	return string(digits[:]), nil
}

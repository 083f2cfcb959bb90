package noc

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestRouteTable checks the precomputed output ports against the XY rule
// on every router × destination: the port is the direction that corrects
// X first, then Y, and its FIFO is the neighbour's input facing back on
// that side, or the router's own delivery queue for local.
func TestRouteTable(t *testing.T) {
	for _, dim := range [][2]int{{3, 3}, {8, 2}} {
		w, h := dim[0], dim[1]
		m := NewMesh(sim.NewKernel("route"), "m", Config{Width: w, Height: h})
		for _, r := range m.routers {
			for dst := 0; dst < w*h; dst++ {
				dx, dy := dst%w, dst/w
				want, nb, back := local, r.idx, local
				switch {
				case dx > r.x:
					want, nb, back = east, r.idx+1, west
				case dx < r.x:
					want, nb, back = west, r.idx-1, east
				case dy > r.y:
					want, nb, back = south, r.idx+w, north
				case dy < r.y:
					want, nb, back = north, r.idx-w, south
				}
				wantFIFO := r.out
				if want != local {
					wantFIFO = m.routers[nb].in[back]
				}
				pt, out := r.route(Flit{Dst: dst})
				if pt != want || out != wantFIFO {
					t.Errorf("%dx%d router %d → %d: port %d fifo %v, want port %d fifo %v",
						w, h, r.idx, dst, pt, out, want, wantFIFO)
				}
			}
		}
	}
}

// TestRouteEscapePanics pins the guard for a flit whose XY route leaves
// the mesh: a destination below the bottom row routes south off the edge.
func TestRouteEscapePanics(t *testing.T) {
	const w, h = 3, 2
	m := NewMesh(sim.NewKernel("route"), "m", Config{Width: w, Height: h})
	r := m.routers[w*h-1]
	if !r.in[local].TryWrite(Flit{Dst: w*h + r.x}) {
		t.Fatal("injection queue full")
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "XY routing escaped the mesh") {
			t.Fatalf("panic = %q, want the escaped-mesh guard", msg)
		}
	}()
	r.forward()
}

package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netlist"
	"repro/internal/par"
	"repro/internal/sim"
	"repro/internal/store"
)

// TestCatalogMatchesCode registers every subsystem on a fresh registry
// (exactly what cmd/simd does at startup), writes the exposition and
// checks it against the checked-in metrics.catalog — so adding or
// renaming a metric anywhere fails here until the catalog is updated.
func TestCatalogMatchesCode(t *testing.T) {
	reg := metrics.NewRegistry()
	sim.EnableMetrics(reg)
	core.EnableBridgeMetrics(reg)
	par.EnableMetrics(reg)
	netlist.EnableMetrics(reg)
	campaign.NewMetrics(reg)
	store.NewMetrics(reg)
	defer sim.EnableMetrics(nil)
	defer core.EnableBridgeMetrics(nil)
	defer par.EnableMetrics(nil)
	defer netlist.EnableMetrics(nil)

	expo := filepath.Join(t.TempDir(), "metrics.txt")
	f, err := os.Create(expo)
	if err != nil {
		t.Fatal(err)
	}
	if err := reg.WritePrometheus(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if code := run([]string{"-catalog", "../../metrics.catalog", "-in", expo}); code != 0 {
		t.Fatalf("metricscheck exit %d; the registered families diverge from metrics.catalog", code)
	}
}

// TestDiffDetectsDrift: a family missing from the exposition and one
// absent from the catalog both fail the check.
func TestDiffDetectsDrift(t *testing.T) {
	missing, extra := metrics.DiffFamilies(
		[]string{"a_total", "b_total"},
		[]string{"b_total", "c_total"},
	)
	if len(missing) != 1 || missing[0] != "a_total" {
		t.Errorf("missing = %v, want [a_total]", missing)
	}
	if len(extra) != 1 || extra[0] != "c_total" {
		t.Errorf("extra = %v, want [c_total]", extra)
	}
}

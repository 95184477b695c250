package experiments

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"

	"vix/internal/config"
	"vix/internal/harness"
	"vix/internal/topology"
)

// quickParams shrinks simulation windows so the whole experiment suite
// stays fast while preserving qualitative shapes.
func quickParams() Params {
	p := DefaultParams()
	p.Warmup = 800
	p.Measure = 2500
	return p
}

func find7(rows []Fig7Row, radix int, scheme string) Fig7Row {
	for _, r := range rows {
		if r.Radix == radix && r.Scheme == scheme {
			return r
		}
	}
	panic("row not found")
}

func TestFigure7QualitativeShape(t *testing.T) {
	rows, err := Figure7(quickParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 15 {
		t.Fatalf("Figure7 produced %d rows, want 15", len(rows))
	}
	for _, radix := range []int{5, 8, 10} {
		ap := find7(rows, radix, "AP")
		vix := find7(rows, radix, "VIX")
		ideal := find7(rows, radix, "Ideal")
		if ap.GainOverIF < 1.30 {
			t.Errorf("radix %d: AP gain %.3f < 1.30", radix, ap.GainOverIF)
		}
		if vix.GainOverIF < 1.20 {
			t.Errorf("radix %d: VIX gain %.3f < 1.20", radix, vix.GainOverIF)
		}
		if ideal.Efficiency > 1 {
			t.Errorf("radix %d: ideal efficiency %.3f > 1", radix, ideal.Efficiency)
		}
	}
}

func TestFigure8QualitativeShape(t *testing.T) {
	p := quickParams()
	rows, err := Figure8(context.Background(), p, []float64{0.02, 0.06}, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	sat := map[string]Fig8Point{}
	low := map[string]Fig8Point{}
	for _, pt := range rows {
		switch pt.Rate {
		case 0:
			sat[pt.Scheme] = pt
		case 0.02:
			low[pt.Scheme] = pt
		}
	}
	// Low-load latencies are nearly identical across schemes.
	for s, pt := range low {
		if math.Abs(pt.AvgLatency-low["IF"].AvgLatency) > 0.05*low["IF"].AvgLatency {
			t.Errorf("low-load latency of %s (%.2f) deviates from IF (%.2f)", s, pt.AvgLatency, low["IF"].AvgLatency)
		}
	}
	// At saturation VIX beats IF and AP in throughput.
	if sat["VIX"].Throughput < 1.08*sat["IF"].Throughput {
		t.Errorf("VIX saturation throughput %.4f not >=8%% over IF %.4f", sat["VIX"].Throughput, sat["IF"].Throughput)
	}
	if sat["VIX"].Throughput <= sat["AP"].Throughput {
		t.Errorf("VIX %.4f did not beat AP %.4f at network level", sat["VIX"].Throughput, sat["AP"].Throughput)
	}
	// And VIX has lower latency at saturation.
	if sat["VIX"].AvgLatency >= sat["IF"].AvgLatency {
		t.Errorf("VIX saturation latency %.1f not below IF %.1f", sat["VIX"].AvgLatency, sat["IF"].AvgLatency)
	}
}

func TestFigure9Fairness(t *testing.T) {
	rows, err := Figure9(context.Background(), quickParams(), harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	ratio := map[string]float64{}
	for _, r := range rows {
		ratio[r.Scheme] = r.MaxMinRatio
	}
	// VIX achieves the best (lowest) max/min ratio of all schemes.
	for s, v := range ratio {
		if s == "VIX" {
			continue
		}
		if ratio["VIX"] > v {
			t.Errorf("VIX fairness %.2f worse than %s %.2f", ratio["VIX"], s, v)
		}
	}
	if math.IsInf(ratio["VIX"], 1) {
		t.Error("VIX starved a source entirely")
	}
}

func TestFigure10PacketChaining(t *testing.T) {
	rows, err := Figure10(context.Background(), quickParams(), harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	gain := map[string]float64{}
	for _, r := range rows {
		gain[r.Scheme] = r.GainOverIF
	}
	if len(rows) != 5 {
		t.Fatalf("Figure10 has %d schemes, want 5", len(rows))
	}
	if gain["PC"] <= 1.0 {
		t.Errorf("PC gain %.3f not above IF", gain["PC"])
	}
	if gain["VIX"] <= gain["PC"] {
		t.Errorf("VIX gain %.3f not above PC gain %.3f (the Section 4.4 conclusion)", gain["VIX"], gain["PC"])
	}
}

func TestFigure11Energy(t *testing.T) {
	p := quickParams()
	rows, err := EnergyStudy(context.Background(), topology.NewMesh(8, 8), p, 0.1, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("Figure 11 has %d rows, want 2", len(rows))
	}
	base, vix := rows[0].Breakdown, rows[1].Breakdown
	ratio := vix.Total / base.Total
	if ratio < 1.005 || ratio > 1.10 {
		t.Errorf("VIX energy overhead ratio %.4f outside (1.005, 1.10); paper ~1.04", ratio)
	}
	if vix.Switch <= base.Switch {
		t.Error("switch energy did not grow with VIX")
	}
}

func TestFigure12VirtualInputs(t *testing.T) {
	p := quickParams()
	p.Warmup = 500
	p.Measure = 1500
	rows, err := Figure12(context.Background(), p, harness.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 { // 3 topologies x 2 VC counts x 3 configs
		t.Fatalf("Figure12 has %d rows, want 18", len(rows))
	}
	get := func(topo string, vcs int, cfg string) float64 {
		for _, r := range rows {
			if r.Topology == topo && r.VCs == vcs && r.Config == cfg {
				return r.Throughput
			}
		}
		t.Fatalf("missing row %s/%d/%s", topo, vcs, cfg)
		return 0
	}
	for _, topo := range []string{"mesh8x8", "cmesh4x4c4", "fbfly4x4c4"} {
		for _, vcs := range []int{4, 6} {
			no := get(topo, vcs, "no VIX")
			vix := get(topo, vcs, "1:2 VIX")
			if vix < 1.05*no {
				t.Errorf("%s %dVC: 1:2 VIX %.4f not >=5%% over no VIX %.4f", topo, vcs, vix, no)
			}
		}
	}
	// Buffer-reduction claim: 4 VCs with VIX beats 6 VCs without, on the
	// mesh, by a clear margin.
	if v4, n6 := get("mesh8x8", 4, "1:2 VIX"), get("mesh8x8", 6, "no VIX"); v4 < 1.05*n6 {
		t.Errorf("mesh: 4VC VIX %.4f not >=5%% over 6VC baseline %.4f", v4, n6)
	}
}

// TestParamsValidate: the defaults and a zero warm-up pass; each field a
// figure cannot be measured without is named when it is out of range.
func TestParamsValidate(t *testing.T) {
	ok := DefaultParams()
	ok.Warmup = 0
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	bad := Params{VCs: 0, BufDepth: 0, PacketSize: 0, Warmup: -1, Measure: 0}
	var ve config.ValidationError
	if err := bad.Validate(); !errors.As(err, &ve) {
		t.Fatalf("Validate() = %v, want a config.ValidationError", err)
	}
	var fields []string
	for _, fe := range ve {
		fields = append(fields, fe.Field)
	}
	if want := []string{"vcs", "buf_depth", "packet_size", "warmup", "measure"}; !reflect.DeepEqual(fields, want) {
		t.Errorf("rejected fields = %v, want %v", fields, want)
	}
}

func TestTablesReexported(t *testing.T) {
	if len(Table1()) != 6 {
		t.Error("Table1 rows != 6")
	}
	if len(Table3()) != 3 {
		t.Error("Table3 rows != 3")
	}
}

func TestNetworkSchemes(t *testing.T) {
	s := NetworkSchemes()
	if len(s) != 4 {
		t.Fatalf("schemes = %d, want 4", len(s))
	}
	if s[3].Label != "VIX" || s[3].K != 2 {
		t.Fatalf("VIX scheme misconfigured: %+v", s[3])
	}
}

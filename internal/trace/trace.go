// Package trace provides the application-workload substrate for the
// paper's Section 4.7 study: a catalog of the 35 benchmarks (SPEC
// CPU2006, SPEC2000 and SPLASH codes, and the four commercial traces sap,
// tpcw, sjbb, sjas), the eight multiprogrammed mixes of Table 4, and a
// synthetic memory-reference generator.
//
// The paper drives a trace-driven manycore simulator with proprietary
// application traces; those are not redistributable, so this package
// substitutes a statistical trace model (see DESIGN.md, "Substitutions").
// The only per-benchmark statistic Table 4 reports is the combined
// L1+L2 misses-per-kilo-instruction, which is also the statistic that
// determines how hard an application drives the on-chip network. Each
// catalog entry carries an MPKI calibrated so that every Table 4 mix
// reproduces the paper's published average MPKI exactly; the generator
// emits exponentially spaced misses at that rate.
package trace

import (
	"fmt"
	"sort"

	"vix/internal/sim"
)

// App is one benchmark's traffic-relevant characterisation.
type App struct {
	Name string
	// L1MPKI is misses per kilo-instruction out of the private L1 (these
	// travel to an L2 bank); L2MPKI is the subset that also misses the
	// shared L2 (these travel onward to a memory controller). The paper
	// reports their sum per benchmark; the 70/30 split is a modelling
	// choice documented in DESIGN.md.
	L1MPKI float64
	L2MPKI float64
}

// MPKI returns the combined L1+L2 MPKI, the statistic Table 4 reports.
func (a App) MPKI() float64 { return a.L1MPKI + a.L2MPKI }

// l1Share is the fraction of the combined MPKI attributed to L1 misses
// that hit in the L2.
const l1Share = 0.7

// app constructs a catalog entry from a combined MPKI.
func app(name string, mpki float64) App {
	return App{Name: name, L1MPKI: mpki * l1Share, L2MPKI: mpki * (1 - l1Share)}
}

// Catalog returns the 35-benchmark suite. The 26 benchmarks that appear
// in Table 4's mixes carry MPKI values calibrated (by iterative
// proportional fitting) so each mix's average matches the paper; the
// remaining nine use typical published values.
func Catalog() []App {
	return []App{
		// Mix members, calibrated to Table 4.
		app("milc", 38.94),
		app("applu", 25.10),
		app("astar", 14.60),
		app("sjeng", 1.61),
		app("tonto", 2.48),
		app("hmmer", 6.45),
		app("sjas", 36.62),
		app("gcc", 5.21),
		app("sjbb", 33.14),
		app("gromacs", 2.02),
		app("xalan", 50.01),
		app("libquantum", 50.05),
		app("barnes", 14.50),
		app("tpcw", 79.55),
		app("povray", 0.72),
		app("swim", 50.19),
		app("leslie", 38.34),
		app("omnet", 44.81),
		app("art", 46.41),
		app("lbm", 55.03),
		app("Gems", 69.09),
		app("mcf", 176.26),
		app("ocean", 18.60),
		app("deal", 9.30),
		app("sap", 44.36),
		app("namd", 2.61),
		// Suite members outside the published mixes.
		app("bzip2", 3.10),
		app("perlbench", 1.20),
		app("gobmk", 1.00),
		app("h264ref", 1.50),
		app("soplex", 29.00),
		app("sphinx3", 13.00),
		app("zeusmp", 6.00),
		app("cactus", 5.00),
		app("bwaves", 19.00),
	}
}

// ByName returns the catalog entry for name.
func ByName(name string) (App, error) {
	for _, a := range Catalog() {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// MixEntry is one benchmark of a multiprogrammed workload with its
// instance count.
type MixEntry struct {
	App       string
	Instances int
}

// Mix is one Table 4 workload: six unique applications whose instance
// counts sum to the 64 cores.
type Mix struct {
	Name    string
	Entries []MixEntry
	// PaperMPKI and PaperSpeedup are the published Table 4 values
	// (average per-core MPKI; VIX speedup over baseline IF).
	PaperMPKI    float64
	PaperSpeedup float64
}

// Mixes returns the eight multiprogrammed workloads of Table 4.
func Mixes() []Mix {
	return []Mix{
		{"Mix1", []MixEntry{{"milc", 11}, {"applu", 11}, {"astar", 10}, {"sjeng", 11}, {"tonto", 11}, {"hmmer", 10}}, 15.0, 1.03},
		{"Mix2", []MixEntry{{"sjas", 11}, {"gcc", 11}, {"sjbb", 11}, {"gromacs", 11}, {"sjeng", 10}, {"xalan", 10}}, 21.3, 1.03},
		{"Mix3", []MixEntry{{"milc", 11}, {"libquantum", 10}, {"astar", 11}, {"barnes", 11}, {"tpcw", 11}, {"povray", 10}}, 33.3, 1.04},
		{"Mix4", []MixEntry{{"astar", 11}, {"swim", 11}, {"leslie", 10}, {"omnet", 10}, {"sjas", 11}, {"art", 11}}, 38.4, 1.05},
		{"Mix5", []MixEntry{{"applu", 11}, {"lbm", 11}, {"Gems", 11}, {"barnes", 10}, {"xalan", 11}, {"leslie", 10}}, 42.5, 1.05},
		{"Mix6", []MixEntry{{"mcf", 11}, {"ocean", 10}, {"gromacs", 10}, {"lbm", 11}, {"deal", 11}, {"sap", 11}}, 52.2, 1.05},
		{"Mix7", []MixEntry{{"mcf", 10}, {"namd", 11}, {"hmmer", 11}, {"tpcw", 11}, {"omnet", 10}, {"swim", 11}}, 58.4, 1.06},
		// The published Mix8 instance counts sum to 63; sap is listed
		// here with 11 instances instead of 10 to fill all 64 cores
		// (an apparent typo in the paper's Table 4).
		{"Mix8", []MixEntry{{"Gems", 10}, {"sjbb", 11}, {"sjas", 11}, {"mcf", 10}, {"xalan", 11}, {"sap", 11}}, 66.9, 1.07},
	}
}

// Cores returns the total instance count of the mix.
func (m Mix) Cores() int {
	n := 0
	for _, e := range m.Entries {
		n += e.Instances
	}
	return n
}

// AvgMPKI returns the instance-weighted average combined MPKI of the mix,
// the statistic of Table 4's "avg. MPKI" column.
func (m Mix) AvgMPKI() (float64, error) {
	var sum float64
	var n int
	for _, e := range m.Entries {
		a, err := ByName(e.App)
		if err != nil {
			return 0, err
		}
		sum += a.MPKI() * float64(e.Instances)
		n += e.Instances
	}
	return sum / float64(n), nil
}

// Assign maps the mix onto cores: core i runs Assign(i). The assignment
// interleaves applications round-robin so instances of one benchmark
// spread across the chip, as multiprogrammed scheduling would.
func (m Mix) Assign(cores int) ([]App, error) {
	if m.Cores() != cores {
		return nil, fmt.Errorf("trace: mix %s has %d instances for %d cores", m.Name, m.Cores(), cores)
	}
	remaining := make([]int, len(m.Entries))
	apps := make([]App, len(m.Entries))
	for i, e := range m.Entries {
		remaining[i] = e.Instances
		a, err := ByName(e.App)
		if err != nil {
			return nil, err
		}
		apps[i] = a
	}
	out := make([]App, 0, cores)
	for len(out) < cores {
		for i := range m.Entries {
			if remaining[i] > 0 {
				out = append(out, apps[i])
				remaining[i]--
			}
		}
	}
	return out, nil
}

// DefaultBurstiness is the mean number of misses per burst. Cache misses
// cluster (a line of pointer chases, a streaming phase), so synthetic
// traces emit geometric bursts of back-to-back misses separated by long
// exponential gaps; the long-run miss rate still matches the app's MPKI.
const DefaultBurstiness = 4.0

// intraBurstGap is the instruction spacing of misses inside a burst.
const intraBurstGap = 2.0

// Generator produces a synthetic memory-reference stream for one core:
// the instruction distance to each successive L1 miss, and whether that
// miss also misses the L2.
type Generator struct {
	app App
	rng *sim.RNG
	// left counts the remaining misses of the current burst.
	left int
}

// NewGenerator returns a trace generator for the app, seeded
// deterministically from the provided stream.
func NewGenerator(a App, rng *sim.RNG) *Generator {
	return &Generator{app: a, rng: rng}
}

// App returns the generator's benchmark.
func (g *Generator) App() App { return g.app }

// NextMiss returns the number of instructions until the next L1 miss and
// whether it also misses in the shared L2. Misses arrive in geometric
// bursts with mean length DefaultBurstiness; the inter-burst gap is sized
// so the long-run rate equals L1MPKI misses per kilo-instruction.
func (g *Generator) NextMiss() (instructions float64, l2Miss bool) {
	if g.app.L1MPKI <= 0 {
		// Effectively no misses: one per hundred million instructions.
		return 1e8, false
	}
	l2 := g.rng.Bernoulli(g.app.L2MPKI / g.app.L1MPKI)
	if g.left > 0 {
		g.left--
		return intraBurstGap, l2
	}
	// Start a new burst: geometric length with mean DefaultBurstiness.
	n := 1
	for g.rng.Bernoulli(1 - 1/DefaultBurstiness) {
		n++
	}
	g.left = n - 1
	// Mean instructions per miss must stay 1000/L1MPKI:
	// (interMean + (burst-1)*intraGap) / burst = 1000/L1MPKI.
	interMean := DefaultBurstiness*(1000/g.app.L1MPKI) - (DefaultBurstiness-1)*intraBurstGap
	if interMean < 1 {
		interMean = 1
	}
	gap := g.rng.Exp(interMean)
	if gap < 1 {
		gap = 1
	}
	return gap, l2
}

// Names returns all catalog benchmark names, sorted.
func Names() []string {
	cat := Catalog()
	names := make([]string, len(cat))
	for i, a := range cat {
		names[i] = a.Name
	}
	sort.Strings(names)
	return names
}

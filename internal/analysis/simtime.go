package analysis

import (
	"go/types"
)

// wallClockFuncs are the package time functions that read or wait on the
// wall clock. Referencing any of them from internal/ breaks bit-for-bit
// reproducibility: every simulated component must take sim.Time
// explicitly. Pure conversions (time.Duration arithmetic, d.Microseconds)
// stay legal.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"Since":     true,
	"Until":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// SimTime forbids wall-clock time in internal/ packages. The paper's
// attack compares counter traces across runs; one nondeterministic
// timestamp desynchronizes every downstream delta, so simulated code must
// flow all time through the deterministic sim.Time clock. No internal/
// package reads the wall clock, and the waiver ledger budgets no simtime
// waiver: real computation cost, such as Fig 25's per-inference time, is
// timed in tests, benchmarks and commands, which this check never loads.
//
// Only this check catches adding
// time.Sleep(time.Duration(policy.BackoffAt(attempt)) * time.Microsecond)
// to NewSamplerTaxonomy's reservation retry, which makes every faulted
// reservation wait out its backoff in real time: TestRepoClean (which
// runs this suite) is the one test that fails.
var SimTime = &Analyzer{
	Name:    "simtime",
	Doc:     "forbid wall-clock time.Now/Sleep/Since/Tick/... in internal/ packages; use sim.Time",
	Applies: isInternalPath,
	Run:     runSimTime,
}

func runSimTime(p *Pass) {
	for id, obj := range p.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			continue
		}
		if wallClockFuncs[fn.Name()] {
			p.Reportf(id.Pos(), "time.%s reads the wall clock: internal/ code must use the deterministic sim.Time clock; time real costs in a test, benchmark or command", fn.Name())
		}
	}
}

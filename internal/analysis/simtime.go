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
// flow all time through the deterministic sim.Time clock. Intentional
// wall-clock use (e.g. measuring the attacker's own computation cost,
// Fig 25) carries a //gpuvet:ignore simtime justification.
var SimTime = &Analyzer{
	Name:     "simtime",
	Category: "determinism",
	Doc:      "forbid wall-clock time.Now/Sleep/Since/Tick/... in internal/ packages; use sim.Time",
	Applies:  isInternalPath,
	Run:      runSimTime,
}

func runSimTime(p *Pass) {
	for id, obj := range p.Pkg.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
			continue
		}
		if wallClockFuncs[fn.Name()] {
			p.Reportf(id.Pos(), "time.%s reads the wall clock: internal/ code must use the deterministic sim.Time clock (//gpuvet:ignore simtime -- <why> if intentional)", fn.Name())
		}
	}
}

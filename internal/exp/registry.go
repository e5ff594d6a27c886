package exp

import (
	"errors"
	"fmt"
)

// ErrUnknownExperiment reports an experiment ID absent from the registry.
// Match with errors.Is; errors returned by Run wrap it together with the
// offending ID.
var ErrUnknownExperiment = errors.New("exp: unknown experiment")

// Runner executes one experiment.
type Runner func(Options) (*Result, error)

// Experiment couples a paper artifact with its regenerator.
type Experiment struct {
	ID    string
	Paper string // what the paper reports
	Run   Runner
}

// All lists every reproducible table and figure, in paper order, followed
// by the ablations.
var All = []Experiment{
	{"fig5", "per-key PC deltas are unique and repeatable; idle counters are flat", RunFig5},
	{"fig6", "per-key clusters separate in counter space", RunFig6},
	{"fig11", "of 3485 presses: 633 duplication, 316 split, 21 noise (~28% affected)", RunFig11},
	{"fig12", "learned noise signatures never classify as key presses", RunFig12},
	{"fig13", "app switches produce <50ms bursts; detection gates eavesdropping", RunFig13},
	{"fig14", "echo redraws step the LRZ prim counter by exactly +/-2 per character", RunFig14},
	{"fig16", "volunteer typing durations/intervals are heterogeneous", RunFig16},
	{"fig17", "text accuracy >75% for lengths 8-16 (avg 81.3%); per-key 98.3%", RunFig17},
	{"fig18", "per-key accuracy; errors concentrate on a few keys", RunFig18},
	{"table2", "prior work on desktop workload counters: 8.7-14.2%", RunTable2},
	{"fig19", "all nine target apps above ~80% accuracy", RunFig19},
	{"fig20", "six keyboards within a few percent of each other", RunFig20},
	{"fig21", "slow typing lowers text accuracy; per-key accuracy flat; errors <1.3", RunFig21},
	{"fig22", "CPU<50%/GPU<25% negligible; 75% load drops accuracy toward 60%", RunFig22},
	{"fig23", "12ms sampling costs ~20% text accuracy; 120Hz needs 4ms", RunFig23},
	{"fig24", "similar accuracy across GPUs, resolutions, models, OS versions", RunFig24},
	{"fig26", "at most ~4% extra battery after 2h", RunFig26},
	{"fig27", "practical sessions interleave typing with corrections, switches, glances", RunFig27},
	{"fig28", "practical sessions: per-key 97.1%, trace 78.0%", RunFig28},
	{"fig29", "PNC login animation drops accuracy to ~30%", RunFig29},
	{"modelsize", "one model ~3.59kB; 3000 models <= 13.4MB", RunModelSize},
	{"sec9", "defense matrix: popup disabling leaks length; RBAC blocks; obfuscation trades GPU cost", RunSec9Defenses},
	{"guessing", "single errors are fixable with a small number of guesses (§7.1)", RunGuessing},
	{"transfer", "cross-device model transfer collapses: why §3.2 trains per configuration", RunTransfer},
	{"ablation-dedup", "Ti=75ms balances duplication suppression vs fast typing", RunAblationDedup},
	{"ablation-split", "split combining recovers fragmented key presses", RunAblationSplit},
	{"ablation-threshold", "Cth trades rejected presses vs admitted noise", RunAblationThreshold},
	{"ablation-counters", "counter groups differ sharply; LRZ carries the most signal", RunAblationCounterSet},
	{"ablation-corrections", "correction tracking recovers backspaced credentials", RunAblationCorrections},
	{"ablation-greedy", "whole-trace segmentation trades timeliness for accuracy (§5.1)", RunAblationGreedyVsOffline},
	{"chaos", "injected device faults degrade accuracy monotonically, never availability", RunChaos},
	{"fusion", "multi-channel fusion beats the best single channel under CPU starvation", RunFusion},
	{"arms", "defense frontier: composable defenses trade attacker accuracy against platform overhead", RunArms},
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run looks an experiment up by ID and executes it, returning an error
// wrapping ErrUnknownExperiment for IDs absent from the registry.
func Run(id string, o Options) (*Result, error) {
	e, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
	}
	return e.Run(o)
}

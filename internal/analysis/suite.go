package analysis

import "slices"

// suite is every check in presentation order: the order -list prints,
// the SARIF exporter registers rules in, and README documents. Findings
// themselves are always position-sorted, so this order never affects
// gating — only how humans read the rule table.
var suite = []*Analyzer{
	SimTime,
	CtxFlow,
	DetMap,
	CounterGroup,
	FloatEq,
	LockCheck,
	IoctlSize,
	ObsEvent,
	ErrTaxonomy,
	DocCheck,
}

// DefaultAnalyzers returns every check in presentation order.
func DefaultAnalyzers() []*Analyzer { return slices.Clone(suite) }

package analysis

import "slices"

// suite is every check in presentation order: the order README
// documents. Findings themselves are always position-sorted,
// so this order never affects gating — only how humans read the table.
var suite = []*Analyzer{
	SimTime,
	CtxFlow,
	DetMap,
	FloatEq,
	LockCheck,
	ObsEvent,
	ErrTaxonomy,
	DocCheck,
}

// DefaultAnalyzers returns every check in presentation order.
func DefaultAnalyzers() []*Analyzer { return slices.Clone(suite) }

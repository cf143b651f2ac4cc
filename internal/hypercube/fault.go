package hypercube

import "repro/internal/engine"

// The fault-injection machinery lives in internal/engine, and every
// caller in this module names it there. These seven aliases remain
// only because the benchmark module (perfbench/) imports them from
// this package.

type (
	FaultKind  = engine.FaultKind
	FaultEvent = engine.FaultEvent
	FaultPlan  = engine.FaultPlan
)

const (
	FaultKillForever = engine.FaultKillForever
	PhaseDispatch    = engine.PhaseDispatch
)

// NewFaultPlan validates the events and returns a plan.
func NewFaultPlan(events ...FaultEvent) (*FaultPlan, error) {
	return engine.NewFaultPlan(events...)
}

// RandomFaultPlan derives a plan of n transient kill faults from its
// own seeded generator; the same seed always yields the same plan.
func RandomFaultPlan(seed int64, sweeps, ranks, n int) *FaultPlan {
	return engine.RandomFaultPlan(seed, sweeps, ranks, n)
}

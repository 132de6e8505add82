package metrics

import "semholo/internal/obs"

// Registerer is the uniform hookup every counter bundle in this package
// implements: wire yourself into the shared observability registry as
// pull-backed series. ReconCounters satisfies it, as does anything else
// with the same Register(reg) shape — the
// convention every cmd follows so one /metrics scrape exposes the whole
// process.
type Registerer interface {
	Register(reg *obs.Registry)
}

// RegisterAll wires every bundle into reg in order. Nil bundles and a
// nil registry are no-ops, matching the nil-safety of the underlying
// Register methods, so call sites can pass optional counters without
// guards.
func RegisterAll(reg *obs.Registry, bundles ...Registerer) {
	if reg == nil {
		return
	}
	for _, b := range bundles {
		if b != nil {
			b.Register(reg)
		}
	}
}

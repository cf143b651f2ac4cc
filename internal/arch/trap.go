package arch

import "fmt"

// Node-level exception handling configuration (§2: the central
// sequencer's "elaborate interrupt scheme"). The simulator detects
// IEEE-754 exception conditions per functional-unit application,
// models single/double-bit memory-plane ECC events and a sequencer
// watchdog; what happens when one of those conditions arises is a
// per-environment *policy*, configured here and consulted by the run
// layer on every dispatch.

// TrapPolicy selects how a node reacts to a detected exception.
type TrapPolicy int

const (
	// TrapOff disables policy-driven detection: only instructions whose
	// microcode trap bit (Seq.Trap) is set abort on non-finite results,
	// exactly the hardware-faithful seed behaviour. Zero value.
	TrapOff TrapPolicy = iota
	// TrapHalt stops the instruction at the first exception with a
	// structured error naming the unit, element and cycle.
	TrapHalt
	// TrapRetry re-dispatches the faulted instruction up to
	// TrapConfig.MaxRetries times, pricing every attempt and its
	// exponential backoff in simulated cycles. Transient faults (an
	// expired ECC event) recover to bit-identical results; persistent
	// ones (a deterministic 0/0) exhaust the budget and halt.
	TrapRetry
	// TrapQuietNaN records the exception and continues: invalid results
	// stream on as quiet NaNs, uncorrectable ECC reads are substituted
	// with NaN, and the trap counters keep score.
	TrapQuietNaN
)

// String returns the policy's flag spelling.
func (p TrapPolicy) String() string {
	switch p {
	case TrapOff:
		return "off"
	case TrapHalt:
		return "halt"
	case TrapRetry:
		return "retry"
	case TrapQuietNaN:
		return "quiet"
	}
	return fmt.Sprintf("TrapPolicy(%d)", int(p))
}

// ParseTrapPolicy parses the nscsim -trap-policy spelling.
func ParseTrapPolicy(s string) (TrapPolicy, error) {
	switch s {
	case "", "off":
		return TrapOff, nil
	case "halt":
		return TrapHalt, nil
	case "retry":
		return TrapRetry, nil
	case "quiet", "quietnan":
		return TrapQuietNaN, nil
	}
	return TrapOff, fmt.Errorf("arch: trap policy %q: want off, halt, retry or quiet", s)
}

// TrapConfig is one node's exception-handling configuration. The zero
// value (policy off, no watchdog) reproduces the seed simulator
// exactly and charges zero extra simulated cycles.
type TrapConfig struct {
	Policy TrapPolicy
	// MaxRetries bounds re-dispatches under TrapRetry (0 means
	// DefaultTrapRetries).
	MaxRetries int
	// RetryBackoffCycles is the base simulated-cycle penalty of a
	// re-dispatch; it doubles per attempt up to MaxBackoffCycles.
	// Zero fields take the defaults below.
	RetryBackoffCycles int64
	MaxBackoffCycles   int64
	// WatchdogCycles, when positive, arms the sequencer watchdog: an
	// instruction whose drain point (plus issue overhead) exceeds this
	// budget raises a watchdog trap — fatal under TrapHalt, an alarm
	// interrupt under every other policy.
	WatchdogCycles int64
}

// Default trap-retry parameters, mirroring the hypercube link layer's
// retry policy so node- and link-level recovery price time alike.
const (
	DefaultTrapRetries       = 3
	DefaultTrapBackoffCycles = 64
	DefaultTrapBackoffCap    = 4096
)

// WithDefaults fills zero retry fields with the defaults.
func (tc TrapConfig) WithDefaults() TrapConfig {
	if tc.MaxRetries == 0 {
		tc.MaxRetries = DefaultTrapRetries
	}
	if tc.RetryBackoffCycles == 0 {
		tc.RetryBackoffCycles = DefaultTrapBackoffCycles
	}
	if tc.MaxBackoffCycles == 0 {
		tc.MaxBackoffCycles = DefaultTrapBackoffCap
	}
	return tc
}

// Backoff returns the simulated-cycle penalty of retry `attempt`
// (0-based): base·2^attempt, capped at limit. Trap retries on a node
// and the engine's fault retries share this schedule.
func Backoff(base, limit int64, attempt int) int64 {
	b := base
	for i := 0; i < attempt && b < limit; i++ {
		b <<= 1
	}
	return min(b, limit)
}

// Armed reports whether the policy performs exception detection.
func (tc TrapConfig) Armed() bool { return tc.Policy != TrapOff }

package arch

import "testing"

func TestParseTrapPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want TrapPolicy
		ok   bool
	}{
		{"", TrapOff, true},
		{"off", TrapOff, true},
		{"halt", TrapHalt, true},
		{"retry", TrapRetry, true},
		{"quiet", TrapQuietNaN, true},
		{"quietnan", TrapQuietNaN, true},
		{"explode", TrapOff, false},
		{"HALT", TrapOff, false},
	} {
		got, err := ParseTrapPolicy(tc.in)
		if (err == nil) != tc.ok {
			t.Errorf("ParseTrapPolicy(%q) err = %v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseTrapPolicy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestTrapPolicyStringRoundTrip(t *testing.T) {
	for _, p := range []TrapPolicy{TrapOff, TrapHalt, TrapRetry, TrapQuietNaN} {
		got, err := ParseTrapPolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v: got %v, err %v", p, got, err)
		}
	}
	if TrapPolicy(99).String() == "" {
		t.Error("unknown policy has empty String")
	}
}

func TestTrapConfigDefaultsAndBackoff(t *testing.T) {
	tc := TrapConfig{Policy: TrapRetry}.WithDefaults()
	if tc.MaxRetries != DefaultTrapRetries ||
		tc.RetryBackoffCycles != DefaultTrapBackoffCycles ||
		tc.MaxBackoffCycles != DefaultTrapBackoffCap {
		t.Fatalf("defaults not filled: %+v", tc)
	}
	// Exponential, capped.
	if b := Backoff(tc.RetryBackoffCycles, tc.MaxBackoffCycles, 0); b != 64 {
		t.Errorf("backoff(0) = %d", b)
	}
	if b := Backoff(tc.RetryBackoffCycles, tc.MaxBackoffCycles, 3); b != 512 {
		t.Errorf("backoff(3) = %d", b)
	}
	if b := Backoff(tc.RetryBackoffCycles, tc.MaxBackoffCycles, 20); b != DefaultTrapBackoffCap {
		t.Errorf("backoff(20) = %d, want cap %d", b, DefaultTrapBackoffCap)
	}
	// Explicit fields survive.
	tc2 := TrapConfig{MaxRetries: 7, RetryBackoffCycles: 10, MaxBackoffCycles: 15}.WithDefaults()
	if tc2.MaxRetries != 7 || tc2.RetryBackoffCycles != 10 || tc2.MaxBackoffCycles != 15 {
		t.Errorf("explicit fields overwritten: %+v", tc2)
	}
	if b := Backoff(tc2.RetryBackoffCycles, tc2.MaxBackoffCycles, 4); b != 15 {
		t.Errorf("custom cap backoff = %d", b)
	}
}

func TestTrapConfigArmed(t *testing.T) {
	if (TrapConfig{}).Armed() {
		t.Error("zero config reports armed")
	}
	for _, p := range []TrapPolicy{TrapHalt, TrapRetry, TrapQuietNaN} {
		if !(TrapConfig{Policy: p}).Armed() {
			t.Errorf("policy %v not armed", p)
		}
	}
}

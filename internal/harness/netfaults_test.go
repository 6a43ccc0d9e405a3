package harness

import (
	"testing"
	"time"

	"bento/internal/netstore"
)

// TestNetfaultCondsStoreConfig pins what each published fault condition
// hands the object store: the fault recipe and the object-store entries
// of the cost model. The expected values were recorded from the
// options-field form this table replaced (per-field Net* overrides plus
// two tuning hooks), so the conditions mean what their baseline cells
// were measured under.
func TestNetfaultCondsStoreConfig(t *testing.T) {
	const us, ms = time.Microsecond, time.Millisecond
	want := []struct {
		name                    string
		faults                  netstore.FaultConfig
		get, flush, per4K       time.Duration
		backoffBase, backoffCap time.Duration
	}{
		{"clean", netstore.FaultConfig{Seed: 101},
			500 * us, 2 * ms, 12800, 200 * us, 5 * ms},
		{"lossy-lan", netstore.FaultConfig{Seed: 102, ErrProb: 0.02, TailMult: 4},
			500 * us, 2 * ms, 12800, 200 * us, 5 * ms},
		{"lossy-wan", netstore.FaultConfig{Seed: 103, ErrProb: 0.05, TailMult: 4},
			20 * ms, 80 * ms, 51200, 200 * us, 5 * ms},
		{"outage-recovery", netstore.FaultConfig{Seed: 104, MaxAttempts: 2, BreakerK: 2},
			500 * us, 2 * ms, 12800, 50 * us, 200 * us},
	}
	if len(netfaultConds) != len(want) {
		t.Fatalf("%d conditions, want %d", len(netfaultConds), len(want))
	}
	base := Quick()
	for i, c := range netfaultConds {
		w := want[i]
		o := c.options(base)
		if c.name != w.name || o.Backend != BackendNetstore {
			t.Errorf("condition %d is %s on backend %q, want %s on %s", i, c.name, o.Backend, w.name, BackendNetstore)
		}
		if o.Faults != w.faults {
			t.Errorf("%s: faults %+v, want %+v", c.name, o.Faults, w.faults)
		}
		m := o.Model
		if m.NetGetBase != w.get || m.NetPutBase != w.get || m.NetFlushBase != w.flush || m.NetPer4K != w.per4K {
			t.Errorf("%s: GET/PUT/FLUSH/per-4K = %v/%v/%v/%v, want %v/%v/%v/%v", c.name,
				m.NetGetBase, m.NetPutBase, m.NetFlushBase, m.NetPer4K, w.get, w.get, w.flush, w.per4K)
		}
		if m.NetBackoffBase != w.backoffBase || m.NetBackoffCap != w.backoffCap {
			t.Errorf("%s: back-off %v/%v, want %v/%v", c.name, m.NetBackoffBase, m.NetBackoffCap, w.backoffBase, w.backoffCap)
		}
		// Everything else is the base model's, and the base is untouched.
		if m.NetHedgeMult != 3 || m.NetTimeoutMult != 6 || m.NetChannels != 16 {
			t.Errorf("%s: hedge/timeout/channels = %d/%d/%d, want 3/6/16", c.name, m.NetHedgeMult, m.NetTimeoutMult, m.NetChannels)
		}
	}
	if d := Quick().Model; *base.Model != *d {
		t.Error("deriving a condition's options wrote through to the shared base model")
	}
}

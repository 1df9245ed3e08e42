package experiment

import "testing"

// TestPartitionHeal is the acceptance check for the self-healing overlay:
// the SHB↔PHB link is severed five times mid-stream and every durable
// subscriber must still see every event exactly once in timestamp order.
func TestPartitionHeal(t *testing.T) {
	res, err := RunPartitionHeal(t.TempDir(), PartitionHealParams{Severs: 5, Seed: 7})
	if err != nil {
		t.Fatalf("partition-heal: %v (%+v)", err, res)
	}
	if res.Reconnects < uint64(res.Severs) {
		t.Fatalf("expected >= %d supervised reconnects, got %d", res.Severs, res.Reconnects)
	}
	if res.MaxHeal <= 0 {
		t.Fatalf("expected nonzero heal times, got %+v", res)
	}
	if res.Verdict.Err() != nil {
		t.Fatalf("delivery contract broken: %+v", res)
	}
}

package experiment

import (
	"testing"
	"time"

	"repro/internal/filter"
	"repro/internal/message"
	"repro/internal/overlay"
	"repro/internal/vtime"
)

// TestVerdictFlagsEachFault feeds the judge synthetic per-subscriber
// stats: each fault alone must fail the verdict, and a gap passes only
// where the scenario declares gaps expected.
func TestVerdictFlagsEachFault(t *testing.T) {
	clean := Tally{Expected: 10, Received: 10}
	for _, tc := range []struct {
		name         string
		fault        Tally
		gapsExpected bool
		wantErr      bool
	}{
		{"clean", clean, false, false},
		{"lost", Tally{Expected: 10, Received: 9}, false, true},
		{"duplicate", Tally{Expected: 10, Received: 10, Violations: 1}, false, true},
		{"reorder", Tally{Expected: 10, Received: 9, Violations: 1}, false, true},
		{"undeclared gap", Tally{Expected: 10, Received: 10, Gaps: 1}, false, true},
		{"declared gap", Tally{Expected: 10, Received: 4, Gaps: 1}, true, false},
		{"lost without the declared gap", Tally{Expected: 10, Received: 4}, true, true},
		{"spurious", Tally{Expected: 10, Received: 10, Spurious: 1}, false, true},
		{"spurious beside a declared gap", Tally{Expected: 10, Received: 4, Spurious: 1, Gaps: 1}, true, true},
	} {
		v := judge([]Tally{clean, tc.fault}, tc.gapsExpected)
		if err := v.Err(); (err != nil) != tc.wantErr {
			t.Errorf("%s: Err() = %v, want error %v (%+v)", tc.name, err, tc.wantErr, v)
		}
	}
	v := judge([]Tally{{Expected: 5, Received: 3, Violations: 2, Gaps: 1}, {Expected: 5, Received: 4, Spurious: 2}}, false)
	if v.Lost != 3 || v.Spurious != 2 || v.Violations != 2 || v.Gaps != 1 {
		t.Errorf("totals = lost %d, spurious %d, violations %d, gaps %d; want 3, 2, 2, 1",
			v.Lost, v.Spurious, v.Violations, v.Gaps)
	}
}

// TestPoolFlagsFaultsFromTheWire drives a real subscriber pool against a
// fake SHB that delivers a scripted stream, so each fault travels the
// client's ordering check and the pool's counting before it is judged.
func TestPoolFlagsFaultsFromTheWire(t *testing.T) {
	evg := func(ts vtime.Timestamp, group int) message.Delivery {
		return message.Delivery{Kind: message.DeliverEvent, Pubend: 1, Timestamp: ts, Event: &message.Event{
			Pubend: 1, Timestamp: ts, Attrs: filter.Attributes{"group": filter.String(groupName(group))}}}
	}
	ev := func(ts vtime.Timestamp) message.Delivery { return evg(ts, 0) }
	// The gap precedes the last event, so it is counted before the pool
	// sees everything it is owed.
	gap := message.Delivery{Kind: message.DeliverGap, Pubend: 1, Timestamp: 1}
	for _, tc := range []struct {
		name     string
		filtered bool // subscribe to group g0 instead of everything
		script   []message.Delivery
		want     [4]int64 // lost, spurious, dup/reorder, gaps
	}{
		{"clean", false, []message.Delivery{ev(1), ev(2), ev(3)}, [4]int64{}},
		{"lost", false, []message.Delivery{ev(1), ev(3)}, [4]int64{1, 0, 0, 0}},
		{"duplicate", false, []message.Delivery{ev(1), ev(2), ev(2), ev(3)}, [4]int64{0, 0, 1, 0}},
		{"reorder", false, []message.Delivery{ev(1), ev(3), ev(2)}, [4]int64{1, 0, 1, 0}},
		{"undeclared gap", false, []message.Delivery{ev(1), gap, ev(2), ev(3)}, [4]int64{0, 0, 0, 1}},
		{"extra event", false, []message.Delivery{ev(1), ev(2), ev(3), ev(4)}, [4]int64{0, 1, 0, 0}},
		{"clean filtered", true, []message.Delivery{ev(1), ev(2), ev(3)}, [4]int64{}},
		{"outside the filter", true, []message.Delivery{ev(1), evg(2, 1), ev(3), ev(4)}, [4]int64{0, 1, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			netw := overlay.NewInprocNetwork(0)
			fakeSHB(t, netw, tc.script)
			pool, err := StartSubscriberPool(netw, []string{"shb"}, PoolOptions{N: 1, AllEvents: !tc.filtered})
			if err != nil {
				t.Fatal(err)
			}
			defer pool.Stop()
			// Give an extra event time to arrive after the owed three.
			time.Sleep(50 * time.Millisecond)
			v := pool.Drain(func(int) int64 { return 3 }, 300*time.Millisecond)
			if got := [4]int64{v.Lost, v.Spurious, v.Violations, v.Gaps}; got != tc.want {
				t.Errorf("verdict lost/spurious/violations/gaps = %v, want %v", got, tc.want)
			}
			if clean := tc.want == [4]int64{}; (v.Err() == nil) != clean {
				t.Errorf("Err() = %v, want clean %v", v.Err(), clean)
			}
		})
	}
}

// fakeSHB listens on "shb", acknowledges every subscription with an empty
// checkpoint and then delivers script in one batch.
func fakeSHB(t *testing.T, netw *overlay.InprocNetwork, script []message.Delivery) {
	t.Helper()
	closer, err := netw.Listen("shb", func(c overlay.Conn) {
		c.Start(func(m message.Message) {
			if s, ok := m.(*message.Subscribe); ok {
				c.Send(&message.SubscribeAck{Subscriber: s.Subscriber, CT: vtime.NewCheckpointToken()}) //nolint:errcheck,gosec // test
				c.Send(&message.Deliver{Subscriber: s.Subscriber, Deliveries: script})                  //nolint:errcheck,gosec // test
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { closer.Close() }) //nolint:errcheck,gosec // test
}

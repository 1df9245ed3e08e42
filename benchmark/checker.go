package main

import (
	"fmt"
	"slices"
)

// published is what the checker knows of one event: its attributes and
// how its publish ended.
type published struct {
	group, price       int
	acked              bool
	pubend             uint32
	ts                 uint64
	sched, sent, ackAt int64 // ns since the benchmark epoch
}

// received is one event delivery as a subscriber saw it.
type received struct {
	id     uint32
	pubend uint32
	ts     uint64
	at     int64 // receipt time, ns since the benchmark epoch
}

// checkResult counts every way the exactly-once contract can be broken.
type checkResult struct {
	Publishes  int `json:"publishes"`
	Unacked    int `json:"unacked"` // failed or never acked
	Expected   int `json:"expected"`
	Delivered  int `json:"delivered"`
	Lost       int `json:"lost"`
	Duplicate  int `json:"duplicate"`
	Reordered  int `json:"reordered"`
	Gapped     int `json:"gapped"`     // skipped events and gap notifications
	Spurious   int `json:"spurious"`   // not matching, or never acked
	Mismatched int `json:"mismatched"` // pubend/timestamp differs from the ack
}

func (c checkResult) attempted() int { return c.Publishes + c.Expected }

func (c checkResult) failed() int {
	return c.Unacked + c.Lost + c.Duplicate + c.Reordered + c.Gapped + c.Spurious + c.Mismatched
}

func (c checkResult) String() string {
	return fmt.Sprintf("publishes=%d unacked=%d expected=%d delivered=%d lost=%d dup=%d reordered=%d gapped=%d spurious=%d mismatched=%d",
		c.Publishes, c.Unacked, c.Expected, c.Delivered, c.Lost, c.Duplicate, c.Reordered, c.Gapped, c.Spurious, c.Mismatched)
}

// expectedIDs lists, per subscriber and in id order, the acked events its
// filter matches, evaluated with the plain-Go predicate.
func expectedIDs(events []published, filters []subFilter) [][]uint32 {
	byGroup := make([][]int, numGroups)
	for s, f := range filters {
		byGroup[f.group] = append(byGroup[f.group], s)
	}
	out := make([][]uint32, len(filters))
	for id, e := range events {
		if !e.acked {
			continue
		}
		for _, s := range byGroup[e.group] {
			if filters[s].match(e.group, e.price) {
				out[s] = append(out[s], uint32(id))
			}
		}
	}
	return out
}

// check compares what each subscriber received (in receipt order), and the
// gap notifications it got, against what it should have received.
func check(events []published, filters []subFilter, logs [][]received, gapNotes []int) checkResult {
	var c checkResult
	c.Publishes = len(events)
	for _, e := range events {
		if !e.acked {
			c.Unacked++
		}
	}
	want := expectedIDs(events, filters)
	for s := range filters {
		c.Expected += len(want[s])
		c.Delivered += len(logs[s])
		c.Gapped += gapNotes[s]
		checkOne(&c, events, filters[s], want[s], logs[s])
	}
	return c
}

func checkOne(c *checkResult, events []published, f subFilter, want []uint32, log []received) {
	maxTS := map[uint32]uint64{}
	for _, r := range log {
		if r.ts < maxTS[r.pubend] {
			c.Reordered++
		} else {
			maxTS[r.pubend] = r.ts
		}
	}
	ids := make([]uint32, len(log))
	for i, r := range log {
		ids[i] = r.id
		if int(r.id) >= len(events) {
			c.Spurious++
			continue
		}
		e := events[r.id]
		switch {
		case !e.acked || !f.match(e.group, e.price):
			c.Spurious++
		case e.pubend != r.pubend || e.ts != r.ts:
			c.Mismatched++
		}
	}
	slices.Sort(ids)
	got := ids[:0]
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			c.Duplicate++
			continue
		}
		got = append(got, id)
	}
	// Merge the sorted expected and received id lists; an expected event
	// missing below a later delivery on its pubend was skipped (gapped),
	// one missing past the last delivery was lost.
	j := 0
	for _, id := range want {
		for j < len(got) && got[j] < id {
			j++
		}
		if j < len(got) && got[j] == id {
			continue
		}
		e := events[id]
		if e.ts < maxTS[e.pubend] {
			c.Gapped++
		} else {
			c.Lost++
		}
	}
}

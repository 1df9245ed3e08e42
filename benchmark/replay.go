package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/logvol"
	"repro/internal/matchidx"
	"repro/internal/message"
	"repro/internal/metastore"
	"repro/internal/pfs"
	"repro/internal/tick"
	"repro/internal/vtime"
)

// Replays time a layer's public functions directly on the workload's own
// generated inputs (same seed), away from the rest of the tree. They write
// to scratch directories under dir only.

// replayEvents builds n of the workload's events as a pubend would stamp
// them: round-robin over the pubends with increasing timestamps.
func replayEvents(seed int64, n int) []*message.Event {
	out := make([]*message.Event, n)
	for i := range out {
		g, p := attrsOf(seed, uint64(i))
		ev := newEvent(uint32(i), g, p)
		ev.Pubend = vtime.PubendID(i%numPubends + 1)
		ev.Timestamp = vtime.Timestamp(1000 + i)
		out[i] = &ev
	}
	return out
}

// perOp times fn over n operations, best of reps runs, in ns per op.
func perOp(n, reps int, fn func(i int)) float64 {
	best := 0.0
	for r := 0; r < reps; r++ {
		t := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		ns := float64(time.Since(t).Nanoseconds()) / float64(n)
		if r == 0 || ns < best {
			best = ns
		}
	}
	return best
}

const replayN = 4096

// replayMessage times Encode and DecodeShared of one-event knowledge
// frames, the broker-to-broker event carrier.
func replayMessage(seed int64) (encodeNS, decodeNS float64, err error) {
	evs := replayEvents(seed, replayN)
	frames := make([][]byte, len(evs))
	for i, ev := range evs {
		if frames[i], err = message.Encode(nil, &message.Knowledge{Pubend: ev.Pubend, Events: []*message.Event{ev}}); err != nil {
			return 0, 0, fmt.Errorf("replay encode: %w", err)
		}
	}
	var buf []byte
	encodeNS = perOp(len(evs), 5, func(i int) {
		buf, _ = message.Encode(buf[:0], &message.Knowledge{Pubend: evs[i].Pubend, Events: evs[i : i+1]})
	})
	decodeNS = perOp(len(frames), 5, func(i int) {
		ref := message.AcquireRef(len(frames[i]))
		copy(ref.Bytes(), frames[i])
		if _, derr := message.DecodeShared(ref); derr != nil && err == nil {
			err = fmt.Errorf("replay decode: %w", derr)
		}
		ref.Release()
	})
	return encodeNS, decodeNS, err
}

// replayMatch times the attribute index over the workload's subscriptions.
func replayMatch(seed int64, filters []subFilter) (float64, error) {
	idx := matchidx.New()
	for i, f := range filters {
		sub, err := repro.ParseFilter(f.source())
		if err != nil {
			return 0, err
		}
		idx.Add(repro.SubscriberID(i+1), sub)
	}
	evs := replayEvents(seed, replayN)
	var dst []repro.SubscriberID
	return perOp(len(evs), 5, func(i int) {
		dst, _ = idx.MatchAppend(dst[:0], evs[i].Attrs)
	}), nil
}

// replayLogAppend times Stream.AppendAsync until Ticket.Done on a scratch
// group-commit volume with nproc concurrent writers, as the PHB's log sees
// it; it returns the median µs per append.
func replayLogAppend(seed int64, dir string) (float64, error) {
	vol, err := logvol.Open(filepath.Join(dir, "append.log"), logvol.Options{Sync: logvol.SyncGroup})
	if err != nil {
		return 0, err
	}
	defer vol.Close()
	st, err := vol.Stream("replay")
	if err != nil {
		return 0, err
	}
	evs := replayEvents(seed, 512)
	payloads := make([][]byte, len(evs))
	for i, ev := range evs {
		payloads[i] = message.AppendEvent(nil, ev)
	}
	writers := runtime.NumCPU()
	lat := make([][]float64, writers)
	errs := make([]error, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(payloads); i += writers {
				t := time.Now()
				tk := st.AppendAsync(payloads[i])
				<-tk.Done()
				if _, err := tk.Result(); err != nil {
					errs[w] = err
					return
				}
				lat[w] = append(lat[w], float64(time.Since(t).Nanoseconds())/1e3)
			}
		}(w)
	}
	wg.Wait()
	var all []float64
	for w := range lat {
		if errs[w] != nil {
			return 0, errs[w]
		}
		all = append(all, lat[w]...)
	}
	return median(all), nil
}

// replayPFS writes a storm-sized backlog span of the workload's events
// (each listing the subscribers the plain predicate matches) and then
// reads it back for the cohort, as catchup does. It returns µs per Write
// and per ReadAppend.
func replayPFS(seed int64, dir string, filters []subFilter, cohort []bool, backlog int) (writeUS, readUS float64, err error) {
	vol, err := logvol.Open(filepath.Join(dir, "pfs.log"), logvol.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer vol.Close()
	meta, err := metastore.Open(filepath.Join(dir, "pfs.meta"), metastore.Options{})
	if err != nil {
		return 0, 0, err
	}
	defer meta.Close()
	p, err := pfs.New(pfs.Options{Volume: vol, Meta: meta, SyncEvery: 200})
	if err != nil {
		return 0, 0, err
	}
	evs := replayEvents(seed, backlog)
	matched := make([][]vtime.SubscriberID, len(evs))
	for i := range evs {
		g, pr := attrsOf(seed, uint64(i))
		for s, f := range filters {
			if f.match(g, pr) {
				matched[i] = append(matched[i], vtime.SubscriberID(s+1))
			}
		}
	}
	t := time.Now()
	for i, ev := range evs {
		if err := p.Write(ev.Pubend, ev.Timestamp, matched[i]); err != nil {
			return 0, 0, fmt.Errorf("replay pfs write: %w", err)
		}
	}
	writeUS = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(evs))
	if err := p.Sync(); err != nil {
		return 0, 0, err
	}
	last := vtime.Timestamp(1000 + len(evs))
	var dst []tick.Span
	reads := 0
	t = time.Now()
	for s, in := range cohort {
		if !in {
			continue
		}
		for pub := vtime.PubendID(1); pub <= numPubends; pub++ {
			from := vtime.Timestamp(0)
			for {
				res, err := p.ReadAppend(pub, vtime.SubscriberID(s+1), from, last, 256, dst[:0])
				if err != nil {
					return 0, 0, fmt.Errorf("replay pfs read: %w", err)
				}
				reads++
				dst = res.QSpans
				if res.Complete || res.KnownUpTo <= from {
					break
				}
				from = res.KnownUpTo
			}
		}
	}
	readUS = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(max(reads, 1))
	return writeUS, readUS, nil
}

// replayMetaCommit times Tx.Commit of checkpoint batches of opsPerCommit
// released(s) rows, the SHB's metastore traffic; median µs per commit.
func replayMetaCommit(dir string, opsPerCommit, subs int) (float64, error) {
	st, err := metastore.Open(filepath.Join(dir, "commit.meta"), metastore.Options{})
	if err != nil {
		return 0, err
	}
	defer st.Close()
	ops := max(1, opsPerCommit)
	var lat []float64
	val := make([]byte, 8)
	for c := 0; c < 200; c++ {
		t := time.Now()
		tx := st.Begin()
		for k := 0; k < ops; k++ {
			val[0] = byte(c)
			tx.Put("released", fmt.Sprintf("s%d", (c*ops+k)%max(subs, 1)), val)
		}
		if err := tx.Commit(); err != nil {
			return 0, err
		}
		lat = append(lat, float64(time.Since(t).Nanoseconds())/1e3)
	}
	return median(lat), nil
}

// runReplays fills the replay metrics into m. The replayed PFS span is
// one outage's backlog at the workload's rate, so it depends only on the
// workload and the seed.
func runReplays(b *bench, m map[string]float64, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var err error
	if m["message.encode_ns"], m["message.decode_ns"], err = replayMessage(b.seed); err != nil {
		return err
	}
	if m["matchidx.match_append_ns"], err = replayMatch(b.seed, b.filters); err != nil {
		return err
	}
	if m["logvol.append_async_us"], err = replayLogAppend(b.seed, dir); err != nil {
		return err
	}
	backlog := int(min(b.w.rate*b.w.outage.Seconds(), 50000))
	if m["pfs.write_us"], m["pfs.read_us"], err = replayPFS(b.seed, dir, b.filters, b.cohort, backlog); err != nil {
		return err
	}
	m["metastore.commit_us"], err = replayMetaCommit(dir, int(m["metastore.ops_per_commit"]+0.5), len(b.filters))
	return err
}

package experiment

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/logvol"
	"repro/internal/metastore"
	"repro/internal/pfs"
	"repro/internal/vtime"
)

// PFSBenchResult is the section 5.1.2 microbenchmark: PFS writes versus
// logging the event once per matching subscriber at the SHB. The paper
// reports the PFS logging 25× less data and finishing over 5× faster.
type PFSBenchResult struct {
	Events         int
	Subscribers    int
	MatchPerEvent  int
	PFSDuration    time.Duration
	EventLogDur    time.Duration
	PFSBytes       int64
	EventLogBytes  int64
	SpeedupX       float64
	DataReductionX float64
	ImpreciseMode  bool
}

// PFSBenchParams configures the microbenchmark. The paper's workload:
// 800 ev/s input, 100 subscribers, 200 ev/s per subscriber (so each event
// matches 25 subscribers), 418-byte events, a sync every 200 events per
// subscriber, 100 s of workload (80000 events).
type PFSBenchParams struct {
	Events          int // 0 = 8000 (10s of paper workload)
	Subscribers     int // 0 = 100
	MatchPerEvent   int // 0 = Subscribers/4
	EventBytes      int // 0 = 418
	SyncEvery       int // 0 = 200
	ImpreciseBucket vtime.Timestamp
}

// RunPFSBench runs the microbenchmark.
func RunPFSBench(dir string, p PFSBenchParams) (*PFSBenchResult, error) {
	orDefault(&p.Events, 8000)
	orDefault(&p.Subscribers, 100)
	orDefault(&p.MatchPerEvent, p.Subscribers/4)
	orDefault(&p.EventBytes, 418)
	orDefault(&p.SyncEvery, 200)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	res := &PFSBenchResult{
		Events:        p.Events,
		Subscribers:   p.Subscribers,
		MatchPerEvent: p.MatchPerEvent,
		ImpreciseMode: p.ImpreciseBucket > 0,
	}

	// Matching subscribers rotate so every subscriber receives an equal
	// share, as the group workload does.
	matched := func(seq int) []vtime.SubscriberID {
		out := make([]vtime.SubscriberID, p.MatchPerEvent)
		for j := range out {
			out[j] = vtime.SubscriberID((seq*p.MatchPerEvent + j) % p.Subscribers)
		}
		return out
	}

	// --- PFS side ---
	{
		vol, err := logvol.Open(filepath.Join(dir, "pfs.log"), logvol.Options{})
		if err != nil {
			return nil, err
		}
		meta, err := metastore.Open(filepath.Join(dir, "pfs.meta"), metastore.Options{Sync: metastore.SyncNone})
		if err != nil {
			return nil, err
		}
		// The paper syncs per subscriber every 200 events; with every
		// event carrying MatchPerEvent subscribers, the equivalent
		// whole-PFS cadence is one sync per SyncEvery events.
		pf, err := pfs.New(pfs.Options{
			Volume: vol, Meta: meta,
			SyncEvery:       p.SyncEvery,
			ImpreciseBucket: p.ImpreciseBucket,
		})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		for seq := 0; seq < p.Events; seq++ {
			ts := vtime.Timestamp(seq + 1)
			if err := pf.Write(1, ts, matched(seq)); err != nil {
				return nil, err
			}
		}
		if err := pf.Sync(); err != nil {
			return nil, err
		}
		res.PFSDuration = time.Since(start)
		res.PFSBytes = vol.BytesAppended()
		vol.Close()  //nolint:errcheck,gosec // bench teardown
		meta.Close() //nolint:errcheck,gosec // bench teardown
	}

	// --- per-subscriber event log side (the obvious solution of
	// section 1: one persistent event log per subscriber) ---
	{
		vol, err := logvol.Open(filepath.Join(dir, "evlog.log"), logvol.Options{})
		if err != nil {
			return nil, err
		}
		streams := make([]*logvol.Stream, p.Subscribers)
		for i := range streams {
			s, err := vol.Stream(fmt.Sprintf("sub/%d", i))
			if err != nil {
				return nil, err
			}
			streams[i] = s
		}
		payload := make([]byte, p.EventBytes)
		appended := make([]int, p.Subscribers)
		start := time.Now()
		for seq := 0; seq < p.Events; seq++ {
			for _, sub := range matched(seq) {
				if _, err := streams[sub].Append(payload); err != nil {
					return nil, err
				}
				appended[sub]++
				if appended[sub]%p.SyncEvery == 0 {
					if err := vol.Sync(); err != nil {
						return nil, err
					}
				}
			}
		}
		if err := vol.Sync(); err != nil {
			return nil, err
		}
		res.EventLogDur = time.Since(start)
		res.EventLogBytes = vol.BytesAppended()
		vol.Close() //nolint:errcheck,gosec // bench teardown
	}

	if res.PFSDuration > 0 {
		res.SpeedupX = float64(res.EventLogDur) / float64(res.PFSDuration)
	}
	if res.PFSBytes > 0 {
		res.DataReductionX = float64(res.EventLogBytes) / float64(res.PFSBytes)
	}
	return res, nil
}

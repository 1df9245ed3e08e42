package experiment

// Durable-throughput experiment: how many fully durable publishes per
// second do N concurrent publishers sustain, and how many fsyncs does each
// acked event cost? Compares the per-publish forced log ("always" — the
// paper's one-fsync-per-event PHB regime) against the group-commit
// pipeline ("group"), which batches concurrent appends and issues one
// fsync per batch.

import (
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/filter"
	"repro/internal/logvol"
	"repro/internal/message"
	"repro/internal/pubend"
)

// DurableThroughputParams configures one durable-throughput run.
type DurableThroughputParams struct {
	// Publishers is the number of concurrent publisher goroutines
	// (0 = 8, the acceptance floor for fsync amortization).
	Publishers int
	// Events is the number of events each publisher logs (0 = 200).
	Events int
	// PayloadBytes sizes each event payload (0 = 128).
	PayloadBytes int
	// Mode selects the durability regime: "always" (one fsync per
	// publish) or "group" (group commit). Empty means "group".
	Mode string
	// GroupMaxDelay is the optional linger bound for group mode.
	GroupMaxDelay time.Duration
}

// DurableThroughputResult is the outcome of one run.
type DurableThroughputResult struct {
	Mode           string  `json:"mode"`
	Publishers     int     `json:"publishers"`
	Events         int     `json:"events"`
	ElapsedMS      float64 `json:"elapsed_ms"`
	EventsPerSec   float64 `json:"events_per_sec"`
	Fsyncs         int64   `json:"fsyncs"`
	FsyncsPerEvent float64 `json:"fsyncs_per_event"`
	// RecoveredEvents is the pubend's event count after a full volume
	// close and reopen: it must equal Events×Publishers, proving no
	// acked publish was lost.
	RecoveredEvents int `json:"recovered_events"`
}

// RunDurableThroughput drives N concurrent publishers through one pubend
// on a freshly created volume (no network: the experiment isolates the
// durable write path), measures throughput and fsyncs/event, then crashes
// the volume shut and recovers it to verify every acked event survived.
func RunDurableThroughput(dir string, p DurableThroughputParams) (*DurableThroughputResult, error) {
	orDefault(&p.Publishers, 8)
	orDefault(&p.Events, 200)
	orDefault(&p.PayloadBytes, 128)
	orDefault(&p.Mode, "group")

	opts := logvol.Options{GroupMaxDelay: p.GroupMaxDelay}
	var syncEvery bool
	switch p.Mode {
	case "always":
		// True per-append forced logging: every record fsyncs inline
		// before the append returns — the paper's one-fsync-per-event
		// PHB regime, and the baseline group commit is measured against.
		opts.Sync = logvol.SyncAlways
	case "group":
		opts.Sync = logvol.SyncGroup
		syncEvery = true
	default:
		return nil, fmt.Errorf("durable-throughput: unknown mode %q", p.Mode)
	}

	volPath := filepath.Join(dir, "durable-"+p.Mode+".log")
	vol, err := logvol.Open(volPath, opts)
	if err != nil {
		return nil, err
	}
	pe, err := pubend.New(pubend.Options{ID: 1, Volume: vol, SyncEveryPublish: syncEvery})
	if err != nil {
		vol.Close() //nolint:errcheck,gosec // failed setup
		return nil, err
	}

	payload := make([]byte, p.PayloadBytes)
	attrs := filter.Attributes{"topic": filter.String("durability")}
	baseSyncs := vol.Syncs()

	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	start := time.Now()
	for w := 0; w < p.Publishers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < p.Events; i++ {
				if _, err := pe.Publish(message.Event{Attrs: attrs, Payload: payload}); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		vol.Close() //nolint:errcheck,gosec // failed run
		return nil, firstErr
	}

	total := p.Publishers * p.Events
	fsyncs := vol.Syncs() - baseSyncs
	res := &DurableThroughputResult{
		Mode:           p.Mode,
		Publishers:     p.Publishers,
		Events:         total,
		ElapsedMS:      float64(elapsed.Microseconds()) / 1e3,
		EventsPerSec:   float64(total) / elapsed.Seconds(),
		Fsyncs:         fsyncs,
		FsyncsPerEvent: float64(fsyncs) / float64(total),
	}

	// Crash consistency: close, reopen, recover — every acked publish
	// must still be there.
	if err := vol.Close(); err != nil {
		return nil, err
	}
	vol2, err := logvol.Open(volPath, opts)
	if err != nil {
		return nil, err
	}
	defer vol2.Close() //nolint:errcheck
	pe2, err := pubend.New(pubend.Options{ID: 1, Volume: vol2})
	if err != nil {
		return nil, err
	}
	res.RecoveredEvents = pe2.EventCount()
	if res.RecoveredEvents != total {
		return nil, fmt.Errorf("durable-throughput: recovered %d events, published %d (acked event lost)",
			res.RecoveredEvents, total)
	}
	return res, nil
}

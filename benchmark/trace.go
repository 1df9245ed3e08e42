package main

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
)

// Span kinds: the facade calls the benchmark brackets. Spans of one event
// share its id; a deliver span starts at the event's durable ack.
const (
	spanPublishCall uint8 = iota // PublishAsync call
	spanAck                      // publish sent → durable ack received
	spanDeliver                  // durable ack → receipt by a subscriber
	spanConnect                  // reattach Connect call
	spanDisconnect               // Disconnect call
)

var spanNames = [...]string{"publish_call", "ack", "deliver", "connect", "disconnect"}

type span struct {
	kind       uint8
	event, sub uint32
	start, end int64 // ns since the benchmark epoch
}

// spanLog keeps a traced phase's spans in memory; they are written out
// when the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{spans: make([]span, 0, 1<<16)} }

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spans)
}

// durations returns the durations of every span of kind, in ns.
func (l *spanLog) durations(kind uint8) []float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []float64
	for _, s := range l.spans {
		if s.kind == kind {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// write stores the spans as gzipped tab-separated lines:
// kind, event id (the trace id), subscriber, start ns, end ns.
func (l *spanLog) write(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "kind\tevent\tsub\tstart_ns\tend_ns")
	l.mu.Lock()
	for _, s := range l.spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", spanNames[s.kind], s.event, s.sub, s.start, s.end)
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return zw.Close()
}

package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds
// since the recorder was created; Parent indexes the span that caused
// this one (-1 for a root); spans of one scan share its Scan id (-1 for
// work that belongs to no scan).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Scan   int    `json:"scan"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is
// the untraced run: every method is a no-op, so the measured loop is
// the same code either way.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its index, to pass to end and to use
// as a child's parent.
func (r *recorder) begin(name string, parent, scan int) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	id := len(r.spans)
	// Stamp after the append so a slice growth is not inside the span.
	r.spans = append(r.spans, span{Name: name, Parent: parent, Scan: scan})
	r.spans[id].Start = int64(time.Since(r.t0))
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	now := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

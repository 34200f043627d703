package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one stream share a Group.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Name   string `json:"name"`
	Group  int64  `json:"group,omitempty"`
	Start  int64  `json:"start_ns"` // since the recorder's origin
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pay one nil check per call.
type spanLog struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its id (0 on a nil log).
func (l *spanLog) begin(name string, parent int) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(l.origin).Nanoseconds()})
	return len(l.spans)
}

// end closes span id.
func (l *spanLog) end(id int) {
	if l == nil || id == 0 {
		return
	}
	l.mu.Lock()
	l.spans[id-1].End = time.Since(l.origin).Nanoseconds()
	l.mu.Unlock()
}

// record adds an already-measured span between two instants.
func (l *spanLog) record(name string, parent int, group int64, start, end time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{ID: len(l.spans) + 1, Parent: parent, Name: name, Group: group,
		Start: start.Sub(l.origin).Nanoseconds(), End: end.Sub(l.origin).Nanoseconds()})
	l.mu.Unlock()
}

// timed runs fn inside a span.
func (l *spanLog) timed(name string, parent int, fn func()) {
	id := l.begin(name, parent)
	fn()
	l.end(id)
}

// spanTotal is the time spent in spans of one name.
type spanTotal struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration // total minus the time covered by child spans
}

// totals aggregates spans by name, largest self time first.
func (l *spanLog) totals() []spanTotal {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	childTime := make(map[int]int64)
	for _, s := range l.spans {
		if s.Parent > 0 && s.End >= s.Start {
			childTime[s.Parent] += s.End - s.Start
		}
	}
	by := map[string]*spanTotal{}
	var order []string
	for _, s := range l.spans {
		t := by[s.Name]
		if t == nil {
			t = &spanTotal{Name: s.Name}
			by[s.Name] = t
			order = append(order, s.Name)
		}
		d := s.End - s.Start
		t.Count++
		t.Total += time.Duration(d)
		self := d - childTime[s.ID]
		if self < 0 {
			self = 0 // overlapping children (concurrent streams)
		}
		t.Self += time.Duration(self)
	}
	out := make([]spanTotal, 0, len(order))
	for _, n := range order {
		out = append(out, *by[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// write saves the spans as JSON to dir/name.
func (l *spanLog) write(dir, name string) (string, error) {
	if l == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("span dir: %w", err)
	}
	p := filepath.Join(dir, name)
	l.mu.Lock()
	b, err := json.Marshal(l.spans)
	l.mu.Unlock()
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(p, b, 0o644); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return p, nil
}

package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// FlightEvent is one entry in the flight recorder: a finished span
// summary, a warn-or-worse log record, or an operational event (fault
// injected, peer marked down, repair action, panic).
type FlightEvent struct {
	TimeUS  int64             `json:"time_us"` // unix microseconds
	Kind    string            `json:"kind"`    // "span", "log", "fault", "health", "repair", "panic"
	TraceID string            `json:"trace_id,omitempty"`
	JobID   string            `json:"job_id,omitempty"`
	Msg     string            `json:"msg"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// FlightRecorder is an always-on bounded ring of recent FlightEvents.
// It costs one mutexed append per event, so it can stay armed in
// production; the payoff is that a panic, a chaos run, or a slow
// analysis is debuggable after the fact with nothing pre-enabled.
// A nil *FlightRecorder is valid and inert, mirroring the nil-span
// convention.
type FlightRecorder struct {
	mu      sync.Mutex
	buf     []FlightEvent
	next    int // ring cursor
	wrapped bool
	dropped uint64 // events overwritten, so readers know the window slid
}

// DefaultFlightEvents is the ring capacity when NewFlightRecorder is
// given a non-positive one.
const DefaultFlightEvents = 256

// NewFlightRecorder builds a recorder holding the last capacity events.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightEvents
	}
	return &FlightRecorder{buf: make([]FlightEvent, 0, capacity)}
}

// Record appends one event, evicting the oldest when the ring is full.
// TimeUS is stamped when zero. Nil-safe.
func (f *FlightRecorder) Record(ev FlightEvent) {
	if f == nil {
		return
	}
	if ev.TimeUS == 0 {
		ev.TimeUS = time.Now().UnixMicro()
	}
	f.mu.Lock()
	if len(f.buf) < cap(f.buf) {
		f.buf = append(f.buf, ev)
	} else {
		f.buf[f.next] = ev
		f.next = (f.next + 1) % cap(f.buf)
		f.wrapped = true
		f.dropped++
	}
	f.mu.Unlock()
}

// Eventf records a Kind event with a formatted message. Nil-safe.
func (f *FlightRecorder) Eventf(kind, format string, args ...any) {
	if f == nil {
		return
	}
	f.Record(FlightEvent{Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

// Snapshot returns the buffered events oldest-first, plus how many
// older events the ring has already evicted.
func (f *FlightRecorder) Snapshot() (evs []FlightEvent, dropped uint64) {
	if f == nil {
		return nil, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	evs = make([]FlightEvent, 0, len(f.buf))
	if f.wrapped {
		evs = append(evs, f.buf[f.next:]...)
		evs = append(evs, f.buf[:f.next]...)
	} else {
		evs = append(evs, f.buf...)
	}
	return evs, f.dropped
}

// WriteJSON serves the ring as the /internal/v1/flightrec body.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	evs, dropped := f.Snapshot()
	return json.NewEncoder(w).Encode(struct {
		Dropped uint64        `json:"dropped"`
		Events  []FlightEvent `json:"events"`
	}{dropped, evs})
}

// Dump writes a human-readable transcript of the ring — the post-mortem
// form emitted on panic and on slow-analysis hits. Nil-safe no-op.
func (f *FlightRecorder) Dump(w io.Writer, why string) {
	if f == nil {
		return
	}
	evs, dropped := f.Snapshot()
	fmt.Fprintf(w, "--- flight recorder dump (%s): %d events, %d evicted ---\n", why, len(evs), dropped)
	for _, ev := range evs {
		ts := time.UnixMicro(ev.TimeUS).UTC().Format("15:04:05.000000")
		fmt.Fprintf(w, "%s %-8s %s", ts, ev.Kind, ev.Msg)
		if ev.TraceID != "" {
			fmt.Fprintf(w, " trace_id=%s", ev.TraceID)
		}
		if ev.JobID != "" {
			fmt.Fprintf(w, " job_id=%s", ev.JobID)
		}
		for _, k := range sortedKeys(ev.Attrs) {
			fmt.Fprintf(w, " %s=%s", k, ev.Attrs[k])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "--- end flight recorder dump ---\n")
}

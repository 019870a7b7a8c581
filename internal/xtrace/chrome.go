package xtrace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// Process ids in the exported trace. The service is one process; each
// simulation timeline gets its own, so Perfetto groups per-bank tracks
// under their (workload, policy) cell.
const (
	servicePID = 1
	simPID0    = 2
)

// Doc is one exportable trace: the service spans of a job (optional)
// plus any number of simulation timelines.
type Doc struct {
	// TraceID labels the whole document (metadata only).
	TraceID string
	// Origin is wall-clock zero: span timestamps are exported relative
	// to it. Zero-valued Origin uses the earliest span start.
	Origin time.Time
	// Spans are the service-side wall-clock phases.
	Spans []Span
	// Sims are the simulated-time timelines, one process each.
	Sims []*SimTrace
}

// chromeEvent is one entry of the Chrome Trace Event Format's
// traceEvents array (the subset this exporter emits: complete "X",
// instant "i", counter "C", async "b"/"e" and metadata "M" events).
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	Ts    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// ticksToMicros converts kernel ticks (0.5 ns) to trace microseconds.
func ticksToMicros(t uint64) float64 { return float64(t) / 2000 }

// chromeWriter streams one traceEvents array with correct commas.
type chromeWriter struct {
	w     *bufio.Writer
	first bool
	err   error
}

func (cw *chromeWriter) event(e chromeEvent) {
	if cw.err != nil {
		return
	}
	b, err := json.Marshal(e)
	if err != nil {
		cw.err = err
		return
	}
	if !cw.first {
		cw.w.WriteByte(',')
	}
	cw.first = false
	cw.w.WriteString("\n  ")
	_, cw.err = cw.w.Write(b)
}

// meta emits a process_name / thread_name metadata event.
func (cw *chromeWriter) meta(kind string, pid, tid int, name string) {
	cw.event(chromeEvent{Name: kind, Ph: "M", PID: pid, TID: tid,
		Args: map[string]any{"name": name}})
}

// WriteChrome renders the document as Chrome Trace Event Format JSON —
// the object form, with a traceEvents array — loadable in Perfetto and
// chrome://tracing.
//
// Service spans are exported as async begin/end pairs (ph "b"/"e") so
// overlapping spans from parallel matrix cells each render on their
// own sub-track. Simulation timelines use one process per sim; within
// it, tid 0/1/2 are the phase, epoch and controller tracks and each
// memory bank has its own named thread track. The two clocks differ —
// spans tick in wall time since Origin, sim events in simulated time
// since tick zero — which is exactly what the trace is for: one view
// of where the service spent real time and what the simulated machine
// did meanwhile.
func (d *Doc) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	cw := &chromeWriter{w: bw, first: true}

	bw.WriteString(`{"displayTimeUnit":"ns",`)
	if d.TraceID != "" {
		fmt.Fprintf(bw, `"otherData":{"trace_id":%q},`, d.TraceID)
	}
	bw.WriteString(`"traceEvents":[`)

	if len(d.Spans) > 0 {
		origin := d.Origin
		if origin.IsZero() {
			origin = d.Spans[0].Start
			for _, s := range d.Spans[1:] {
				if s.Start.Before(origin) {
					origin = s.Start
				}
			}
		}
		cw.meta("process_name", servicePID, 0, "mellowd service")
		for i, s := range d.Spans {
			ts := float64(s.Start.Sub(origin).Nanoseconds()) / 1000
			te := float64(s.End.Sub(origin).Nanoseconds()) / 1000
			var args map[string]any
			if len(s.Args) >= 2 {
				args = make(map[string]any, len(s.Args)/2)
				for k := 0; k+1 < len(s.Args); k += 2 {
					args[s.Args[k]] = s.Args[k+1]
				}
			}
			id := fmt.Sprintf("span-%d", i)
			cw.event(chromeEvent{Name: s.Name, Cat: s.Cat, Ph: "b", Ts: ts,
				PID: servicePID, TID: 0, ID: id, Args: args})
			cw.event(chromeEvent{Name: s.Name, Cat: s.Cat, Ph: "e", Ts: te,
				PID: servicePID, TID: 0, ID: id})
		}
	}

	for i, st := range d.Sims {
		if st == nil {
			continue
		}
		pid := simPID0 + i
		name := fmt.Sprintf("sim %s/%s", st.Workload, st.Policy)
		if st.Leveler != "" {
			name += " " + st.Leveler
		}
		cw.meta("process_name", pid, 0, name)
		cw.meta("thread_name", pid, int(TrackPhase), "phase")
		cw.meta("thread_name", pid, int(TrackEpoch), "epochs")
		cw.meta("thread_name", pid, int(TrackController), "controller")
		for b := 0; b < st.Banks; b++ {
			cw.meta("thread_name", pid, int(BankTrack(b)), fmt.Sprintf("bank %02d", b))
		}
		for _, e := range st.Events {
			ce := chromeEvent{Name: e.Name, Cat: e.Cat, PID: pid, TID: int(e.Track),
				Ts: ticksToMicros(uint64(e.Start))}
			switch e.Kind {
			case KindSlice:
				dur := ticksToMicros(uint64(e.End - e.Start))
				ce.Ph = "X"
				ce.Dur = &dur
			case KindInstant:
				ce.Ph = "i"
				ce.Scope = "t"
			case KindCounter:
				ce.Ph = "C"
				ce.Args = map[string]any{"value": e.Value}
			}
			if e.Kind != KindCounter && (e.Line != 0 || e.Aux != 0) {
				ce.Args = make(map[string]any, 2)
				if e.Line != 0 {
					ce.Args["line"] = fmt.Sprintf("0x%x", e.Line)
				}
				if e.Aux != 0 {
					ce.Args["n"] = e.Aux
				}
			}
			cw.event(ce)
		}
		if st.Dropped > 0 {
			// Overflow marker: the ring kept only the newest events.
			cw.event(chromeEvent{
				Name: fmt.Sprintf("ring overflow: %d events dropped", st.Dropped),
				Cat:  "xtrace", Ph: "i", Scope: "t", PID: pid, TID: int(TrackController),
				Ts: eventStart(st.Events),
			})
		}
	}

	if cw.err != nil {
		return cw.err
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

// eventStart returns the first event's timestamp in µs (0 when empty).
func eventStart(events []Event) float64 {
	if len(events) == 0 {
		return 0
	}
	return ticksToMicros(uint64(events[0].Start))
}

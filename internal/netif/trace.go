package netif

import (
	"sort"

	"autosec/internal/obs"
	"autosec/internal/sim"
)

// Record is one observed frame with its completion time, as captured by a
// medium tap. Unlike the live Frame view, a Record owns its payload.
type Record struct {
	At        sim.Time
	Frame     Frame
	Corrupted bool
}

// Trace is an in-order log of traffic on one or more media — the
// interchange format between the medium simulations, the intrusion
// detection package and the offline tools. It generalizes the historical
// can.Trace to mixed-medium captures.
type Trace struct {
	Records []Record
}

// Recorder attaches a trace-recording tap to the medium and returns the
// trace it fills.
func Recorder(m Medium) *Trace {
	t := &Trace{}
	m.Tap(func(at sim.Time, f *Frame, corrupted bool) {
		t.Records = append(t.Records, Record{At: at, Frame: f.Clone(), Corrupted: corrupted})
	})
	return t
}

// Len reports the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Keys returns the distinct (medium, ID) keys seen, sorted ascending.
// On a CAN-only trace the order is exactly ascending CAN-ID order.
func (t *Trace) Keys() []Key {
	set := make(map[Key]bool)
	for i := range t.Records {
		set[t.Records[i].Frame.Key()] = true
	}
	keys := make([]Key, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Between returns records with lo <= At < hi.
func (t *Trace) Between(lo, hi sim.Time) []Record {
	var out []Record
	for _, r := range t.Records {
		if r.At >= lo && r.At < hi {
			out = append(out, r)
		}
	}
	return out
}

// EmitObs replays the trace into an obs tracer, one instant per record:
// subsystem = the record's medium ("can", "lin", "flexray", "ethernet"),
// name "frame" (or "frame-error" for corrupted records), Str = sender,
// Arg1 = frame ID, Arg2 = payload length. A converted CAN trace emits
// byte-identically to the historical can.Trace.EmitObs. No-op on a nil
// tracer.
func (t *Trace) EmitObs(tr *obs.Tracer) {
	if tr == nil {
		return
	}
	frame := tr.Label("frame")
	frameErr := tr.Label("frame-error")
	for i := range t.Records {
		r := &t.Records[i]
		name := frame
		if r.Corrupted {
			name = frameErr
		}
		tr.Instant(r.At, tr.Label(r.Frame.Medium.String()), name,
			tr.Label(r.Frame.Sender), int64(r.Frame.ID), int64(len(r.Frame.Payload)))
	}
}

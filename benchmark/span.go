package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Spans live in this package
// only: they wrap the benchmark's calls into a layer, never code inside it.
type span struct {
	ID     int32  `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder started
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // span id; -1 for an op's root span
	Op     int64  `json:"op_id"`
}

// recorder keeps spans in memory, one buffer per client so recording takes
// no lock; they are merged and written when the run ends. A nil recorder
// hands out nil opTraces, whose methods do nothing: the untraced run pays a
// nil check per call site.
type recorder struct {
	t0   time.Time
	next atomic.Int32
	bufs [][]span
}

func newRecorder(clients int) *recorder {
	return &recorder{t0: time.Now(), bufs: make([][]span, clients)}
}

// opTrace is one op's handle on the recorder.
type opTrace struct {
	r      *recorder
	client int
	root   span
}

func (r *recorder) beginOp(client int, op int64) *opTrace {
	if r == nil {
		return nil
	}
	return &opTrace{r: r, client: client, root: span{
		ID: r.next.Add(1) - 1, Name: "op", Start: int64(time.Since(r.t0)), Parent: -1, Op: op,
	}}
}

func nothing() {}

// span opens a child of the op's root span now; the returned func closes it.
func (t *opTrace) span(name string) func() {
	if t == nil {
		return nothing
	}
	start := time.Now()
	return func() { t.add(name, start, time.Now()) }
}

// add records a child span after the fact, from two wall-clock stamps. A
// span whose stamps come from different goroutines can read as ending
// before it began; it is kept, with no length.
func (t *opTrace) add(name string, start, end time.Time) {
	if t == nil {
		return
	}
	if end.Before(start) {
		end = start
	}
	t.r.bufs[t.client] = append(t.r.bufs[t.client], span{
		ID: t.r.next.Add(1) - 1, Name: name, Parent: t.root.ID, Op: t.root.Op,
		Start: int64(start.Sub(t.r.t0)), End: int64(end.Sub(t.r.t0)),
	})
}

// end closes the op's root span.
func (t *opTrace) end() {
	if t == nil {
		return
	}
	t.root.End = int64(time.Since(t.r.t0))
	t.r.bufs[t.client] = append(t.r.bufs[t.client], t.root)
}

// spans merges the per-client buffers, ordered by start time.
func (r *recorder) spans() []span {
	var all []span
	for _, b := range r.bufs {
		all = append(all, b...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Start < all[j].Start })
	return all
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children may overlap each other
// and may stick out of the parent; overlap is counted once and the excess
// is clipped.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName totals self time per span name.
func selfByName(spans []span) map[string]int64 {
	self := selfTimes(spans)
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// spanDurations collects the durations of the spans called name.
func spanDurations(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, time.Duration(s.End-s.Start))
		}
	}
	return out
}

func writeSpans(path string, spans []span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

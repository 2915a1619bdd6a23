// Chrome trace_event export: the recorded run rendered as the JSON object
// format that chrome://tracing and Perfetto load directly. One track (tid)
// per worker, instant events with thread scope, timestamps converted from
// the run's nanosecond base to the format's microseconds.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// WriteChrome writes the current run's worker events as Chrome trace_event
// JSON. The deque FSM logs carry no timestamps (they are ordered by lock
// acquisition, not by a clock) and are not exported. A run on the wall
// clock stamps no event, so its events export with "ts" 0 in log order.
func (r *Recorder) WriteChrome(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	comma := func() {
		if !first {
			bw.WriteByte(',')
		}
		first = false
	}
	for i := range r.workers {
		comma()
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":0,"tid":%d,"args":{"name":"worker %d"}}`, i, i)
	}
	for i, wl := range r.workers {
		for j := range wl.evs {
			ev := &wl.evs[j]
			comma()
			bw.WriteString(`{"name":"`)
			bw.WriteString(ev.Op.String())
			bw.WriteString(`","ph":"i","s":"t","pid":0,"tid":`)
			bw.WriteString(strconv.Itoa(i))
			bw.WriteString(`,"ts":`)
			// trace_event timestamps are microseconds; keep ns precision.
			bw.WriteString(strconv.FormatFloat(float64(ev.TS)/1e3, 'f', 3, 64))
			bw.WriteString(`,"args":{`)
			writeArgs(bw, ev)
			bw.WriteString(`}}`)
		}
	}
	bw.WriteString(`],"displayTimeUnit":"ns"}`)
	bw.WriteByte('\n')
	return bw.Flush()
}

// writeArgs renders the per-Op operands under human-readable keys. Every
// value is a number or a fixed-alphabet task label, so no JSON escaping is
// needed.
func writeArgs(bw *bufio.Writer, ev *Event) {
	wroteTask := false
	if ev.Task != 0 || ev.Op == OpDeposit {
		fmt.Fprintf(bw, `"task":%q`, FormatSeq(ev.Task))
		wroteTask = true
	}
	sep := func() {
		if wroteTask {
			bw.WriteByte(',')
		}
		wroteTask = true
	}
	switch ev.Op {
	case OpSpawn:
		sep()
		fmt.Fprintf(bw, `"depth":%d,"kind":%d`, ev.A, ev.B)
	case OpPopSpecial:
		sep()
		fmt.Fprintf(bw, `"child_stolen":%d`, ev.A)
	case OpSteal:
		sep()
		fmt.Fprintf(bw, `"victim":%d,"credit":%q`, ev.A, FormatSeq(uint64(ev.B)))
	case OpStealFail:
		sep()
		fmt.Fprintf(bw, `"victim":%d`, ev.A)
	case OpDeposit, OpFinalize, OpComplete:
		sep()
		fmt.Fprintf(bw, `"value":%d`, ev.A)
	}
}

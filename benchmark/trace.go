package main

import (
	"time"

	"selfemerge/internal/transport"
)

// span is one traced interval: a public call the harness made into the
// program, or (in the rigs) one wrapped endpoint send or handler invocation.
// Times are host nanoseconds since the tracer's epoch. Spans of one mission
// share its index; Parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Mission int    `json:"mission"`
}

// tracer keeps spans in memory until the run ends. Every harness call and
// every simulated event runs on the calling goroutine (lockstep-600's second
// loop only runs program code, never harness code), so the open-span stack
// needs no lock. A nil tracer records nothing: the timed passes pass nil.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span under the innermost open one and returns its index for
// end. mission is -1 for spans that belong to no single mission.
func (t *tracer) begin(name string, mission int) int {
	if t == nil {
		return -1
	}
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Mission: mission})
	idx := len(t.spans) - 1
	t.open = append(t.open, idx)
	return idx
}

// end closes the span begin returned. Spans nest, so it is always the
// innermost open one.
func (t *tracer) end(idx int) {
	if t == nil {
		return
	}
	t.spans[idx].End = int64(time.Since(t.epoch))
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover.
func selfTimes(spans []span) map[string]time.Duration {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(self[i])
	}
	return out
}

// tracedEndpoint decorates a transport.Endpoint handed to dht.NewNode so a
// rig can separate the node's handler time from the fabric's send time
// without touching either package. It keeps the transport.Handler contract:
// the payload is passed straight through and never retained.
type tracedEndpoint struct {
	transport.Endpoint
	t *tracer
}

func (e tracedEndpoint) Send(to transport.Addr, payload []byte) error {
	idx := e.t.begin("simnet.send", -1)
	err := e.Endpoint.Send(to, payload)
	e.t.end(idx)
	return err
}

func (e tracedEndpoint) SetHandler(h transport.Handler) {
	e.Endpoint.SetHandler(func(from transport.Addr, payload []byte) {
		idx := e.t.begin("dht.handle", -1)
		h(from, payload)
		e.t.end(idx)
	})
}

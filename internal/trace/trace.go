// Package trace is the fleet's request-scoped observability substrate: a
// dependency-free distributed-tracing layer. Where internal/telemetry
// aggregates (counters and histograms over every request the process ever
// served) and internal/obs tabulates (one run's stage wall times), trace
// explains a single request: a tree of spans — named, timed, attributed,
// evented — that starts at whichever process first saw the request and
// crosses HTTP hops via the X-Cati-Trace header (http.go), so one trace
// covers client → fleet router (plan, hedge, retry, peer-fill spans) →
// catiserve replica (admission, queue-wait, batch spans) → every pipeline
// stage (recover/extract/embed/predict/vote).
//
// The layer is built around the same discipline as telemetry's off
// switch: with no collector installed (SetDefault(nil), the default),
// Start is one atomic load plus one context value probe and returns a nil
// *Span whose every method is a no-op — no allocation, no clock read.
// BENCH_trace.json holds the measured overhead of that disabled path on
// the serving hot path, and TestDisabledPathDoesNotAllocate pins the
// zero-alloc property in CI.
//
// Spans are carried by context.Context. A span is created by Start (child
// of the context's span, or a new sampled root), mutated by SetAttr/
// Event/SetError from any goroutine, and finished exactly once by End,
// which hands it to the collector (collector.go): a bounded in-memory
// store with a JSON-lines exporter, a slow-request flight recorder, and
// the /v1/trace/{id} + /debug/traces read side.
package trace

import (
	"context"
	"encoding/hex"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"
)

// TraceID identifies one end-to-end request trace (16 bytes, rendered as
// 32 hex digits — the W3C trace-context width).
type TraceID [16]byte

// SpanID identifies one span within a trace (8 bytes, 16 hex digits).
type SpanID [8]byte

// IsZero reports the all-zero (absent) ID.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports the all-zero (absent) ID.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// ParseTraceID decodes the 32-hex-digit form; ok is false for anything
// else (including the all-zero ID, which is reserved for "absent").
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 2*len(t) {
		return TraceID{}, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil || t.IsZero() {
		return TraceID{}, false
	}
	return t, true
}

// ParseSpanID decodes the 16-hex-digit form.
func ParseSpanID(s string) (SpanID, bool) {
	var id SpanID
	if len(s) != 2*len(id) {
		return SpanID{}, false
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil || id.IsZero() {
		return SpanID{}, false
	}
	return id, true
}

// newTraceID/newSpanID draw random IDs. math/rand/v2's top-level
// generator is lock-free (per-P state) and the IDs only need collision
// resistance within the bounded store, not cryptographic strength.
func newTraceID() TraceID {
	var t TraceID
	for t.IsZero() {
		a, b := rand.Uint64(), rand.Uint64()
		for i := 0; i < 8; i++ {
			t[i] = byte(a >> (8 * i))
			t[8+i] = byte(b >> (8 * i))
		}
	}
	return t
}

func newSpanID() SpanID {
	var s SpanID
	for s.IsZero() {
		v := rand.Uint64()
		for i := 0; i < 8; i++ {
			s[i] = byte(v >> (8 * i))
		}
	}
	return s
}

// Attr is one span attribute. Values are strings; the typed constructors
// below render the common Go types so call sites stay terse.
type Attr struct {
	Key   string `json:"k"`
	Value string `json:"v"`
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: itoa(v)} }

// Bool builds a boolean attribute.
func Bool(k string, v bool) Attr {
	if v {
		return Attr{Key: k, Value: "true"}
	}
	return Attr{Key: k, Value: "false"}
}

// Duration builds a duration attribute (Go duration syntax, e.g. "1.2ms").
func Duration(k string, d time.Duration) Attr { return Attr{Key: k, Value: d.String()} }

// itoa is strconv.Itoa without the import weight in the hot path helpers.
func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	neg := v < 0
	if neg {
		v = -v
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// Event is one timestamped occurrence inside a span (a hedge launched, a
// retry backoff, a queue-wait) — cheaper than a child span when there is
// no meaningful duration of its own.
type Event struct {
	Time  time.Time `json:"t"`
	Name  string    `json:"name"`
	Attrs []Attr    `json:"attrs,omitempty"`
}

// Span is one timed operation in a trace. All methods are safe on a nil
// receiver (the disabled-tracing path) and safe for concurrent use —
// stages fan out across goroutines and several may annotate the same
// request span.
type Span struct {
	c       *Collector
	traceID TraceID
	id      SpanID
	parent  SpanID
	// remote marks a span whose parent lives in another process (it
	// arrived via the X-Cati-Trace header); such spans are subtree roots
	// locally but not trace roots, so the flight recorder does not
	// re-judge them.
	remote bool
	name   string
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []Event
	err    string
	ended  bool
	dur    time.Duration
}

// spanKey carries the active span through a context.
type spanKey struct{}

// ContextWithSpan returns a context carrying span, whose cancellation and
// deadline are ctx's. Use it to re-parent work onto another span — for
// example, to give each binary of one core.InferBatchOpts call a context
// that cancels with the batch but traces to that binary's own span.
func ContextWithSpan(ctx context.Context, span *Span) context.Context {
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, span)
}

// SpanFromContext returns the context's active span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// IDFromContext returns the active trace's hex ID, or "" when the context
// carries no span — the form histogram exemplars want.
func IDFromContext(ctx context.Context) string {
	if s := SpanFromContext(ctx); s != nil {
		return s.traceID.String()
	}
	return ""
}

// enabled gates the whole layer: one atomic load on the disabled fast
// path. Set by SetDefault.
var enabled atomic.Bool

// defaultC is the process-wide collector (nil when tracing is off).
var defaultC atomic.Pointer[Collector]

// SetDefault installs c as the process collector; nil disables tracing.
func SetDefault(c *Collector) {
	defaultC.Store(c)
	enabled.Store(c != nil)
}

// Default returns the process collector (nil when tracing is off).
func Default() *Collector { return defaultC.Load() }

// Enabled reports whether a collector is installed.
func Enabled() bool { return enabled.Load() }

// Start begins a span named name: a child of the context's span when one
// is active, else — with a collector installed — a new root span with a
// fresh trace ID. It returns a derived context carrying the new span and
// the span itself; call End exactly once. When tracing is disabled and
// the context carries no span, Start returns (ctx, nil) without
// allocating, and the nil span swallows every later call.
func Start(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	parent := SpanFromContext(ctx)
	var c *Collector
	if parent != nil {
		c = parent.c
	} else {
		if !enabled.Load() {
			return ctx, nil
		}
		c = defaultC.Load()
		if c == nil {
			return ctx, nil
		}
	}
	s := &Span{c: c, name: name, id: newSpanID(), start: time.Now()}
	if parent != nil {
		s.traceID = parent.traceID
		s.parent = parent.id
	} else {
		s.traceID = newTraceID()
	}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	c.startSpan()
	return ContextWithSpan(ctx, s), s
}

// StartRemote begins a span continuing a trace another process started
// (trace and parent extracted from the propagation header). It requires a
// collector; without one it returns (ctx, nil) like Start.
func StartRemote(ctx context.Context, traceID TraceID, parent SpanID, name string, attrs ...Attr) (context.Context, *Span) {
	c := defaultC.Load()
	if c == nil || traceID.IsZero() {
		return Start(ctx, name, attrs...)
	}
	s := &Span{
		c: c, traceID: traceID, parent: parent, remote: true,
		name: name, id: newSpanID(), start: time.Now(),
	}
	if len(attrs) > 0 {
		s.attrs = append(s.attrs, attrs...)
	}
	c.startSpan()
	return ContextWithSpan(ctx, s), s
}

// TraceID returns the span's trace ID (zero for nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.traceID
}

// ID returns the span's ID (zero for nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return SpanID{}
	}
	return s.id
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// SetAttr appends attributes to the span.
func (s *Span) SetAttr(attrs ...Attr) {
	if s == nil || len(attrs) == 0 {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Event records a timestamped occurrence on the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	e := Event{Time: time.Now(), Name: name}
	if len(attrs) > 0 {
		e.Attrs = append(e.Attrs, attrs...)
	}
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// SetError records the span's failure. A nil error is a no-op, so the
// common `defer func() { span.SetError(err); span.End() }()` shape needs
// no branch.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.err = err.Error()
	s.mu.Unlock()
}

// End finishes the span: stamps its duration and hands it to the
// collector. Exactly the first End takes effect; later calls (and End on
// nil) are no-ops, so cancellation paths can End defensively.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.mu.Unlock()
	s.c.finishSpan(s)
}

// Duration returns the span's wall time: final after End, the running
// elapsed time before it (0 for nil). Span timing lives here so callers
// never do their own time.Now() arithmetic around spans — the Makefile
// lint gate holds obs to that.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// Timer is the sanctioned stopwatch for span-adjacent wall-time math in
// code that must keep measuring when tracing is off (obs stage tables,
// par's queue-wait). Centralizing the clock reads here keeps "who times
// what" greppable — the lint gate forbids raw time.Now() span math in the
// stage-observability packages.
type Timer struct{ t0 time.Time }

// NewTimer starts a stopwatch.
func NewTimer() Timer { return Timer{t0: time.Now()} }

// Elapsed reports the wall time since NewTimer.
func (t Timer) Elapsed() time.Duration { return time.Since(t.t0) }

// Started reports whether the timer was actually started (zero Timers
// read false, so an unconditionally deferred observe can skip itself).
func (t Timer) Started() bool { return !t.t0.IsZero() }

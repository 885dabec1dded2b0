package daemon

import (
	"sync/atomic"
	"time"

	"ctxres/internal/telemetry"
)

// WithTelemetry exports the daemon's serving-path metrics into reg:
// a per-op request latency histogram, an in-flight gauge, failed
// responses by error code, scrape-time mirrors of the transport counters
// (accepted connections, retries, bad requests, ...), and gauges over
// the middleware's pool and strategy buffer. The same registry snapshot
// is attached to OpStats responses, so clients can read histogram
// summaries over the line protocol without scraping /metrics.
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(o *options) { o.telemetry = reg }
}

// WithTracing enables distributed tracing on the serving path: the
// server acks hello trace offers, honors TraceID/SpanID on requests
// (passing them into the middleware so pipeline spans join the caller's
// trace), and roots a fresh trace for untraced requests the sampler
// elects. The sink should be the same one the middleware records spans
// to; a nil sampler never roots (the server then only joins traces
// started upstream, the shard-behind-a-router configuration). A nil sink
// disables tracing entirely.
func WithTracing(sink telemetry.SpanSink, sampler *telemetry.Sampler) Option {
	return func(o *options) { o.spanSink = sink; o.sampler = sampler }
}

// WithProvenance serves the resolution-provenance ring over OpProvenance.
// The ring should be the one installed on the middleware via
// middleware.WithProvenance; nil leaves the op refused.
func WithProvenance(ring *telemetry.ProvenanceRing) Option {
	return func(o *options) { o.prov = ring }
}

// requestTelemetry bundles the transport's per-request instruments. The
// zero value is "telemetry off": all instruments are nil and no clock is
// read.
type requestTelemetry struct {
	on       bool
	requests *telemetry.HistogramVec // by op
	inflight *telemetry.Gauge
	errcodes *telemetry.CounterVec // by response code
}

func newRequestTelemetry(reg *telemetry.Registry) requestTelemetry {
	if reg == nil {
		return requestTelemetry{}
	}
	return requestTelemetry{
		on:       true,
		requests: reg.HistogramVec("ctxres_request_seconds", "Request latency by operation.", "op", nil),
		inflight: reg.Gauge("ctxres_inflight_requests", "Requests currently being handled."),
		errcodes: reg.CounterVec("ctxres_request_errors_total", "Failed responses by error code.", "code"),
	}
}

func (t *requestTelemetry) now() time.Time {
	if !t.on {
		return time.Time{}
	}
	return time.Now()
}

// requestDone observes one finished request: latency by op, and the
// error code when the response reports a failure. A request that ran
// under a sampled trace (the response echoes its ID) attaches the trace
// ID as the latency bucket's exemplar.
func (t *requestTelemetry) requestDone(op string, start time.Time, resp Response) {
	if start.IsZero() {
		return
	}
	if resp.TraceID != "" {
		t.requests.With(op).ObserveDurationExemplar(time.Since(start), resp.TraceID)
	} else {
		t.requests.With(op).ObserveDuration(time.Since(start))
	}
	if !resp.OK {
		t.errcodes.With(string(resp.Code)).Inc()
	}
}

// registerTelemetryFuncs installs the push-latency histogram and the
// scrape-time callbacks over the middleware side: the server counters
// stay owned by serverCounters and are read at scrape time, as are the
// subscription count, pool size, and the strategy's Σ size. The
// transport registers its own counters.
func (s *Server) registerTelemetryFuncs(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	s.pushes = reg.Histogram("ctxres_push_seconds",
		"Push delivery latency from event enqueue to frame written.", nil)
	c := &s.counters
	mirror := func(name, help string, v *atomic.Int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(v.Load()) })
	}
	mirror("ctxres_maintenance_errors_total", "Failed periodic checkpoints and compactions.", &c.maintErrors)
	mirror("ctxres_pushes_delivered_total", "Situation event frames pushed to subscribers.", &c.pushesDelivered)
	mirror("ctxres_pushes_dropped_total", "Situation events lost to slow-consumer shedding.", &c.pushesDropped)
	mirror("ctxres_subscribers_shed_total", "Subscriber connections shed as lagged.", &c.subscribersShed)
	reg.GaugeFunc("ctxres_subscribers", "Currently registered situation subscriptions.",
		func() float64 { return float64(s.hub.size()) })
	reg.GaugeFunc("ctxres_pool_contexts", "Contexts held in the repository pool (any state).",
		func() float64 { return float64(s.mw.Pool().Len()) })
	reg.GaugeFunc("ctxres_sigma_size", "Tracked inconsistency set size (Σ) of the resolution strategy.",
		func() float64 { return float64(s.mw.SigmaSize()) })
}

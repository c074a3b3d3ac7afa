//! Request-scoped tracing with tail sampling.
//!
//! Stage histograms (PR 5) say *that* p99 moved; this module says *why
//! one request* was slow. Every request that enters the serving path
//! while tracing is enabled records a handful of [`Span`]s — parse,
//! admission, queue wait, coalesce, worker forward, retrieval stages,
//! response write — stamped by the same ~8 ns TSC [`clock`](crate::clock)
//! the stage timers use. When the root span closes, a **tail-sampling**
//! decision runs once per trace:
//!
//! - traces that were *slow* (end-to-end at/above a configurable
//!   threshold, or above the live e2e histogram's tail when a tail
//!   source is attached) are always kept;
//! - traces that ended in an *error* (a `ServeError`, a 5xx) are always
//!   kept;
//! - of the remaining fast-and-healthy majority, 1 in
//!   [`TraceConfig::sample_every`] is kept.
//!
//! Kept traces are assembled into a [`Trace`] and pushed into a fixed
//! process-global ring of completed traces; the oldest trace in a ring
//! slot is evicted on overwrite, so memory is bounded by construction.
//! Dropped traces cost two stamp reads per span and are forgotten.
//!
//! # Cost model and gating
//!
//! Like the stage clock, the whole subsystem is gated behind a single
//! branch: [`enabled`] is one relaxed atomic load, and an inactive
//! [`TraceContext`] (`trace_id == 0`) short-circuits every record call
//! at its first instruction. When enabled, a span record is two TSC
//! stamps plus one push into the trace's pre-reserved span buffer under
//! an uncontended per-trace lock (the spans of one trace are produced by
//! a causal chain — conn worker, then engine worker — so the lock is
//! never fought over in the steady state). The cost of tracing at 1/64
//! sampling is the `obs.trace_overhead_us` metric of `BENCHMARK.json`.
//!
//! # Concurrency and eviction semantics
//!
//! In-flight traces live in a fixed pool of slots handed out by
//! [`Tracer::begin`]; when the pool is exhausted the request simply goes
//! untraced (counted in [`TraceStats::no_slot`]). The completed ring is
//! written position `seq % capacity` under a *try-lock*: writers never
//! block — the only contender is a snapshotting reader, and losing that
//! race sheds the trace (counted in [`TraceStats::shed`]) instead of
//! stalling a worker. Admission numbers (`seq`) are monotone, so the
//! ring always holds, per slot, the newest trace that landed there:
//! eviction is strictly oldest-first modulo sheds, which the hammer test
//! in `tests/trace_hammer.rs` pins.
//!
//! # Identifiers
//!
//! Trace ids are unique non-zero `u64`s (a bijective mix of a process
//! counter, so they look random but never collide); span ids are drawn
//! from the same counter raw. Both render as 16-digit lower-case hex —
//! the same form the HTTP tier echoes in `X-Request-Id` and the
//! histograms attach as OpenMetrics exemplars.

use crate::clock::{self, Stamp};
use crate::hist::LatencyHistogram;
use crate::scalar::thread_slot;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Spans kept per trace; further records set [`Trace::truncated`].
pub const MAX_SPANS: usize = 96;
/// In-flight trace slots; when exhausted, requests go untraced.
const ACTIVE_SLOTS: usize = 512;
/// Completed-trace ring capacity.
const RING_SLOTS: usize = 256;
/// Tail decisions between refreshes of the auto-tail threshold.
const TAIL_REFRESH_EVERY: u64 = 1024;

/// Render an id as the canonical 16-digit lower-case hex string used in
/// `X-Request-Id`, `/debug/traces`, and exemplar labels.
pub fn hex_id(id: u64) -> String {
    format!("{id:016x}")
}

/// SplitMix64 finalizer — a bijection on `u64`, so sequential inputs map
/// to unique, random-looking trace ids.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The per-request handle threaded through the serving path. `Copy`, two
/// words of payload: which trace to record into and which span is the
/// current parent. An inactive context (`trace_id == 0`) makes every
/// record call a no-op after one branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceContext {
    /// Trace this request records into; 0 = untraced.
    pub trace_id: u64,
    /// Current parent span id (the root span right after [`Tracer::begin`]).
    pub span_id: u64,
    /// In-flight slot index, private to the tracer.
    slot: u32,
}

impl TraceContext {
    /// The inactive context: every record call against it is a no-op.
    pub const NONE: TraceContext = TraceContext {
        trace_id: 0,
        span_id: 0,
        slot: 0,
    };

    /// Whether record calls against this context do anything.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.trace_id != 0
    }

    /// The same trace with `span_id` as the parent for subsequent spans.
    #[inline]
    pub fn child(&self, span_id: u64) -> TraceContext {
        TraceContext { span_id, ..*self }
    }
}

impl Default for TraceContext {
    fn default() -> Self {
        TraceContext::NONE
    }
}

/// One timed operation inside a trace. Plain old data — `&'static` names
/// and fixed attribute slots, no allocation per span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique (process-wide) span id.
    pub id: u64,
    /// Parent span id; 0 marks the root span.
    pub parent: u64,
    /// Operation name (`"parse"`, `"queue_wait"`, `"forward"`, …).
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was enabled.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// A causal link to a span in *another* trace (a coalesced follower
    /// links to the leader's forward span); 0 = none.
    pub link: u64,
    /// Whether the operation failed (expired, panicked, 5xx).
    pub error: bool,
    /// Small id of the recording thread (same ids the histogram shards
    /// key on) — becomes the `tid` lane in the Chrome export.
    pub tid: u64,
    /// Up to two numeric attributes (batch seq, artifact epoch); an empty
    /// name marks an unused slot.
    pub attrs: [(&'static str, u64); 2],
}

/// No attributes — the common case for most record calls.
pub const NO_ATTRS: [(&str, u64); 2] = [("", 0), ("", 0)];

/// A completed, kept trace: the root span plus every child recorded
/// before the root closed.
#[derive(Clone, Debug)]
pub struct Trace {
    /// Ring admission number; monotone across kept traces.
    pub seq: u64,
    /// The trace id (also the root span's trace).
    pub trace_id: u64,
    /// The request id the HTTP tier echoed (client-sent or generated).
    pub request_id: String,
    /// Root (end-to-end) duration in nanoseconds.
    pub dur_ns: u64,
    /// Whether the trace ended in an error.
    pub error: bool,
    /// True when more than [`MAX_SPANS`] spans were recorded and the
    /// excess was dropped.
    pub truncated: bool,
    /// All spans, in record order; the root span is last.
    pub spans: Vec<Span>,
}

/// Sampling and thresholds for [`Tracer::enable`].
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Traces with end-to-end duration at/above this are always kept.
    pub slow_ns: u64,
    /// Keep 1 in this many fast-and-healthy traces (0 = keep none of
    /// them; slow and errored traces are always kept).
    pub sample_every: u64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            slow_ns: 10_000_000, // 10 ms
            sample_every: 64,
        }
    }
}

/// Point-in-time tracer counters, for `/debug/traces` and the per-round
/// stats `odnet online` stamps into its JSONL.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceStats {
    /// Traces begun (slots handed out).
    pub started: u64,
    /// Traces kept by the tail decision and pushed toward the ring.
    pub kept: u64,
    /// Fast, healthy traces dropped by sampling.
    pub dropped: u64,
    /// Requests that went untraced because the in-flight pool was full.
    pub no_slot: u64,
    /// Kept traces shed because a reader held the ring slot's lock.
    pub shed: u64,
    /// Slowest end-to-end duration seen since enable, in nanoseconds.
    pub slowest_ns: u64,
    /// Trace id of (approximately — the pairing is racy under concurrent
    /// maxima) the slowest trace.
    pub slowest_id: u64,
}

/// In-flight per-trace state; reset between occupants.
struct SlotState {
    trace_id: u64,
    request_id: String,
    truncated: bool,
    spans: Vec<Span>,
}

/// The tracing subsystem. One process-global instance lives behind
/// [`global`]; tests build private instances with [`Tracer::new`].
pub struct Tracer {
    on: AtomicBool,
    /// Stamp taken at enable; span times are offsets from it.
    epoch: AtomicU64,
    slow_ns: AtomicU64,
    /// Threshold taken from the attached tail source; `u64::MAX` = unset.
    tail_ns: AtomicU64,
    sample_every: AtomicU64,
    next_id: AtomicU64,
    decisions: AtomicU64,
    started: AtomicU64,
    kept: AtomicU64,
    dropped: AtomicU64,
    no_slot: AtomicU64,
    shed: AtomicU64,
    slowest_ns: AtomicU64,
    slowest_id: AtomicU64,
    active: Vec<Mutex<SlotState>>,
    free: Mutex<Vec<u32>>,
    head: AtomicU64,
    ring: Vec<Mutex<Option<Trace>>>,
    tail_source: Mutex<Option<LatencyHistogram>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A fresh, disabled tracer.
    pub fn new() -> Tracer {
        Tracer {
            on: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            slow_ns: AtomicU64::new(u64::MAX),
            tail_ns: AtomicU64::new(u64::MAX),
            sample_every: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            decisions: AtomicU64::new(0),
            started: AtomicU64::new(0),
            kept: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            no_slot: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            slowest_ns: AtomicU64::new(0),
            slowest_id: AtomicU64::new(0),
            active: (0..ACTIVE_SLOTS)
                .map(|_| {
                    Mutex::new(SlotState {
                        trace_id: 0,
                        request_id: String::new(),
                        truncated: false,
                        spans: Vec::with_capacity(MAX_SPANS),
                    })
                })
                .collect(),
            free: Mutex::new((0..ACTIVE_SLOTS as u32).rev().collect()),
            head: AtomicU64::new(0),
            ring: (0..RING_SLOTS).map(|_| Mutex::new(None)).collect(),
            tail_source: Mutex::new(None),
        }
    }

    /// Turn tracing on. Calibrates the TSC clock (so the first span never
    /// pays for calibration) and stamps the epoch all span times offset
    /// from.
    pub fn enable(&self, cfg: TraceConfig) {
        clock::calibrate();
        self.epoch.store(clock::now(), Ordering::Relaxed);
        self.slow_ns.store(cfg.slow_ns, Ordering::Relaxed);
        self.sample_every.store(cfg.sample_every, Ordering::Relaxed);
        self.on.store(true, Ordering::Release);
    }

    /// Turn tracing off. In-flight traces finish recording but nothing
    /// new begins.
    pub fn disable(&self) {
        self.on.store(false, Ordering::Release);
    }

    /// The one branch the disabled path costs.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Attach a live histogram whose tail drives the slow threshold: the
    /// decision loop periodically refreshes an internal threshold to the
    /// source's p99, so "slow" tracks the workload instead of a constant.
    pub fn set_tail_source(&self, h: LatencyHistogram) {
        *self.tail_source.lock().unwrap() = h.into();
    }

    /// Current effective slow threshold (configured floor vs live tail,
    /// whichever keeps more).
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_ns
            .load(Ordering::Relaxed)
            .min(self.tail_ns.load(Ordering::Relaxed))
    }

    fn alloc_id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Start a trace for a request. Returns [`TraceContext::NONE`] when
    /// tracing is off or the in-flight pool is exhausted; `request_id` is
    /// the string the HTTP tier will echo back to the client.
    pub fn begin(&self, request_id: &str) -> TraceContext {
        if !self.enabled() {
            return TraceContext::NONE;
        }
        let slot = match self.free.lock().unwrap().pop() {
            Some(s) => s,
            None => {
                self.no_slot.fetch_add(1, Ordering::Relaxed);
                return TraceContext::NONE;
            }
        };
        let mut trace_id = mix(self.alloc_id());
        if trace_id == 0 {
            trace_id = mix(self.alloc_id());
        }
        let root_span = self.alloc_id();
        {
            let mut st = self.active[slot as usize].lock().unwrap();
            st.trace_id = trace_id;
            st.request_id.clear();
            st.request_id.push_str(request_id);
            st.truncated = false;
            st.spans.clear();
        }
        self.started.fetch_add(1, Ordering::Relaxed);
        TraceContext {
            trace_id,
            span_id: root_span,
            slot,
        }
    }

    /// Record a completed span stamped with [`clock::now`] values.
    /// Returns the new span's id (0 when the context is inactive), which
    /// callers use to parent sub-spans ([`TraceContext::child`]) or link
    /// coalesced followers.
    #[inline]
    pub fn record(&self, ctx: TraceContext, name: &'static str, start: Stamp, end: Stamp) -> u64 {
        if !ctx.is_active() {
            return 0;
        }
        let epoch = self.epoch.load(Ordering::Relaxed);
        self.record_ext(
            ctx,
            name,
            clock::ns_between(epoch, start),
            clock::ns_between(start, end),
            0,
            false,
            NO_ATTRS,
        )
    }

    /// [`record`](Self::record) with a link, error flag, and attributes.
    #[allow(clippy::too_many_arguments)]
    pub fn record_full(
        &self,
        ctx: TraceContext,
        name: &'static str,
        start: Stamp,
        end: Stamp,
        link: u64,
        error: bool,
        attrs: [(&'static str, u64); 2],
    ) -> u64 {
        if !ctx.is_active() {
            return 0;
        }
        let epoch = self.epoch.load(Ordering::Relaxed);
        self.record_ext(
            ctx,
            name,
            clock::ns_between(epoch, start),
            clock::ns_between(start, end),
            link,
            error,
            attrs,
        )
    }

    /// Record a span from explicit epoch-relative nanoseconds — used to
    /// synthesize sub-spans from stage durations measured elsewhere
    /// (e.g. `RetrievalStats` route/scan/select).
    #[allow(clippy::too_many_arguments)]
    pub fn record_ext(
        &self,
        ctx: TraceContext,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        link: u64,
        error: bool,
        attrs: [(&'static str, u64); 2],
    ) -> u64 {
        if !ctx.is_active() {
            return 0;
        }
        let id = self.alloc_id();
        let mut st = self.active[ctx.slot as usize].lock().unwrap();
        if st.trace_id != ctx.trace_id {
            return 0; // stale context: the slot moved on to another trace
        }
        if st.spans.len() >= MAX_SPANS {
            st.truncated = true;
            return 0;
        }
        st.spans.push(Span {
            id,
            parent: ctx.span_id,
            name,
            start_ns,
            dur_ns,
            link,
            error,
            tid: thread_slot() as u64,
            attrs,
        });
        id
    }

    /// Nanoseconds from the enable epoch to `stamp` — the offset basis
    /// for [`record_ext`](Self::record_ext).
    pub fn since_epoch_ns(&self, stamp: Stamp) -> u64 {
        clock::ns_between(self.epoch.load(Ordering::Relaxed), stamp)
    }

    /// Close the trace: record the root span, run the tail-sampling
    /// decision, and either push the assembled [`Trace`] into the ring or
    /// forget it. Returns `true` when the trace was kept.
    pub fn end(
        &self,
        ctx: TraceContext,
        root_name: &'static str,
        start: Stamp,
        end: Stamp,
        error: bool,
    ) -> bool {
        if !ctx.is_active() {
            return false;
        }
        let epoch = self.epoch.load(Ordering::Relaxed);
        let dur_ns = clock::ns_between(start, end);
        // The tail decision only needs the duration and error flag, so it
        // runs *before* the slot is touched: on the drop path (almost
        // every request at steady state) the slot's span Vec and
        // request-id String are cleared in place, keeping their capacity
        // for the next occupant instead of reallocating per request.
        let n = self.decisions.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(TAIL_REFRESH_EVERY) {
            if let Some(src) = self.tail_source.lock().unwrap().as_ref() {
                let p99 = src.snapshot().quantile(0.99);
                if p99 > 0 {
                    self.tail_ns.store(p99, Ordering::Relaxed);
                }
            }
        }
        let every = self.sample_every.load(Ordering::Relaxed);
        let keep =
            error || dur_ns >= self.slow_threshold_ns() || (every != 0 && n.is_multiple_of(every));
        let kept = {
            let mut st = self.active[ctx.slot as usize].lock().unwrap();
            if st.trace_id != ctx.trace_id {
                return false;
            }
            st.trace_id = 0;
            if !keep {
                st.spans.clear();
                st.request_id.clear();
                st.truncated = false;
                None
            } else {
                if st.spans.len() < MAX_SPANS {
                    st.spans.push(Span {
                        id: ctx.span_id,
                        parent: 0,
                        name: root_name,
                        start_ns: clock::ns_between(epoch, start),
                        dur_ns,
                        link: 0,
                        error,
                        tid: thread_slot() as u64,
                        attrs: NO_ATTRS,
                    });
                } else {
                    st.truncated = true;
                }
                Some((
                    std::mem::take(&mut st.spans),
                    std::mem::take(&mut st.request_id),
                    st.truncated,
                ))
            }
        };
        self.free.lock().unwrap().push(ctx.slot);

        if self.slowest_ns.fetch_max(dur_ns, Ordering::Relaxed) < dur_ns {
            // Benign race: under concurrent maxima the id may pair with a
            // near-slowest trace; stats are advisory.
            self.slowest_id.store(ctx.trace_id, Ordering::Relaxed);
        }
        let Some((spans, request_id, truncated)) = kept else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return false;
        };
        self.kept.fetch_add(1, Ordering::Relaxed);
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let trace = Trace {
            seq,
            trace_id: ctx.trace_id,
            request_id,
            dur_ns,
            error,
            truncated,
            spans,
        };
        match self.ring[(seq % RING_SLOTS as u64) as usize].try_lock() {
            Ok(mut slot) => {
                *slot = Some(trace);
                true
            }
            Err(_) => {
                // A reader holds the slot; shed rather than block a worker.
                self.shed.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Reset the slowest-trace tracker, returning the previous
    /// `(dur_ns, trace_id)` — lets a periodic reporter (e.g. the online
    /// loop's per-round rows) attribute a maximum to each window instead
    /// of the whole process lifetime.
    pub fn take_slowest(&self) -> (u64, u64) {
        let ns = self.slowest_ns.swap(0, Ordering::Relaxed);
        let id = self.slowest_id.swap(0, Ordering::Relaxed);
        (ns, id)
    }

    /// Counters snapshot.
    pub fn stats(&self) -> TraceStats {
        TraceStats {
            started: self.started.load(Ordering::Relaxed),
            kept: self.kept.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            no_slot: self.no_slot.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            slowest_ns: self.slowest_ns.load(Ordering::Relaxed),
            slowest_id: self.slowest_id.load(Ordering::Relaxed),
        }
    }

    /// Copy the kept traces out of the ring, newest first, filtered by
    /// minimum duration and (optionally) to errors only, capped at
    /// `limit` (0 = no cap).
    pub fn snapshot(&self, min_dur_ns: u64, errors_only: bool, limit: usize) -> Vec<Trace> {
        let mut out: Vec<Trace> = Vec::new();
        for slot in &self.ring {
            let guard = slot.lock().unwrap();
            if let Some(t) = guard.as_ref() {
                if t.dur_ns >= min_dur_ns && (!errors_only || t.error) {
                    out.push(t.clone());
                }
            }
        }
        out.sort_by_key(|t| std::cmp::Reverse(t.seq));
        if limit != 0 {
            out.truncate(limit);
        }
        out
    }

    /// Drop every kept trace and zero the slowest-trace stats — test and
    /// bench isolation between rounds.
    pub fn clear(&self) {
        for slot in &self.ring {
            *slot.lock().unwrap() = None;
        }
        self.slowest_ns.store(0, Ordering::Relaxed);
        self.slowest_id.store(0, Ordering::Relaxed);
    }
}

/// The process-global tracer the serving path records into.
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::new)
}

/// One relaxed load: is the global tracer on?
#[inline]
pub fn enabled() -> bool {
    global().enabled()
}

fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn span_json(out: &mut String, s: &Span) {
    let _ = write!(
        out,
        "{{\"id\":\"{}\",\"parent\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"tid\":{}",
        hex_id(s.id),
        hex_id(s.parent),
        escape_json(s.name),
        s.start_ns,
        s.dur_ns,
        s.tid
    );
    if s.link != 0 {
        let _ = write!(out, ",\"link\":\"{}\"", hex_id(s.link));
    }
    if s.error {
        out.push_str(",\"error\":true");
    }
    for (k, v) in s.attrs.iter().filter(|(k, _)| !k.is_empty()) {
        let _ = write!(out, ",\"{}\":{v}", escape_json(k));
    }
    out.push('}');
}

/// Render traces as the `/debug/traces` JSON document:
/// `{"traces":[{"trace_id":…,"request_id":…,"spans":[…]},…]}`.
pub fn to_json(traces: &[Trace]) -> String {
    let mut out = String::from("{\"traces\":[");
    for (i, t) in traces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"trace_id\":\"{}\",\"request_id\":\"{}\",\"seq\":{},\"dur_ns\":{},\"error\":{},\
             \"truncated\":{},\"spans\":[",
            hex_id(t.trace_id),
            escape_json(&t.request_id),
            t.seq,
            t.dur_ns,
            t.error,
            t.truncated
        );
        for (j, s) in t.spans.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            span_json(&mut out, s);
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Render traces in Chrome `trace_event` JSON (complete events, `ph:"X"`,
/// microsecond timestamps) — the output of `odnet trace --chrome` and of
/// `GET /debug/traces?format=chrome`, loadable in `chrome://tracing` and
/// Perfetto. Each trace becomes one `pid` lane so concurrent requests
/// stay visually separate; `tid` is the recording thread.
pub fn to_chrome(traces: &[Trace]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    for (i, t) in traces.iter().enumerate() {
        let pid = i + 1;
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"trace {} ({})\"}}}}",
            hex_id(t.trace_id),
            escape_json(&t.request_id)
        );
        for s in &t.spans {
            let _ = write!(
                out,
                ",{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\
                 \"pid\":{pid},\"tid\":{},\"args\":{{\"span_id\":\"{}\",\"parent\":\"{}\"",
                escape_json(s.name),
                s.start_ns / 1000,
                s.start_ns % 1000,
                s.dur_ns / 1000,
                s.dur_ns % 1000,
                s.tid,
                hex_id(s.id),
                hex_id(s.parent)
            );
            if s.link != 0 {
                let _ = write!(out, ",\"link\":\"{}\"", hex_id(s.link));
            }
            if s.error {
                out.push_str(",\"error\":true");
            }
            for (k, v) in s.attrs.iter().filter(|(k, _)| !k.is_empty()) {
                let _ = write!(out, ",\"{}\":{v}", escape_json(k));
            }
            out.push_str("}}");
        }
    }
    out.push_str("]}");
    out
}

/// Structural well-formedness check for a captured trace: exactly one
/// root, unique span ids, every parent present, child intervals nested
/// inside their parent's. Returns a description of the first violation.
/// Shared by `--check` assertions and the property tests.
pub fn check_well_formed(t: &Trace) -> Result<(), String> {
    use std::collections::HashMap;
    let mut by_id: HashMap<u64, &Span> = HashMap::new();
    let mut roots = 0usize;
    for s in &t.spans {
        if s.id == 0 {
            return Err("span id 0".into());
        }
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("duplicate span id {}", hex_id(s.id)));
        }
        if s.parent == 0 {
            roots += 1;
        }
    }
    if roots != 1 {
        return Err(format!("{roots} roots (want 1)"));
    }
    for s in &t.spans {
        if s.parent == 0 {
            continue;
        }
        let p = by_id.get(&s.parent).ok_or_else(|| {
            format!(
                "span {} orphaned (parent {})",
                hex_id(s.id),
                hex_id(s.parent)
            )
        })?;
        let (s0, s1) = (s.start_ns, s.start_ns.saturating_add(s.dur_ns));
        let (p0, p1) = (p.start_ns, p.start_ns.saturating_add(p.dur_ns));
        if s0 < p0 || s1 > p1 {
            return Err(format!(
                "span {} [{s0},{s1}] escapes parent {} [{p0},{p1}]",
                s.name, p.name
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn on(cfg: TraceConfig) -> Tracer {
        let t = Tracer::new();
        t.enable(cfg);
        t
    }

    #[test]
    fn inactive_context_records_nothing() {
        let t = on(TraceConfig::default());
        assert_eq!(t.record(TraceContext::NONE, "x", 0, 0), 0);
        assert!(!t.end(TraceContext::NONE, "r", 0, 0, false));
        assert_eq!(t.stats().started, 0);
    }

    #[test]
    fn slow_trace_is_kept_and_well_formed() {
        let t = on(TraceConfig {
            slow_ns: 0, // everything is "slow"
            sample_every: 0,
        });
        let t0 = clock::now();
        let ctx = t.begin("req-1");
        assert!(ctx.is_active());
        let g_end = clock::now();
        let c_end = clock::now();
        let mid = t.record(ctx, "child", t0, c_end);
        assert_ne!(mid, 0);
        t.record(ctx.child(mid), "grandchild", t0, g_end);
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(t.end(ctx, "request", t0, clock::now(), false));
        let traces = t.snapshot(0, false, 0);
        assert_eq!(traces.len(), 1);
        let tr = &traces[0];
        assert_eq!(tr.request_id, "req-1");
        assert_eq!(tr.spans.len(), 3);
        assert!(tr.dur_ns >= 500_000, "1 ms sleep traced as {}", tr.dur_ns);
        check_well_formed(tr).expect("well-formed");
    }

    #[test]
    fn fast_healthy_traces_are_sampled_one_in_n() {
        let t = on(TraceConfig {
            slow_ns: u64::MAX,
            sample_every: 4,
        });
        let mut kept = 0;
        for i in 0..16 {
            let ctx = t.begin(&format!("r{i}"));
            let now = clock::now();
            if t.end(ctx, "request", now, now, false) {
                kept += 1;
            }
        }
        assert_eq!(kept, 4, "1/4 sampling over 16 traces");
        assert_eq!(t.stats().dropped, 12);
    }

    #[test]
    fn errors_are_always_kept() {
        let t = on(TraceConfig {
            slow_ns: u64::MAX,
            sample_every: 0,
        });
        let ctx = t.begin("boom");
        let now = clock::now();
        assert!(t.end(ctx, "request", now, now, true));
        let traces = t.snapshot(0, true, 0);
        assert_eq!(traces.len(), 1);
        assert!(traces[0].error);
    }

    #[test]
    fn ring_evicts_oldest_and_filters_apply() {
        let t = on(TraceConfig {
            slow_ns: 0,
            sample_every: 0,
        });
        for i in 0..(RING_SLOTS + 10) {
            let ctx = t.begin(&format!("r{i}"));
            let now = clock::now();
            t.end(ctx, "request", now, now, false);
        }
        let traces = t.snapshot(0, false, 0);
        assert_eq!(traces.len(), RING_SLOTS);
        // Newest first, and the oldest 10 were evicted.
        assert_eq!(traces[0].seq, (RING_SLOTS + 10 - 1) as u64);
        assert!(traces.iter().all(|t| t.seq >= 10));
        assert_eq!(t.snapshot(0, false, 3).len(), 3);
        assert_eq!(t.snapshot(u64::MAX, false, 0).len(), 0);
    }

    #[test]
    fn stale_context_after_end_is_ignored() {
        let t = on(TraceConfig {
            slow_ns: 0,
            sample_every: 0,
        });
        let ctx = t.begin("a");
        let now = clock::now();
        t.end(ctx, "request", now, now, false);
        // The slot is free (maybe reused); a late record must not land.
        let ctx2 = t.begin("b");
        assert_eq!(t.record(ctx, "late", now, now), 0);
        t.end(ctx2, "request", now, now, false);
        for tr in t.snapshot(0, false, 0) {
            assert!(tr.spans.iter().all(|s| s.name != "late"));
        }
    }

    #[test]
    fn span_overflow_truncates_not_grows() {
        let t = on(TraceConfig {
            slow_ns: 0,
            sample_every: 0,
        });
        let ctx = t.begin("big");
        let now = clock::now();
        for _ in 0..(MAX_SPANS + 20) {
            t.record(ctx, "s", now, now);
        }
        t.end(ctx, "request", now, now, false);
        let tr = &t.snapshot(0, false, 0)[0];
        assert!(tr.truncated);
        assert!(tr.spans.len() <= MAX_SPANS);
    }

    #[test]
    fn json_and_chrome_exports_are_structurally_sound() {
        let t = on(TraceConfig {
            slow_ns: 0,
            sample_every: 0,
        });
        let t0 = clock::now();
        let ctx = t.begin("exp\"ort");
        let leader = t.record(ctx, "forward", t0, clock::now());
        t.record_full(
            ctx,
            "forward_link",
            t0,
            clock::now(),
            leader,
            false,
            [("batch", 7), ("epoch", 3)],
        );
        t.end(ctx, "request", t0, clock::now(), false);
        let traces = t.snapshot(0, false, 0);
        let json = to_json(&traces);
        assert!(json.starts_with("{\"traces\":["));
        assert!(json.contains("\"request_id\":\"exp\\\"ort\""));
        assert!(json.contains("\"batch\":7"));
        let chrome = to_chrome(&traces);
        assert!(chrome.contains("\"traceEvents\":["));
        assert!(chrome.contains("\"ph\":\"X\""));
        assert!(chrome.contains("\"epoch\":3"));
    }

    #[test]
    fn tail_source_tracks_the_live_histogram() {
        let t = on(TraceConfig {
            slow_ns: u64::MAX,
            sample_every: 0,
        });
        let h = LatencyHistogram::new();
        for _ in 0..100 {
            h.record(1_000);
        }
        t.set_tail_source(h);
        // First decision refreshes the tail to ~p99 of the source.
        let ctx = t.begin("fast");
        let now = clock::now();
        t.end(ctx, "request", now, now, false);
        let tail = t.slow_threshold_ns();
        assert!((1_000..10_000).contains(&tail), "tail threshold {tail}");
    }
}

//! The traced run's span recorder.
//!
//! A span is one timed call into a layer, recorded from the benchmark's
//! own code: its [`Layer`], the unit (batch or submit) it belongs to,
//! its parent span, the recording thread, and start/end offsets in
//! nanoseconds from a shared origin. Spans stay in memory while the run
//! measures and are written out once it ends ([`Trace::write_tsv`]).
//!
//! With tracing off a [`Tracer`] records nothing; the timed code paths
//! are otherwise identical, which is what makes the untraced/traced
//! throughput difference the tracing overhead.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// What a span timed. `Probe*` layers are replays of recorded units
/// through a single layer (twin instances fed the same requests); they
/// run in a separate phase and never count towards timed wall time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One batch or submit: the parent of every span of that unit.
    Unit,
    /// `Scenario::resolve` (+ `into_parts`).
    Resolve,
    /// `Workload::fill_batch` while pre-generating a trace.
    FillBatch,
    /// Adaptive `Workload::next_request`.
    NextRequest,
    /// `Driver::step_batch` under full audit.
    StepBatch,
    /// `OfflineOracle::lower_bound`.
    OracleLb,
    /// `OfflineOracle::upper_bound`.
    OracleUb,
    /// `Client::call(create)` against the server under test.
    Create,
    /// `Client::call(submit)` against the server under test.
    ClientCall,
    /// `Client::call(migrate)` against the router under test.
    RoutedMigrate,
    /// Bare `OnlineAlgorithm::serve_batch` on a twin algorithm.
    ProbeServe,
    /// `wire::encode_request`.
    ProbeEncodeRequest,
    /// `wire::decode_request`.
    ProbeDecodeRequest,
    /// `wire::encode_response`.
    ProbeEncodeResponse,
    /// `wire::decode_response`.
    ProbeDecodeResponse,
    /// `Session::submit_trace` on a twin session.
    ProbeSession,
    /// `SessionManager::submit` on a twin session.
    ProbeManager,
    /// `Cluster::submit` on a twin session over the same backends.
    ProbeClusterSubmit,
    /// `Client::call(submit)` straight to an `rdbp-serve` process (the
    /// server under test, or a router backend), twin session, one call
    /// at a time.
    ProbeDirectCall,
    /// `Client::call(submit)` to the router under test, twin session,
    /// one call at a time.
    ProbeRoutedCall,
    /// `Cluster::migrate` of a twin session.
    ProbeClusterMigrate,
}

impl Layer {
    /// Stable name used in the written trace.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Layer::Unit => "bench.unit",
            Layer::Resolve => "engine.resolve",
            Layer::FillBatch => "model.fill_batch",
            Layer::NextRequest => "model.next_request",
            Layer::StepBatch => "model.step_batch",
            Layer::OracleLb => "ringload.lower_bound",
            Layer::OracleUb => "ringload.upper_bound",
            Layer::Create => "serve.create_call",
            Layer::ClientCall => "serve.client_call",
            Layer::RoutedMigrate => "cluster.migrate_call",
            Layer::ProbeServe => "probe.serve_batch",
            Layer::ProbeEncodeRequest => "probe.wire.encode_request",
            Layer::ProbeDecodeRequest => "probe.wire.decode_request",
            Layer::ProbeEncodeResponse => "probe.wire.encode_response",
            Layer::ProbeDecodeResponse => "probe.wire.decode_response",
            Layer::ProbeSession => "probe.session.submit_trace",
            Layer::ProbeManager => "probe.manager.submit",
            Layer::ProbeClusterSubmit => "probe.cluster.submit",
            Layer::ProbeDirectCall => "probe.serve.client_call",
            Layer::ProbeRoutedCall => "probe.router.client_call",
            Layer::ProbeClusterMigrate => "probe.cluster.migrate",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The layer called.
    pub layer: Layer,
    /// Recording thread (0 for single-threaded workloads).
    pub thread: u16,
    /// The cell or session the call served (0 when not specific).
    pub tag: u16,
    /// Index + 1 of the parent span in the recorder's list, or in the
    /// [`Trace`]'s list once absorbed (0 = root).
    pub parent: u32,
    /// The batch or submit the span belongs to (0 = none).
    pub unit: u64,
    /// Nanoseconds from the trace origin.
    pub start: u64,
    /// Nanoseconds from the trace origin.
    pub end: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Handle to an open span (an index into the tracer's list).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

/// Per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    thread: u16,
    tag: u16,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder for `thread`, timing relative to `origin`. Disabled
    /// recorders record nothing.
    #[must_use]
    pub fn new(origin: Instant, thread: u16, enabled: bool) -> Self {
        Self {
            origin,
            thread,
            tag: 0,
            enabled,
            spans: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span opened from now on with a cell or session index.
    pub fn set_tag(&mut self, tag: usize) {
        self.tag = u16::try_from(tag).unwrap_or(u16::MAX);
    }

    fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    #[inline]
    pub fn open(&mut self, layer: Layer, unit: u64, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        let index = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.push(Span {
            layer,
            thread: self.thread,
            tag: self.tag,
            parent: parent.map_or(0, |p| p.0 + 1),
            unit,
            start,
            end: start,
        });
        Some(SpanId(index))
    }

    /// Closes a span opened by [`Tracer::open`].
    #[inline]
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(index)) = id {
            let end = self.now();
            self.spans[index as usize].end = end;
        }
    }

    /// Runs `f` inside a span.
    #[inline]
    pub fn time<R>(
        &mut self,
        layer: Layer,
        unit: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(layer, unit, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Hands the recorded spans over.
    #[must_use]
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Every span of a run, from all threads.
#[derive(Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Appends one recorder's spans.
    pub fn absorb(&mut self, tracer: Tracer) {
        self.extend(tracer.into_spans());
    }

    /// Appends every span of another trace.
    pub fn append(&mut self, other: Trace) {
        self.extend(other.spans);
    }

    /// Appends spans, rebasing their parent links onto this list.
    fn extend(&mut self, spans: Vec<Span>) {
        let base = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.extend(spans.into_iter().map(|mut s| {
            if s.parent > 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Total duration (ns) and count of the spans of `layer`.
    #[must_use]
    pub fn total(&self, layer: Layer) -> (u64, u64) {
        self.spans
            .iter()
            .filter(|s| s.layer == layer)
            .fold((0, 0), |(ns, n), s| (ns + s.ns(), n + 1))
    }

    /// Total duration (ns) of the spans of `layer` tagged `tag`.
    #[must_use]
    pub fn total_tagged(&self, layer: Layer, tag: usize) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && usize::from(s.tag) == tag)
            .map(Span::ns)
            .sum()
    }

    /// Mean duration of the spans of `layer`, in nanoseconds (0 if none).
    #[must_use]
    pub fn mean_ns(&self, layer: Layer) -> f64 {
        let (ns, n) = self.total(layer);
        if n == 0 {
            0.0
        } else {
            ns as f64 / n as f64
        }
    }

    /// Median duration of the spans of `layer`, in nanoseconds (0 if
    /// none).
    #[must_use]
    pub fn median_ns(&self, layer: Layer) -> f64 {
        let durations: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer)
            .map(|s| s.ns() as f64)
            .collect();
        crate::report::median(&durations)
    }

    /// Sum of the self times (duration minus the children's durations)
    /// of the spans of `layer`, in nanoseconds.
    #[must_use]
    pub fn self_ns(&self, layer: Layer) -> u64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[s.parent as usize - 1] += s.ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.layer == layer)
            .map(|(s, c)| s.ns().saturating_sub(*c))
            .sum()
    }

    /// Writes every span as one tab-separated line:
    /// `thread unit tag layer parent start_ns end_ns`.
    ///
    /// # Errors
    /// Returns any I/O error.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "thread\tunit\ttag\tlayer\tparent\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.thread,
                s.unit,
                s.tag,
                s.layer.name(),
                s.parent,
                s.start,
                s.end
            )?;
        }
        out.flush()
    }
}

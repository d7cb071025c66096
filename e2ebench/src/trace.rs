//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only from the benchmark's own code, around calls into
//! each layer's public functions. Each span has a layer, a name, a start
//! and end (nanoseconds since the recorder started), the span that was
//! open when it began (its parent), and the request it belongs to. The
//! whole trace stays in memory until the run ends, when [`Trace::write_tsv`]
//! writes it out.
//!
//! A layer's self time is the total duration of its spans minus the part
//! of each covered by its direct child spans (children never outlive their
//! parent: spans are strictly nested on the recording thread).
//!
//! Recording is off unless [`start`] is called; [`span`] then costs one
//! thread-local flag read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// The repository layers spans are attributed to (the crate each traced
/// call belongs to).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `aibench-models`: trainer epochs and evaluations.
    Models,
    /// `aibench-nn`: optimizer updates.
    Nn,
    /// `aibench-tensor`: kernels.
    Tensor,
    /// `aibench-parallel`: thread-count changes and the pool.
    Parallel,
    /// `aibench` (core): registry, runners, checkpointed sessions.
    Core,
    /// `aibench-fault`: supervised sessions.
    Fault,
    /// `aibench-serve`: the serving core.
    Serve,
    /// `aibench-serve::wire`: message codec and framing.
    Wire,
    /// `aibench-ckpt`: snapshot stores.
    Ckpt,
    /// `aibench-dist`: data-parallel engine.
    Dist,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Models,
        Layer::Nn,
        Layer::Tensor,
        Layer::Parallel,
        Layer::Core,
        Layer::Fault,
        Layer::Serve,
        Layer::Wire,
        Layer::Ckpt,
        Layer::Dist,
    ];

    /// Lower-case layer name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Models => "models",
            Layer::Nn => "nn",
            Layer::Tensor => "tensor",
            Layer::Parallel => "parallel",
            Layer::Core => "core",
            Layer::Fault => "fault",
            Layer::Serve => "serve",
            Layer::Wire => "wire",
            Layer::Ckpt => "ckpt",
            Layer::Dist => "dist",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// Span open when this one began, if any.
    pub parent: Option<usize>,
    /// Layer of the called function.
    pub layer: Layer,
    /// Called function.
    pub name: &'static str,
    /// Request (session, benchmark, or restart) the call served.
    pub request: u64,
    /// Start, nanoseconds since the recorder started.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder started.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording on this thread, discarding any earlier trace.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Whether this thread is recording.
pub fn enabled() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Stops recording and returns the trace (empty if recording was off).
pub fn finish() -> Trace {
    let spans = RECORDER
        .with(|r| r.borrow_mut().take())
        .map(|rec| rec.spans)
        .unwrap_or_default();
    Trace { spans }
}

/// Runs `f`, recording it as a span of `layer` when recording is on.
pub fn span<T>(layer: Layer, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
    let id = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let id = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            id,
            parent: rec.open.last().copied(),
            layer,
            name,
            request,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        Some(id)
    });
    let out = f();
    if let Some(id) = id {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[id].end_ns = rec.origin.elapsed().as_nanos() as u64;
                let popped = rec.open.pop();
                debug_assert_eq!(popped, Some(id), "spans must nest");
            }
        });
    }
    out
}

/// A finished trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Spans in start order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Durations in milliseconds of every span named `name` in `layer`
    /// (optionally only those of one request).
    pub fn durations_ms(&self, layer: Layer, name: &str, request: Option<u64>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .filter(|s| request.is_none_or(|r| s.request == r))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time per layer in milliseconds: span durations minus the time
    /// their direct children cover. Layers without spans report zero.
    pub fn self_ms(&self) -> BTreeMap<Layer, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<Layer, f64> = Layer::ALL.iter().map(|&l| (l, 0.0)).collect();
        for s in &self.spans {
            let own = s.dur_ns().saturating_sub(child_ns[s.id]);
            *out.get_mut(&s.layer).expect("every layer is listed") += own as f64 / 1e6;
        }
        out
    }

    /// Total time covered by root spans (spans without a parent), in ms.
    pub fn root_ms(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// The trace as tab-separated text: one header line, one span a line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tlayer\tname\trequest\tstart_ns\tend_ns\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.id,
                parent,
                s.layer.name(),
                s.name,
                s.request,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }

    /// Writes [`Trace::to_tsv`] to `path`, creating parent directories.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, self.to_tsv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        start();
        span(Layer::Core, "outer", 0, || {
            span(Layer::Models, "inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let trace = finish();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[1].parent, Some(0));
        let own = trace.self_ms();
        assert!(own[&Layer::Models] >= 5.0);
        assert!(own[&Layer::Core] < own[&Layer::Models]);
        let total: f64 = own.values().sum();
        assert!((total - trace.root_ms()).abs() < 1e-6);
    }

    #[test]
    fn spans_are_free_when_recording_is_off() {
        assert!(!enabled());
        assert_eq!(span(Layer::Tensor, "k", 0, || 7), 7);
        assert!(finish().spans.is_empty());
    }
}

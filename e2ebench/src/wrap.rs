//! Timing wrappers around the repository's extension points: a
//! [`CheckpointSink`] and a data-parallel replica. Both forward every call
//! unchanged, so a wrapped run is `deterministic_eq` to an unwrapped one;
//! they only add spans (when tracing) and counters.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use aibench_ckpt::{CheckpointSink, CkptError, State};
use aibench_models::{DataParallel, Trainer};
use aibench_tensor::Rng;

use crate::metrics::RunOutput;
use crate::stats;
use crate::trace::{span, Layer};

/// Counters shared by every [`TimedSink`] cloned from one handle.
#[derive(Debug, Clone, Default)]
pub struct SinkStats {
    /// Save latencies, microseconds.
    pub save_us: Vec<f64>,
    /// Load latencies, microseconds.
    pub load_us: Vec<f64>,
    /// Bytes handed to `save`.
    pub bytes_saved: u64,
    /// Restart recoveries: seconds from a resumed session's first look at
    /// the store (the `epochs` listing that starts its restore) to the end
    /// of its first new save. Only restarts that loaded a snapshot and then
    /// saved one count.
    pub recover_s: Vec<f64>,
    last_listing: Option<Instant>,
    restart_started: Option<Instant>,
}

impl SinkStats {
    /// Records the `ckpt.*` per-layer metrics.
    pub fn record(&self, out: &mut RunOutput) {
        let saves = self.save_us.len();
        out.layer("ckpt.save_us.p50", stats::median(&self.save_us));
        out.layer("ckpt.load_us.p50", stats::median(&self.load_us));
        out.layer("ckpt.saves", saves as f64);
        out.layer("ckpt.loads", self.load_us.len() as f64);
        out.layer(
            "ckpt.bytes_per_save",
            self.bytes_saved as f64 / saves.max(1) as f64,
        );
    }
}

/// Shared handle to [`SinkStats`].
pub type SinkStatsHandle = Rc<RefCell<SinkStats>>;

/// A [`CheckpointSink`] that times every call and forwards it to `inner`.
pub struct TimedSink<S> {
    inner: S,
    request: u64,
    stats: SinkStatsHandle,
}

impl<S: CheckpointSink> TimedSink<S> {
    /// Wraps `inner`; spans carry `request`, counters go to `stats`.
    pub fn new(inner: S, request: u64, stats: SinkStatsHandle) -> Self {
        TimedSink {
            inner,
            request,
            stats,
        }
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: CheckpointSink> CheckpointSink for TimedSink<S> {
    fn save(&mut self, epoch: usize, bytes: &[u8]) -> Result<(), CkptError> {
        let t = Instant::now();
        let out = span(Layer::Ckpt, "save", self.request, || {
            self.inner.save(epoch, bytes)
        });
        let end = Instant::now();
        let mut st = self.stats.borrow_mut();
        st.save_us.push((end - t).as_secs_f64() * 1e6);
        st.bytes_saved += bytes.len() as u64;
        if let Some(start) = st.restart_started.take() {
            st.recover_s.push((end - start).as_secs_f64());
        }
        out
    }

    fn epochs(&self) -> Vec<usize> {
        {
            // A listing starts a (re)start's restore; a restart that
            // loaded but never saved (it converged) leaves no sample.
            let mut st = self.stats.borrow_mut();
            st.last_listing = Some(Instant::now());
            st.restart_started = None;
        }
        span(Layer::Ckpt, "epochs", self.request, || self.inner.epochs())
    }

    fn load(&self, epoch: usize) -> Result<Option<Vec<u8>>, CkptError> {
        let t = Instant::now();
        let out = span(Layer::Ckpt, "load", self.request, || self.inner.load(epoch));
        let mut st = self.stats.borrow_mut();
        st.load_us.push(t.elapsed().as_secs_f64() * 1e6);
        if st.restart_started.is_none() {
            st.restart_started = st.last_listing;
        }
        out
    }

    fn remove(&mut self, epoch: usize) {
        span(Layer::Ckpt, "remove", self.request, || {
            self.inner.remove(epoch)
        })
    }
}

/// A data-parallel replica that records each hook call as a span:
/// `forward_backward` and the trainer methods under `models`,
/// `apply_update` (the optimizer step) under `nn`.
pub struct TimedReplica {
    inner: Box<dyn DataParallel>,
    request: u64,
}

impl TimedReplica {
    /// Wraps `inner`; spans carry `request`.
    pub fn new(inner: Box<dyn DataParallel>, request: u64) -> Self {
        TimedReplica { inner, request }
    }
}

impl Trainer for TimedReplica {
    fn train_epoch(&mut self) -> f32 {
        span(Layer::Models, "train_epoch", self.request, || {
            self.inner.train_epoch()
        })
    }

    fn evaluate(&mut self) -> f64 {
        span(Layer::Models, "evaluate", self.request, || {
            self.inner.evaluate()
        })
    }

    fn param_count(&self) -> usize {
        self.inner.param_count()
    }

    fn params(&self) -> Vec<aibench_autograd::Param> {
        self.inner.params()
    }

    fn save_state(&self, state: &mut State) {
        self.inner.save_state(state)
    }

    fn load_state(&mut self, state: &State) -> Result<(), CkptError> {
        self.inner.load_state(state)
    }

    fn scale_lr(&mut self, factor: f32) {
        self.inner.scale_lr(factor)
    }
}

impl DataParallel for TimedReplica {
    fn train_len(&self) -> usize {
        self.inner.train_len()
    }

    fn global_batch(&self) -> usize {
        self.inner.global_batch()
    }

    fn data_rng(&self) -> Rng {
        self.inner.data_rng()
    }

    fn forward_backward(&mut self, idx: &[usize]) -> f32 {
        span(Layer::Models, "forward_backward", self.request, || {
            self.inner.forward_backward(idx)
        })
    }

    fn apply_update(&mut self) {
        span(Layer::Nn, "apply_update", self.request, || {
            self.inner.apply_update()
        })
    }
}

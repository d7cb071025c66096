//! End-to-end benchmark of the AIBench workspace.
//!
//! Three workloads, each run by one process with at most `nproc` threads:
//!
//! * [`train_suite`] — every registered benchmark trained to quality, one
//!   session at a time (closed loop);
//! * [`serve_open`] — an open-loop arrival schedule of short training
//!   sessions served by `aibench-serve`'s `ServerCore`, every message
//!   through the wire codec;
//! * [`ckpt_resume`] — two sessions killed and resumed from on-disk
//!   snapshots: a checkpointed single-worker run and an elastic 4-worker
//!   data-parallel run.
//!
//! Every run checks its outputs against committed reference digests
//! ([`digest`]). A traced run ([`trace`]) records spans around the calls
//! into each layer and reports per-layer numbers. See `METRICS.md` for the
//! metric → layer → workload table.

#![forbid(unsafe_code)]

pub mod ckpt_resume;
pub mod digest;
pub mod metrics;
pub mod serve_open;
pub mod stats;
pub mod trace;
pub mod train_suite;
pub mod wrap;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use aibench::registry::{Benchmark, Registry};

use crate::digest::References;

/// The workloads, by command-line name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// See [`train_suite`].
    TrainSuite,
    /// See [`serve_open`].
    ServeOpen,
    /// See [`ckpt_resume`].
    CkptResume,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::TrainSuite,
        Workload::ServeOpen,
        Workload::CkptResume,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TrainSuite => "train_suite",
            Workload::ServeOpen => "serve_open",
            Workload::CkptResume => "ckpt_resume",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Size of a run: the measured configuration, or a seconds-long smoke
/// configuration for tests (shorter sessions, same code paths, same
/// metric names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark as measured.
    Full,
    /// A small configuration for tests.
    Smoke,
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget.
    pub seconds: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Run size.
    pub scale: Scale,
}

/// What set-up builds before the first workload call.
pub struct Ctx {
    /// The full benchmark registry.
    pub registry: Registry,
    /// The committed reference digests.
    pub refs: References,
    /// A fresh scratch directory for this set-up, removed on drop.
    pub tmp: PathBuf,
}

static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Directory for the benchmark's scratch files and trace output, inside
/// the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".out")
}

impl Ctx {
    /// Builds the registry, loads the reference digests, installs the
    /// default thread count, and makes a scratch directory.
    pub fn new() -> Result<Ctx, String> {
        aibench_parallel::ParallelConfig::from_env().install();
        let registry = Registry::all();
        let refs = References::load()?;
        let tmp = out_dir().join(format!(
            "tmp-{}-{}",
            std::process::id(),
            TMP_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
        Ok(Ctx {
            registry,
            refs,
            tmp,
        })
    }

    /// A registered benchmark by code.
    pub fn bench(&self, code: &str) -> &Benchmark {
        self.registry
            .get(code)
            .unwrap_or_else(|| panic!("benchmark {code} is registered"))
    }
}

impl Drop for Ctx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.tmp);
    }
}

/// SplitMix64: the benchmark's own seeded generator for workload inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 21;

/// Workload inputs built during set-up.
pub enum Prepared {
    /// `train_suite` needs nothing beyond the context.
    TrainSuite,
    /// `serve_open`'s arrival schedule.
    ServeOpen(serve_open::Schedule),
    /// `ckpt_resume` needs nothing beyond the context.
    CkptResume,
}

/// Workload-specific set-up: pre-builds the trainers the workload runs and
/// generates its inputs from the seed.
pub fn prepare(workload: Workload, ctx: &Ctx, opts: &Opts) -> Prepared {
    match workload {
        Workload::TrainSuite => {
            train_suite::prepare(ctx);
            Prepared::TrainSuite
        }
        Workload::ServeOpen => {
            serve_open::prepare(ctx);
            Prepared::ServeOpen(serve_open::schedule(opts.seed, opts.seconds))
        }
        Workload::CkptResume => {
            ckpt_resume::prepare(ctx);
            Prepared::CkptResume
        }
    }
}

/// A finished run: set-up timings, the workload's output, peak memory.
pub struct Report {
    /// Workload run.
    pub workload: Workload,
    /// Options it ran with.
    pub opts: Opts,
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The workload's output.
    pub out: metrics::RunOutput,
    /// Process high-water RSS after the run, MB.
    pub peak_rss_mb: f64,
}

/// Sets up [`SETUP_REPS`] times (keeping the last), runs the workload, and
/// reads peak memory.
pub fn run(workload: Workload, opts: Opts) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    for _ in 1..SETUP_REPS {
        let t = std::time::Instant::now();
        let ctx = Ctx::new()?;
        let prepared = prepare(workload, &ctx, &opts);
        setup_s.push(t.elapsed().as_secs_f64());
        drop((prepared, ctx));
    }
    let t = std::time::Instant::now();
    let ctx = Ctx::new()?;
    let prepared = prepare(workload, &ctx, &opts);
    setup_s.push(t.elapsed().as_secs_f64());
    let out = match &prepared {
        Prepared::TrainSuite => train_suite::run(&ctx, &opts),
        Prepared::ServeOpen(sched) => serve_open::run(&ctx, &opts, sched),
        Prepared::CkptResume => ckpt_resume::run(&ctx, &opts),
    };
    let peak_rss_mb = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    Ok(Report {
        workload,
        opts,
        setup_s,
        out,
        peak_rss_mb,
    })
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.out.errors.is_empty() && self.out.work.is_some() && self.out.attempted() > 0
    }

    /// The gated metrics of this run: end-to-end untraced, per-layer
    /// traced.
    pub fn metrics(&self) -> Vec<(String, &'static str, f64)> {
        if self.opts.trace {
            metrics::per_layer_names()
                .into_iter()
                .map(|(name, unit)| {
                    let v = self.out.layers.get(&name).copied().unwrap_or(0.0);
                    (name, unit, if v.is_finite() { v } else { 0.0 })
                })
                .collect()
        } else {
            let values = [
                stats::median(&self.setup_s),
                self.peak_rss_mb,
                self.out.work.as_ref().map_or(f64::NAN, |m| m.value),
            ];
            metrics::E2E
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name.to_string(), unit, v))
                .collect()
        }
    }

    /// The last output line.
    pub fn json(&self) -> String {
        metrics::json_line(
            self.correct(),
            self.out.attempted(),
            self.out.failed(),
            &self.metrics(),
        )
    }

    /// The human-readable report printed before the JSON line.
    pub fn text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "workload {} seed {} seconds {} trace {} threads {} (available {})",
            self.workload.name(),
            self.opts.seed,
            self.opts.seconds.as_secs_f64(),
            u8::from(self.opts.trace),
            aibench_parallel::threads(),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        );
        let _ = writeln!(s, "end-to-end:");
        let setup = metrics::Metric::median_of("setup_s", "s", &self.setup_s);
        let rss = metrics::Metric::single("peak_rss_mb", "MB", self.peak_rss_mb);
        let mut named = vec![setup, rss];
        named.extend(self.out.named.iter().cloned());
        named.extend(self.out.work.iter().cloned());
        for m in &named {
            let _ = writeln!(s, "{}", metrics::describe(m));
        }
        let _ = writeln!(s, "operations:");
        for a in &self.out.accounting {
            let _ = writeln!(
                s,
                "  {:<10} sent {:>6} ok {:>6} failed {:>4}",
                a.phase, a.sent, a.ok, a.failed
            );
        }
        for n in &self.out.notes {
            let _ = writeln!(s, "  {n}");
        }
        if self.opts.trace {
            let _ = writeln!(s, "per-layer (traced run):");
            for (name, unit, v) in self.metrics() {
                let _ = writeln!(s, "  {name:<36} {v:>16.4} {unit}");
            }
        }
        for e in &self.out.errors {
            let _ = writeln!(s, "CHECK FAILED: {e}");
        }
        s
    }
}

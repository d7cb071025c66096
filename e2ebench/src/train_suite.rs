//! `train_suite`: every registered benchmark trained to quality through
//! `run_to_quality`, one session at a time (a closed loop of one client),
//! at the default thread count.
//!
//! The workload seed sets the order the 24 sessions run in. Training seeds
//! are the fixed reference seed [`TRAIN_SEED`]: time-to-quality varies up
//! to 2× with the training seed, so a seed-dependent suite would swamp
//! any regression bound with input noise. The run repeats the suite while
//! the time budget allows and reports per-benchmark medians.

use std::time::{Duration, Instant};

use aibench::registry::Benchmark;
use aibench::runner::{run_to_quality, RunConfig, RunResult};
use aibench_dist::{run_data_parallel, DistConfig, DistRunResult, RunParams};
use aibench_models::DataParallel;
use aibench_tensor::ops::{self, Conv2dArgs};
use aibench_tensor::{Rng, Tensor};

use crate::digest::run_digest;
use crate::metrics::{Accounting, Metric, RunOutput, CODES, DP_CODES, RPR};
use crate::stats;
use crate::trace::{self, span, Layer, Trace};
use crate::wrap::TimedReplica;
use crate::{Ctx, Opts, Scale, SplitMix};

/// Training seed of every suite session (and of its reference digest).
pub const TRAIN_SEED: u64 = 1;

/// Epochs per benchmark in the one-thread-versus-default probe.
const SPEEDUP_EPOCHS: usize = 2;

/// Suite passes of an untraced full run, at least: with three, the
/// per-benchmark median drops one disturbed pass.
const MIN_PASSES: usize = 3;

/// Epoch cap of a suite session at `scale`.
pub fn max_epochs(scale: Scale) -> usize {
    match scale {
        Scale::Full => 60,
        Scale::Smoke => 2,
    }
}

/// Reference-table key of one suite session.
pub fn key(code: &str, max_epochs: usize) -> String {
    format!("train {code} seed={TRAIN_SEED} max_epochs={max_epochs}")
}

fn config(scale: Scale) -> RunConfig {
    RunConfig {
        max_epochs: max_epochs(scale),
        ..RunConfig::default()
    }
}

/// Set-up work: builds every benchmark once, so a registry entry that
/// cannot build fails before the clock starts.
pub fn prepare(ctx: &Ctx) -> usize {
    ctx.registry
        .benchmarks()
        .iter()
        .map(|b| std::hint::black_box(b.build(TRAIN_SEED)).param_count())
        .sum()
}

/// The session order for a workload seed (indices into the registry).
fn order(seed: u64, n: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    SplitMix::new(seed).shuffle(&mut idx);
    idx
}

/// `run_to_quality` with a span per call: the runner's own loop, driven
/// here so each `build`, `train_epoch`, and `evaluate` is a span. The
/// result is checked against the same reference digest as the plain run.
fn traced_session(b: &Benchmark, request: u64, cfg: &RunConfig) -> RunResult {
    span(Layer::Core, "run_to_quality", request, || {
        let start = Instant::now();
        let mut trainer = span(Layer::Core, "Benchmark::build", request, || {
            b.build(TRAIN_SEED)
        });
        let mut quality_trace = Vec::new();
        let mut loss_trace = Vec::new();
        let mut epochs_to_target = None;
        let mut final_quality = f64::NAN;
        let mut epochs_run = 0;
        for epoch in 1..=cfg.max_epochs {
            loss_trace.push(span(Layer::Models, "train_epoch", request, || {
                trainer.train_epoch()
            }));
            epochs_run = epoch;
            if epoch % cfg.eval_every.max(1) == 0 || epoch == cfg.max_epochs {
                let q = span(Layer::Models, "evaluate", request, || trainer.evaluate());
                quality_trace.push((epoch, q));
                final_quality = q;
                if b.target.met_by(q) {
                    epochs_to_target = Some(epoch);
                    break;
                }
            }
        }
        RunResult {
            code: b.id.code().to_string(),
            seed: TRAIN_SEED,
            epochs_run,
            epochs_to_target,
            quality_trace,
            loss_trace,
            final_quality,
            wall_seconds: start.elapsed().as_secs_f64(),
            resumed_from: None,
        }
    })
}

/// One pass over the suite in `order`; returns per-benchmark wall seconds
/// (registry-indexed) and appends digest mismatches to `errors`.
fn pass(
    ctx: &Ctx,
    opts: &Opts,
    order: &[usize],
    traced: bool,
    errors: &mut Vec<String>,
) -> Vec<f64> {
    let cfg = config(opts.scale);
    let benches = ctx.registry.benchmarks();
    let mut walls = vec![0.0; benches.len()];
    for &i in order {
        let b = &benches[i];
        let t = Instant::now();
        let result = if traced {
            traced_session(b, i as u64, &cfg)
        } else {
            run_to_quality(b, TRAIN_SEED, &cfg)
        };
        walls[i] = t.elapsed().as_secs_f64();
        if let Err(e) = ctx
            .refs
            .check(&key(b.id.code(), cfg.max_epochs), run_digest(&result))
        {
            errors.push(e);
        }
    }
    walls
}

/// Runs the workload.
pub fn run(ctx: &Ctx, opts: &Opts) -> RunOutput {
    let benches = ctx.registry.benchmarks();
    let order = order(opts.seed, benches.len());
    let mut out = RunOutput::default();
    let mut errors = Vec::new();
    // per_bench[i] holds benchmark i's wall seconds, one entry per pass.
    let mut per_bench: Vec<Vec<f64>> = vec![Vec::new(); benches.len()];
    let mut pass_sums = Vec::new();
    let start = Instant::now();
    loop {
        let walls = pass(ctx, opts, &order, false, &mut errors);
        let sum: f64 = walls.iter().sum();
        pass_sums.push(sum);
        for (i, w) in walls.into_iter().enumerate() {
            per_bench[i].push(w);
        }
        let next_end = start.elapsed() + Duration::from_secs_f64(sum);
        let enough = pass_sums.len() >= MIN_PASSES && next_end > opts.seconds;
        if opts.trace || opts.scale == Scale::Smoke || enough {
            break;
        }
    }
    let passes = pass_sums.len();
    let medians: Vec<f64> = per_bench.iter().map(|s| stats::median(s)).collect();
    let sum_over = |codes: &[&str]| -> f64 {
        benches
            .iter()
            .zip(&medians)
            .filter(|(b, _)| codes.contains(&b.id.code()))
            .map(|(_, m)| m)
            .sum()
    };
    let suite = Metric {
        name: "suite_ttq_s".into(),
        unit: "s",
        value: medians.iter().sum(),
        n: passes,
        spread: stats::iqr_share(&pass_sums),
    };
    let rpr_sums: Vec<f64> = (0..passes)
        .map(|p| {
            benches
                .iter()
                .zip(&per_bench)
                .filter(|(b, _)| RPR.contains(&b.id.code()))
                .map(|(_, s)| s[p])
                .sum()
        })
        .collect();
    let rpr = Metric {
        name: "rpr_ttq_s".into(),
        unit: "s",
        value: sum_over(&RPR),
        n: passes,
        spread: stats::iqr_share(&rpr_sums),
    };
    for (b, m) in benches.iter().zip(&medians) {
        out.notes.push(format!(
            "ttq_s {:<20} {m:.4} (median of {passes})",
            b.id.code()
        ));
    }
    out.work = Some(Metric {
        name: "work_s".into(),
        ..suite.clone()
    });
    out.named = vec![suite, rpr];

    if opts.trace {
        let untraced_ms = pass_sums[0] * 1e3;
        trace::start();
        let t = Instant::now();
        pass(ctx, opts, &order, true, &mut errors);
        let traced_ms = t.elapsed().as_secs_f64() * 1e3;
        let tr = trace::finish();
        layer_metrics(ctx, &tr, &mut out);
        let residue_ms = traced_ms - tr.root_ms();
        out.record_trace(tr, untraced_ms, traced_ms, residue_ms);
        probes(ctx, opts, &mut out, &mut errors);
    }

    let sessions = (passes + usize::from(opts.trace)) * benches.len();
    out.accounting.push(Accounting {
        phase: "sessions".into(),
        sent: sessions as u64,
        ok: (sessions - errors.len().min(sessions)) as u64,
        failed: errors.len().min(sessions) as u64,
    });
    out.errors = errors;
    out
}

/// Per-benchmark epoch and evaluation medians and build time, from the
/// traced pass.
fn layer_metrics(ctx: &Ctx, tr: &Trace, out: &mut RunOutput) {
    for (i, b) in ctx.registry.benchmarks().iter().enumerate() {
        let code = b.id.code();
        let epochs = tr.durations_ms(Layer::Models, "train_epoch", Some(i as u64));
        let evals = tr.durations_ms(Layer::Models, "evaluate", Some(i as u64));
        out.layer(format!("models.epoch_ms.{code}"), stats::median(&epochs));
        out.layer(format!("models.eval_ms.{code}"), stats::median(&evals));
    }
    let builds: f64 = tr
        .durations_ms(Layer::Core, "Benchmark::build", None)
        .iter()
        .sum();
    out.layer("core.build_ms", builds);
}

/// Side measurements of the traced run, outside the timed passes: the
/// data-parallel split of three benchmarks' epochs, the one-thread versus
/// default-thread epoch ratio, and kernel throughput.
fn probes(ctx: &Ctx, opts: &Opts, out: &mut RunOutput, errors: &mut Vec<String>) {
    let cfg = config(opts.scale);
    // forward_backward + apply_update reproduce train_epoch bit for bit;
    // a one-worker data-parallel run is deterministic_eq to
    // run_to_quality, so it is checked against the same digest.
    for code in DP_CODES {
        let b = ctx.bench(code);
        trace::start();
        let factory = |s: u64| -> Box<dyn DataParallel> {
            Box::new(TimedReplica::new(
                b.build_data_parallel(s)
                    .expect("benchmark has data-parallel hooks"),
                0,
            ))
        };
        let target = |q: f64| b.target.met_by(q);
        let params = RunParams {
            max_epochs: cfg.max_epochs,
            eval_every: cfg.eval_every,
            snapshot_every: 0,
        };
        let dist = run_data_parallel(
            &factory,
            TRAIN_SEED,
            &target,
            &params,
            &DistConfig::with_world(1),
        );
        let tr = trace::finish();
        let as_run = dist_as_run(code, &dist);
        if let Err(e) = ctx
            .refs
            .check(&key(code, cfg.max_epochs), run_digest(&as_run))
        {
            errors.push(format!("one-worker data-parallel {e}"));
        }
        let epochs = dist.epochs_run.max(1) as f64;
        let total = |layer, name| -> f64 { tr.durations_ms(layer, name, None).iter().sum() };
        out.layer(
            format!("models.fwd_bwd_ms.{code}"),
            total(Layer::Models, "forward_backward") / epochs,
        );
        out.layer(
            format!("nn.optimizer_ms.{code}"),
            total(Layer::Nn, "apply_update") / epochs,
        );
    }

    // One thread versus the default thread count, the first epochs of
    // every benchmark, alternating so drift hits both sides alike.
    let default_threads = aibench_parallel::threads();
    let mut at = [0.0f64; 2];
    for b in ctx.registry.benchmarks() {
        let mut here = [0.0f64; 2];
        for (side, threads) in [(0, default_threads), (1, 1)] {
            aibench_parallel::set_threads(threads);
            let mut trainer = b.build(TRAIN_SEED);
            for _ in 0..SPEEDUP_EPOCHS {
                let t = Instant::now();
                std::hint::black_box(trainer.train_epoch());
                here[side] += t.elapsed().as_secs_f64();
            }
        }
        out.notes.push(format!(
            "epoch time at 1 thread / at {default_threads}: {:<20} {:.3}",
            b.id.code(),
            here[1] / here[0]
        ));
        at[0] += here[0];
        at[1] += here[1];
    }
    aibench_parallel::set_threads(default_threads);
    out.layer("parallel.epoch_speedup", at[1] / at[0]);
    out.notes.push(format!(
        "first {SPEEDUP_EPOCHS} epochs of all {} benchmarks: {:.3} s at 1 thread, {:.3} s at {default_threads}",
        CODES.len(),
        at[1],
        at[0]
    ));

    for (name, gflops) in kernel_gflops(opts.scale) {
        out.layer(name, gflops);
    }
}

/// Re-shapes a one-worker data-parallel result as a runner result.
fn dist_as_run(code: &str, d: &DistRunResult) -> RunResult {
    RunResult {
        code: code.to_string(),
        seed: d.seed,
        epochs_run: d.epochs_run,
        epochs_to_target: d.epochs_to_target,
        quality_trace: d.quality_trace.clone(),
        loss_trace: d.loss_trace.clone(),
        final_quality: d.final_quality,
        wall_seconds: 0.0,
        resumed_from: d.resumed_from,
    }
}

/// Throughput of four public kernels at shapes the C1 (conv) and C3
/// (transformer) trainers use; FLOPs are counted from the shapes.
fn kernel_gflops(scale: Scale) -> Vec<(&'static str, f64)> {
    let budget = match scale {
        Scale::Full => Duration::from_millis(150),
        Scale::Smoke => Duration::from_millis(5),
    };
    let mut rng = Rng::seed_from(7);
    let mut t = |shape: &[usize]| Tensor::randn(shape, &mut rng);
    // C3 feed-forward GEMM: [b*w, d] x [d, ffn] = [128, 24] x [24, 48].
    let (a, bm) = (t(&[128, 24]), t(&[24, 48]));
    // C3 attention scores: [b*heads, w, dh] x [b*heads, dh, w].
    let (q, k) = (t(&[32, 8, 12]), t(&[32, 12, 8]));
    // C1 residual-block conv: [32, 8, 12, 12] * [8, 8, 3, 3], pad 1.
    let (x, w) = (t(&[32, 8, 12, 12]), t(&[8, 8, 3, 3]));
    let args = Conv2dArgs::new(1, 1);
    let gy = t(&[32, 8, 12, 12]);
    let conv_flops = 2.0 * (32 * 8 * 12 * 12 * 8 * 9) as f64;
    vec![
        (
            "tensor.matmul_gflops",
            rate(2.0 * (128 * 24 * 48) as f64, budget, || {
                ops::matmul(&a, &bm)
            }),
        ),
        (
            "tensor.batch_matmul_gflops",
            rate(2.0 * (32 * 8 * 12 * 8) as f64, budget, || {
                ops::batch_matmul(&q, &k)
            }),
        ),
        (
            "tensor.conv2d_gflops",
            rate(conv_flops, budget, || ops::conv2d(&x, &w, args)),
        ),
        (
            "tensor.conv2d_bwd_weight_gflops",
            rate(conv_flops, budget, || {
                ops::conv2d_backward_weight(&x, &gy, (3, 3), args)
            }),
        ),
    ]
}

/// GFLOP/s of `f` doing `flops` per call, timed over at least `budget`.
fn rate(flops: f64, budget: Duration, mut f: impl FnMut() -> Tensor) -> f64 {
    std::hint::black_box(f());
    let start = Instant::now();
    let mut calls = 0u64;
    while start.elapsed() < budget || calls == 0 {
        std::hint::black_box(f());
        calls += 1;
    }
    flops * calls as f64 / start.elapsed().as_secs_f64() / 1e9
}

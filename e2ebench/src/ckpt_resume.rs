//! `ckpt_resume`: two training sessions killed and resumed from snapshots
//! on disk (a closed loop: each session starts when the previous ends).
//!
//! * Session (a) trains DC-AI-C13 through `fault_injection_run`, saving a
//!   snapshot after every epoch into a `DirSink` and killed every
//!   [`KILL_EVERY`] epochs, until a session completes.
//! * Session (b) trains DC-AI-C1 as a 4-worker data-parallel group through
//!   `run_data_parallel_resumable`, snapshotting every epoch, with one
//!   planned leave and one planned join; it is killed once (its first call
//!   is capped at the kill epoch) and resumed.
//!
//! The workload seed picks session (b)'s kill epoch and leaving worker.
//! Both results are checked against the digests of uninterrupted runs.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use aibench::ckpt::{fault_injection_run, latest_valid_restore};
use aibench::runner::RunConfig;
use aibench_ckpt::{CheckpointSink, CkptError, DirSink};
use aibench_dist::{
    run_data_parallel, run_data_parallel_resumable, DistConfig, DistRunResult, MembershipPlan,
    RunParams,
};
use aibench_models::DataParallel;

use crate::digest::{dist_digest, run_digest};
use crate::metrics::{Accounting, Metric, RunOutput};
use crate::stats;
use crate::trace::{self, span, Layer};
use crate::train_suite::{self, TRAIN_SEED};
use crate::wrap::{SinkStats, SinkStatsHandle, TimedReplica, TimedSink};
use crate::{Ctx, Opts, Scale, SplitMix};

/// Session (a)'s benchmark.
pub const SINGLE: &str = "DC-AI-C13";
/// Session (b)'s benchmark.
pub const GROUP: &str = "DC-AI-C1";
/// Session (a) is killed after this many epochs of every restart.
pub const KILL_EVERY: usize = 2;
/// Session (b)'s initial world size.
pub const WORLD: usize = 4;
/// Epoch at whose start one worker leaves session (b).
pub const LEAVE_AT: usize = 2;
/// Epoch at whose start a new worker joins session (b).
pub const JOIN_AT: usize = 4;
/// Epochs in the world-4 versus world-1 timing probe.
const SCALING_EPOCHS: usize = 2;

/// Session (b)'s inputs for one workload seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupPlan {
    /// Worker that leaves at [`LEAVE_AT`].
    pub leaver: u32,
    /// The first call is capped at this epoch (the kill).
    pub kill_at: usize,
}

impl GroupPlan {
    /// The plan for a workload seed.
    pub fn for_seed(seed: u64) -> GroupPlan {
        let mut rng = SplitMix::new(seed ^ 0xc4b7_0000);
        GroupPlan {
            leaver: rng.below(WORLD) as u32,
            kill_at: 2 + rng.below(2),
        }
    }

    /// Every plan a seed can produce.
    pub fn all() -> Vec<GroupPlan> {
        (0..WORLD as u32)
            .flat_map(|leaver| (2..4).map(move |kill_at| GroupPlan { leaver, kill_at }))
            .collect()
    }

    fn dist_config(&self) -> DistConfig {
        DistConfig {
            membership: MembershipPlan::empty()
                .leave(LEAVE_AT, self.leaver)
                .join(JOIN_AT, WORLD as u32),
            ..DistConfig::with_world(WORLD)
        }
    }
}

/// Epoch caps of the two sessions at `scale`.
pub fn max_epochs(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Full => (60, 60),
        Scale::Smoke => (4, 5),
    }
}

/// Reference-table key of session (b). The kill epoch is not part of it:
/// a resumed run must equal the uninterrupted one wherever it was killed.
pub fn group_key(plan: &GroupPlan, max_epochs: usize) -> String {
    format!(
        "dist {GROUP} seed={TRAIN_SEED} world={WORLD} leave={LEAVE_AT}:{} join={JOIN_AT}:{WORLD} max_epochs={max_epochs}",
        plan.leaver
    )
}

fn params(max_epochs: usize) -> RunParams {
    RunParams {
        max_epochs,
        eval_every: 1,
        snapshot_every: 1,
    }
}

/// Uninterrupted reference of session (b).
pub fn group_reference(ctx: &Ctx, plan: &GroupPlan, max_epochs: usize) -> u64 {
    let b = ctx.bench(GROUP);
    let factory = |s: u64| {
        b.build_data_parallel(s)
            .expect("C1 has data-parallel hooks")
    };
    let target = |q: f64| b.target.met_by(q);
    let mut p = params(max_epochs);
    p.snapshot_every = 0;
    dist_digest(&run_data_parallel(
        &factory,
        TRAIN_SEED,
        &target,
        &p,
        &plan.dist_config(),
    ))
}

/// Set-up work: builds both sessions' trainers once.
pub fn prepare(ctx: &Ctx) -> usize {
    let single = ctx.bench(SINGLE).build(TRAIN_SEED).param_count();
    let group = ctx
        .bench(GROUP)
        .build_data_parallel(TRAIN_SEED)
        .expect("C1 has data-parallel hooks")
        .param_count();
    std::hint::black_box(single + group)
}

/// A read-only view of a sink listing only epochs up to `max`: the store
/// as a restart after a kill at `max` found it.
struct UpTo<'a> {
    inner: &'a dyn CheckpointSink,
    max: usize,
}

impl CheckpointSink for UpTo<'_> {
    fn save(&mut self, _epoch: usize, _bytes: &[u8]) -> Result<(), CkptError> {
        unreachable!("the restore probe only reads")
    }

    fn epochs(&self) -> Vec<usize> {
        self.inner
            .epochs()
            .into_iter()
            .filter(|&e| e <= self.max)
            .collect()
    }

    fn load(&self, epoch: usize) -> Result<Option<Vec<u8>>, CkptError> {
        self.inner.load(epoch)
    }

    fn remove(&mut self, _epoch: usize) {
        unreachable!("the restore probe only reads")
    }
}

/// What one round (both sessions) measured.
struct Round {
    wall: Duration,
    kills: usize,
    resume_points: Vec<usize>,
    group: Option<DistRunResult>,
    group_epoch_s: f64,
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

/// Runs both sessions once in a fresh directory under `dir`.
fn round(
    ctx: &Ctx,
    opts: &Opts,
    dir: &Path,
    stats: &SinkStatsHandle,
    errors: &mut Vec<String>,
) -> Result<Round, String> {
    let (max_a, max_b) = max_epochs(opts.scale);
    let plan = GroupPlan::for_seed(opts.seed);
    let start = Instant::now();

    // Session (a): killed every KILL_EVERY epochs until it completes.
    let single = ctx.bench(SINGLE);
    let cfg = RunConfig {
        max_epochs: max_a,
        checkpoint_every: 1,
        ..RunConfig::default()
    };
    let mut sink_a = TimedSink::new(
        DirSink::new(dir.join("a"), SINGLE).map_err(io)?,
        0,
        stats.clone(),
    );
    let report = span(Layer::Core, "fault_injection_run", 0, || {
        fault_injection_run(single, TRAIN_SEED, &cfg, &mut sink_a, KILL_EVERY)
    })
    .map_err(|e| format!("{SINGLE} fault-injection run: {e}"))?;
    if let Err(e) = ctx
        .refs
        .check(&train_suite::key(SINGLE, max_a), run_digest(&report.result))
    {
        errors.push(format!("resumed {e}"));
    }
    if report.kills == 0 {
        errors.push(format!("{SINGLE}: session was never killed"));
    }
    // One entry per kill (the newest snapshot the next restart found),
    // then the completing session's own resume point again.
    let resume_points: Vec<usize> = report.resume_points[..report.kills]
        .iter()
        .flatten()
        .copied()
        .collect();

    // The restore each restart performed, timed on its own (traced run).
    if trace::enabled() {
        for &point in &resume_points {
            let view = UpTo {
                inner: sink_a.inner(),
                max: point,
            };
            let restored = span(Layer::Core, "latest_valid_restore", 0, || {
                latest_valid_restore(single, TRAIN_SEED, &cfg, &view)
            });
            if restored.map(|(_, _, e)| e) != Some(point) {
                errors.push(format!("{SINGLE}: no valid snapshot at epoch {point}"));
            }
        }
    }

    // Session (b): a 4-worker group, killed once and resumed.
    let b = ctx.bench(GROUP);
    let traced = trace::enabled();
    let factory = |s: u64| -> Box<dyn DataParallel> {
        let replica = b
            .build_data_parallel(s)
            .expect("C1 has data-parallel hooks");
        if traced {
            Box::new(TimedReplica::new(replica, 1))
        } else {
            replica
        }
    };
    let target = |q: f64| b.target.met_by(q);
    let dist = plan.dist_config();
    let mut sink_b = TimedSink::new(
        DirSink::new(dir.join("b"), GROUP).map_err(io)?,
        1,
        stats.clone(),
    );
    let group_start = Instant::now();
    let first = span(Layer::Dist, "run_data_parallel_resumable", 1, || {
        run_data_parallel_resumable(
            &factory,
            TRAIN_SEED,
            &target,
            &params(plan.kill_at),
            &dist,
            &mut sink_b,
        )
    });
    let result = if first.epochs_to_target.is_some() {
        errors.push(format!("{GROUP}: reached its target before the kill"));
        first
    } else {
        span(Layer::Dist, "run_data_parallel_resumable", 1, || {
            run_data_parallel_resumable(
                &factory,
                TRAIN_SEED,
                &target,
                &params(max_b),
                &dist,
                &mut sink_b,
            )
        })
    };
    let group_wall = group_start.elapsed().as_secs_f64();
    if result.resumed_from != Some(plan.kill_at) {
        errors.push(format!(
            "{GROUP}: resumed from {:?}, expected epoch {}",
            result.resumed_from, plan.kill_at
        ));
    }
    if let Err(e) = ctx
        .refs
        .check(&group_key(&plan, max_b), dist_digest(&result))
    {
        errors.push(format!("resumed {e}"));
    }
    let wall = start.elapsed();
    let _ = std::fs::remove_dir_all(dir);
    Ok(Round {
        wall,
        kills: report.kills + 1,
        resume_points,
        group_epoch_s: group_wall / result.epochs_run.max(1) as f64,
        group: Some(result),
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx, opts: &Opts) -> RunOutput {
    let mut out = RunOutput::default();
    let mut errors = Vec::new();
    let stats: SinkStatsHandle = Rc::new(RefCell::new(SinkStats::default()));
    let mut walls = Vec::new();
    let mut rounds = 0u64;
    let mut kills = 0usize;
    let start = Instant::now();
    loop {
        let dir = ctx.tmp.join(format!("round-{rounds}"));
        rounds += 1;
        match round(ctx, opts, &dir, &stats, &mut errors) {
            Ok(r) => {
                walls.push(r.wall.as_secs_f64());
                kills += r.kills;
            }
            Err(e) => {
                errors.push(e);
                break;
            }
        }
        let last = walls.last().copied().unwrap_or(0.0);
        let next_end = start.elapsed() + Duration::from_secs_f64(last);
        if opts.trace || opts.scale == Scale::Smoke || next_end > opts.seconds {
            break;
        }
    }
    let recover = stats.borrow().recover_s.clone();
    let resume = Metric::median_of("resume_ttq_s", "s", &walls);
    let recover_m = Metric::median_of("recover_s", "s", &recover);
    out.work = Some(Metric {
        name: "work_s".into(),
        ..resume.clone()
    });
    out.named = vec![resume, recover_m];
    out.notes.push(format!(
        "{rounds} round(s), {kills} kill(s), {} restart recoveries timed",
        recover.len()
    ));

    if opts.trace {
        let untraced_ms = stats::median(&walls) * 1e3;
        let traced_stats: SinkStatsHandle = Rc::new(RefCell::new(SinkStats::default()));
        trace::start();
        let r = round(
            ctx,
            opts,
            &ctx.tmp.join("traced"),
            &traced_stats,
            &mut errors,
        );
        let tr = trace::finish();
        rounds += 1;
        let (traced_ms, residue_ms) = match r {
            Ok(r) => {
                let restores = tr.durations_ms(Layer::Core, "latest_valid_restore", None);
                // The restore probe runs inside the round but is not part
                // of the sessions: it is left out of the traced time.
                let wall_ms = r.wall.as_secs_f64() * 1e3;
                out.layer("core.restore_ms", stats::median(&restores));
                let group = r.group.expect("the group session ran");
                let epochs = group.epochs_run.max(1) as f64;
                let total =
                    |layer, name| -> f64 { tr.durations_ms(layer, name, Some(1)).iter().sum() };
                out.layer(
                    "dist.fwd_bwd_ms",
                    total(Layer::Models, "forward_backward") / epochs,
                );
                out.layer(
                    "dist.optimizer_ms",
                    total(Layer::Nn, "apply_update") / epochs,
                );
                out.layer("dist.engine_self_ms", tr.self_ms()[&Layer::Dist]);
                out.layer("dist.reshards", group.reshards as f64);
                out.layer("dist.logical_time", group.logical_time as f64);
                out.layer("dist.allreduce_bytes", allreduce_bytes(ctx, &group));
                out.notes.push(format!(
                    "traced round: {} resume points, group epoch {:.4} s",
                    r.resume_points.len(),
                    r.group_epoch_s
                ));
                (
                    wall_ms - restores.iter().sum::<f64>(),
                    wall_ms - tr.root_ms(),
                )
            }
            Err(e) => {
                errors.push(e);
                (0.0, 0.0)
            }
        };
        traced_stats.borrow().record(&mut out);
        out.record_trace(tr, untraced_ms, traced_ms, residue_ms);
        out.layer("dist.w4_over_w1", world_scaling(ctx));
    }

    let sessions = 2 * rounds;
    let failed = errors.len().min(sessions as usize) as u64;
    out.accounting.push(Accounting {
        phase: "sessions".into(),
        sent: sessions,
        ok: sessions - failed,
        failed,
    });
    out.errors = errors;
    out
}

/// Gradient bytes entering the all-reduce, computed (not measured) from
/// the parameter count: every live worker contributes one `f32` gradient
/// per parameter on every step.
fn allreduce_bytes(ctx: &Ctx, group: &DistRunResult) -> f64 {
    let replica = ctx
        .bench(GROUP)
        .build_data_parallel(TRAIN_SEED)
        .expect("C1 has data-parallel hooks");
    let steps = replica.train_len().div_ceil(replica.global_batch());
    let workers: usize = group.world_trace.iter().map(|&(_, w)| w).sum();
    (workers * steps * replica.param_count() * 4) as f64
}

/// Epoch wall time of a static 4-worker group over a 1-worker group, same
/// seed and epochs (no membership changes, no snapshots).
fn world_scaling(ctx: &Ctx) -> f64 {
    let b = ctx.bench(GROUP);
    let factory = |s: u64| {
        b.build_data_parallel(s)
            .expect("C1 has data-parallel hooks")
    };
    let never = |_q: f64| false;
    let p = RunParams {
        max_epochs: SCALING_EPOCHS,
        eval_every: SCALING_EPOCHS,
        snapshot_every: 0,
    };
    let time = |world: usize| {
        let t = Instant::now();
        std::hint::black_box(run_data_parallel(
            &factory,
            TRAIN_SEED,
            &never,
            &p,
            &DistConfig::with_world(world),
        ));
        t.elapsed().as_secs_f64()
    };
    let w1 = time(1);
    let w4 = time(4);
    w4 / w1
}

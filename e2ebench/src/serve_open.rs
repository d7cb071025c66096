//! `serve_open`: an open-loop arrival schedule served in process by
//! `aibench-serve`'s `ServerCore`.
//!
//! Arrivals come from independent tenants on a seeded schedule in three
//! phases at fixed offered rates (below, near, and above capacity), each
//! phase a Poisson process conditioned on its arrival count (uniform order
//! statistics). Sessions are short training runs of three lengths; a small
//! share arrives at elevated priority, so parks and resumes happen. Every
//! `ClientMsg` and `ServerMsg` goes through `to_bytes` → `write_frame` →
//! `read_frame` → `from_bytes`.
//!
//! One thread drives both sides: it submits every arrival that is due,
//! then runs one scheduler tick, then delivers that tick's messages.
//! Latency is timed from each arrival's *due* time to the decoding of its
//! `Done` message, so a late generator or a long tick counts against the
//! sessions it delays; how late the generator ran is reported too.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use aibench::runner::{run_to_quality, RunConfig};
use aibench_ckpt::{CheckpointSink, MemorySink};
use aibench_serve::wire::{read_frame, write_frame};
use aibench_serve::{ClientMsg, Event, RunRequest, ServeConfig, ServerCore, ServerMsg};

use crate::digest::run_digest;
use crate::metrics::{Accounting, Metric, RunOutput};
use crate::stats;
use crate::trace::{self, span, Layer};
use crate::wrap::{SinkStats, TimedSink};
use crate::{Ctx, Opts, SplitMix};

/// One kind of session in the mix.
#[derive(Debug, Clone, Copy)]
pub struct Class {
    /// Benchmark trained.
    pub code: &'static str,
    /// Epoch cap of the session.
    pub max_epochs: usize,
    /// Relative frequency in the mix.
    pub weight: u32,
}

/// The session mix: about 1 ms (C16, to quality or 6 epochs), about 20 ms
/// (one C15 epoch), and tens of ms (one C14 epoch) of training each.
pub const CLASSES: [Class; 3] = [
    Class {
        code: "DC-AI-C16",
        max_epochs: 6,
        weight: 60,
    },
    Class {
        code: "DC-AI-C15",
        max_epochs: 1,
        weight: 25,
    },
    Class {
        code: "DC-AI-C14",
        max_epochs: 1,
        weight: 15,
    },
];

/// Training seeds sessions draw from (`1..=POOL_SEEDS`), each with a
/// committed reference digest per class.
pub const POOL_SEEDS: u64 = 8;

/// Tenants the arrivals are spread over.
pub const TENANTS: usize = 8;

/// Share of arrivals at elevated priority.
pub const PRIORITY_SHARE: f64 = 0.03;

/// Server worker budget (sessions running at once).
pub const BUDGET: usize = 4;

/// Admission-queue bound. Finite, and above the backlog the schedule
/// builds on the reference machine, so no session is shed there.
pub const MAX_QUEUE: usize = 2048;

/// Latency limit on the tail percentile for a rate to count as met.
pub const LATENCY_LIMIT_S: f64 = 0.5;

/// One phase of the schedule: name, offered rate (sessions per second),
/// and share of the schedule's duration.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Offered rate, sessions per second.
    pub rate: f64,
    /// Share of the schedule's duration.
    pub share: f64,
}

/// Below, near, and above the serving capacity of the reference machine.
pub const PHASES: [Phase; 3] = [
    Phase {
        name: "below",
        rate: 30.0,
        share: 0.15,
    },
    Phase {
        name: "near",
        rate: 60.0,
        share: 0.65,
    },
    Phase {
        name: "above",
        rate: 90.0,
        share: 0.2,
    },
];

/// Index of the phase whose latencies are the headline numbers.
pub const MIDDLE: usize = 1;

/// Share of the run's budget the schedule spans; the rest is left for the
/// backlog to drain.
const SCHEDULE_SHARE: f64 = 0.9;

/// One arrival of the schedule.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// When the session is due, from the schedule's start.
    pub due: Duration,
    /// Phase index.
    pub phase: usize,
    /// The request.
    pub request: RunRequest,
}

/// Reference-table key of a session class and seed.
pub fn key(class: &Class, seed: u64) -> String {
    format!(
        "serve {} seed={seed} max_epochs={}",
        class.code, class.max_epochs
    )
}

/// Uninterrupted single-session reference of a session class and seed.
pub fn reference(ctx: &Ctx, class: &Class, seed: u64) -> u64 {
    let cfg = RunConfig {
        max_epochs: class.max_epochs,
        ..RunConfig::default()
    };
    run_digest(&run_to_quality(ctx.bench(class.code), seed, &cfg))
}

/// A generated arrival schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Arrivals in due order.
    pub arrivals: Vec<Arrival>,
    /// Phase boundaries: `bounds[p]` starts phase `p`; the last entry ends
    /// the schedule.
    pub bounds: Vec<Duration>,
}

impl Schedule {
    /// Indices of the arrivals of phase `p`.
    pub fn phase(&self, p: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.arrivals.len()).filter(move |&i| self.arrivals[i].phase == p)
    }
}

/// The arrival schedule for `seed` over `seconds`. Each phase holds the
/// mix's exact class proportions and priority share, in seeded order, so
/// the offered work is the same for every seed; the seed moves arrival
/// times, the order of classes, tenants, and training seeds.
pub fn schedule(seed: u64, seconds: Duration) -> Schedule {
    let mut rng = SplitMix::new(seed ^ 0x5e7e_0000);
    let total = seconds.as_secs_f64() * SCHEDULE_SHARE;
    let total_weight: u32 = CLASSES.iter().map(|c| c.weight).sum();
    let mut arrivals = Vec::new();
    let mut bounds = vec![Duration::ZERO];
    let mut phase_start = 0.0;
    for (p, phase) in PHASES.iter().enumerate() {
        let len = total * phase.share;
        let n = (phase.rate * len).round() as usize;
        let mut times: Vec<f64> = (0..n).map(|_| phase_start + rng.next_f64() * len).collect();
        times.sort_by(f64::total_cmp);
        // Class i covers slots [bound(i), bound(i + 1)).
        let mut cum = 0;
        let mut classes: Vec<&Class> = Vec::with_capacity(n);
        for c in &CLASSES {
            cum += c.weight;
            let upto = (n as u64 * u64::from(cum) / u64::from(total_weight)) as usize;
            classes.resize(upto, c);
        }
        rng.shuffle(&mut classes);
        let elevated = (n as f64 * PRIORITY_SHARE).round() as usize;
        let mut priorities: Vec<u8> = (0..n).map(|i| if i < elevated { 3 } else { 0 }).collect();
        rng.shuffle(&mut priorities);
        for ((t, class), priority) in times.into_iter().zip(classes).zip(priorities) {
            let tenant = format!("tenant-{}", rng.below(TENANTS));
            let seed = 1 + rng.below(POOL_SEEDS as usize) as u64;
            let submission = arrivals.len() as u64 + 1;
            let request = RunRequest::new(&tenant, class.code, seed, class.max_epochs)
                .with_priority(priority)
                .with_submission(submission);
            arrivals.push(Arrival {
                due: Duration::from_secs_f64(t),
                phase: p,
                request,
            });
        }
        phase_start += len;
        bounds.push(Duration::from_secs_f64(phase_start));
    }
    Schedule { arrivals, bounds }
}

/// Set-up work: builds one trainer per session class.
pub fn prepare(ctx: &Ctx) -> usize {
    CLASSES
        .iter()
        .map(|c| std::hint::black_box(ctx.bench(c.code).build(1)).param_count())
        .sum()
}

fn class_of(code: &str) -> &'static Class {
    CLASSES
        .iter()
        .find(|c| c.code == code)
        .expect("sessions only train mix classes")
}

/// Encodes a message into a frame on `pipe` (a span under `wire`).
fn send(pipe: &mut Vec<u8>, bytes: impl FnOnce() -> Vec<u8>, request: u64) -> usize {
    span(Layer::Wire, "encode", request, || {
        let payload = bytes();
        write_frame(pipe, &payload).expect("writing to memory cannot fail");
        payload.len() + 4
    })
}

/// Decodes the next frame on `pipe` (a span under `wire`).
fn recv<T>(pipe: &mut Vec<u8>, decode: impl FnOnce(&[u8]) -> T, request: u64) -> T {
    span(Layer::Wire, "decode", request, || {
        let mut reader: &[u8] = pipe;
        let payload = read_frame(&mut reader)
            .expect("reading from memory cannot fail")
            .expect("a frame was written");
        let consumed = pipe.len() - reader.len();
        pipe.drain(..consumed);
        decode(&payload)
    })
}

/// Per-session client-side record.
#[derive(Debug, Clone, Default)]
struct Track {
    submitted: Option<Duration>,
    admitted: Option<Duration>,
    parked_at: Option<Duration>,
    parked: Duration,
    done: Option<Duration>,
    bytes: usize,
    ok: bool,
}

/// What one pass over the schedule measured.
#[derive(Debug, Default)]
struct Served {
    tracks: Vec<Track>,
    sheds: usize,
    parks: usize,
    ticks: u64,
    step_ms: Vec<f64>,
    epochs_run: usize,
    epochs_executed: usize,
    recoveries: usize,
    idle: Duration,
    wall: Duration,
    /// Outstanding (accepted, unfinished) sessions at each phase boundary.
    backlog: Vec<usize>,
    errors: Vec<String>,
}

/// Serves the whole schedule once; due times count from `start`.
fn serve(
    ctx: &Ctx,
    sched: &Schedule,
    sinks: Option<Rc<RefCell<SinkStats>>>,
    budget: Duration,
    start: Instant,
) -> Served {
    let arrivals = &sched.arrivals;
    let mut server = ServerCore::new(
        &ctx.registry,
        ServeConfig {
            budget: BUDGET,
            max_queue: MAX_QUEUE,
            ..ServeConfig::default()
        },
    );
    if let Some(stats) = sinks {
        server.set_sink_factory(move |session| -> Box<dyn CheckpointSink> {
            Box::new(TimedSink::new(MemorySink::new(), session, stats.clone()))
        });
    }
    let mut up: Vec<u8> = Vec::new();
    let mut down: Vec<u8> = Vec::new();
    let mut s = Served {
        tracks: vec![Track::default(); arrivals.len()],
        ..Served::default()
    };
    // Server session id → arrival index.
    let mut by_session: BTreeMap<u64, usize> = BTreeMap::new();
    let mut outstanding = 0usize;
    let mut next = 0usize;
    loop {
        while s.backlog.len() < sched.bounds.len()
            && sched.bounds[s.backlog.len()] <= start.elapsed()
        {
            s.backlog.push(outstanding);
        }
        while next < arrivals.len() && arrivals[next].due <= start.elapsed() {
            let a = &arrivals[next];
            let req_id = next as u64;
            let mut bytes = send(
                &mut up,
                || ClientMsg::Submit(a.request.clone()).to_bytes(),
                req_id,
            );
            let msg = recv(&mut up, ClientMsg::from_bytes, req_id).expect("client message decodes");
            let ClientMsg::Submit(request) = msg else {
                unreachable!("the client only submits");
            };
            let reply = match span(Layer::Serve, "submit", req_id, || server.submit(request)) {
                Ok(session) => {
                    by_session.insert(session, next);
                    outstanding += 1;
                    ServerMsg::Accepted { session }
                }
                Err(r) => ServerMsg::Rejected {
                    reason: r.reason,
                    retryable: r.retryable,
                },
            };
            bytes += send(&mut down, || reply.to_bytes(), req_id);
            let reply =
                recv(&mut down, ServerMsg::from_bytes, req_id).expect("server message decodes");
            let track = &mut s.tracks[next];
            track.submitted = Some(start.elapsed());
            track.bytes += bytes;
            if let ServerMsg::Rejected { .. } = reply {
                s.sheds += 1;
            }
            next += 1;
        }
        if server.is_idle() {
            if next == arrivals.len() {
                break;
            }
            let wait = arrivals[next].due.saturating_sub(start.elapsed());
            let t = Instant::now();
            std::thread::sleep(wait);
            s.idle += t.elapsed();
            continue;
        }
        if start.elapsed() > budget {
            s.errors.push(format!(
                "serve_open: {outstanding} session(s) unfinished after {:.1} s",
                budget.as_secs_f64()
            ));
            break;
        }
        let step_start = start.elapsed();
        let t = Instant::now();
        span(Layer::Serve, "step", s.ticks, || server.step());
        s.step_ms.push(t.elapsed().as_secs_f64() * 1e3);
        s.ticks += 1;
        for ev in server.drain_events() {
            let idx = by_session[&ev.session];
            let req_id = idx as u64;
            let bytes = send(
                &mut down,
                || ServerMsg::Progress(ev.clone()).to_bytes(),
                req_id,
            );
            let msg =
                recv(&mut down, ServerMsg::from_bytes, req_id).expect("server message decodes");
            let ServerMsg::Progress(ev) = msg else {
                unreachable!("progress was sent");
            };
            let track = &mut s.tracks[idx];
            track.bytes += bytes;
            // Scheduling events happen when the tick begins.
            match ev.event {
                Event::Admitted { .. } => track.admitted = Some(step_start),
                Event::Parked { .. } => {
                    s.parks += 1;
                    track.parked_at = Some(step_start);
                }
                Event::Resumed { .. } => {
                    if let Some(p) = track.parked_at.take() {
                        track.parked += step_start - p;
                    }
                }
                Event::Epoch { .. } | Event::Fault { .. } => {}
            }
        }
        for done in server.drain_finished() {
            let idx = by_session[&done.session];
            let req_id = idx as u64;
            let bytes = send(
                &mut down,
                || ServerMsg::Done(done.clone()).to_bytes(),
                req_id,
            );
            let msg =
                recv(&mut down, ServerMsg::from_bytes, req_id).expect("server message decodes");
            let ServerMsg::Done(done) = msg else {
                unreachable!("done was sent");
            };
            outstanding -= 1;
            let track = &mut s.tracks[idx];
            track.done = Some(start.elapsed());
            track.bytes += bytes;
            s.epochs_run += done.result.epochs_run;
            s.epochs_executed += done.epochs_executed;
            s.recoveries += done.recoveries;
            let request = &arrivals[idx].request;
            let class = class_of(&request.code);
            match ctx
                .refs
                .check(&key(class, request.seed), run_digest(&done.result))
            {
                Ok(()) if done.fault_signature == "clean" => track.ok = true,
                Ok(()) => s.errors.push(format!(
                    "session {idx}: unexpected faults {}",
                    done.fault_signature
                )),
                Err(e) => s.errors.push(format!("session {idx}: {e}")),
            }
        }
    }
    s.backlog.resize(sched.bounds.len(), outstanding);
    s.wall = start.elapsed();
    s
}

/// Latency summary of one phase.
#[derive(Debug, Clone)]
struct PhaseStats {
    latencies: Vec<f64>,
    acct: Accounting,
    tail: Option<stats::Tail>,
    growing: bool,
}

fn phase_stats(sched: &Schedule, s: &Served) -> Vec<PhaseStats> {
    let arrivals = &sched.arrivals;
    PHASES
        .iter()
        .enumerate()
        .map(|(p, phase)| {
            let idx: Vec<usize> = sched.phase(p).collect();
            let latencies: Vec<f64> = idx
                .iter()
                .filter_map(|&i| {
                    let t = &s.tracks[i];
                    t.done
                        .filter(|_| t.ok)
                        .map(|d| (d - arrivals[i].due).as_secs_f64())
                })
                .collect();
            let sent = idx.len() as u64;
            let ok = latencies.len() as u64;
            let grown = s.backlog[p + 1].saturating_sub(s.backlog[p]);
            PhaseStats {
                tail: stats::tail(&latencies),
                growing: grown > (2 * BUDGET).max(idx.len() / 20),
                acct: Accounting {
                    phase: phase.name.to_string(),
                    sent,
                    ok,
                    failed: sent - ok,
                },
                latencies,
            }
        })
        .collect()
}

/// Seconds the server loop was busy (not waiting for the next arrival)
/// per completed session: the serving stack's cost of one session.
fn busy_per_session(s: &Served) -> f64 {
    let completed = s.tracks.iter().filter(|t| t.done.is_some()).count();
    (s.wall - s.idle).as_secs_f64() / completed.max(1) as f64
}

/// How late each arrival was submitted after its due time, in ms.
fn late_ms(s: &Served, arrivals: &[Arrival]) -> Vec<f64> {
    s.tracks
        .iter()
        .zip(arrivals)
        .filter_map(|(t, a)| t.submitted.map(|sub| (sub - a.due).as_secs_f64() * 1e3))
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx, opts: &Opts, sched: &Schedule) -> RunOutput {
    let arrivals = &sched.arrivals;
    let mut out = RunOutput::default();
    // The drain may take as long as the schedule before the run gives up.
    let budget = opts.seconds * 2;
    let s = serve(ctx, sched, None, budget, Instant::now());
    let phases = phase_stats(sched, &s);
    let mid = &phases[MIDDLE];
    let p50 = stats::median(&mid.latencies);
    let tail = mid.tail.map_or(f64::NAN, |t| t.value);
    let completed = s.tracks.iter().filter(|t| t.done.is_some()).count();
    let max_ok = phases
        .iter()
        .zip(PHASES)
        .filter(|(ps, _)| {
            ps.acct.failed == 0
                && !ps.growing
                && ps.tail.is_some_and(|t| t.value <= LATENCY_LIMIT_S)
        })
        .map(|(_, ph)| ph.rate)
        .fold(0.0, f64::max);
    let late = late_ms(&s, arrivals);
    let spread = stats::iqr_share(&mid.latencies);
    let n = mid.latencies.len();
    let tail_pct = mid.tail.map_or(0.0, |t| t.percentile);
    out.named = vec![
        Metric {
            name: "serve_p50_s".into(),
            unit: "s",
            value: p50,
            n,
            spread,
        },
        Metric {
            name: format!("serve_p{tail_pct}_s"),
            unit: "s",
            value: tail,
            n,
            spread,
        },
        Metric::single(
            "serve_sessions_per_s",
            "1/s",
            completed as f64 / s.wall.as_secs_f64(),
        ),
        Metric::single("serve_max_ok_rate", "1/s", max_ok),
        Metric {
            name: "gen_late_ms.p99".into(),
            unit: "ms",
            value: stats::percentile(&stats::sorted(&late), 99.0),
            n: late.len(),
            spread: None,
        },
    ];
    for (ps, ph) in phases.iter().zip(PHASES) {
        out.notes.push(format!(
            "phase {:<5} rate {:>5.1}/s sent {:>5} ok {:>5} failed {} p50 {:.4} s {} growing-backlog {}",
            ph.name,
            ph.rate,
            ps.acct.sent,
            ps.acct.ok,
            ps.acct.failed,
            stats::median(&ps.latencies),
            ps.tail
                .map_or("tail -".to_string(), |t| format!("p{} {:.4} s (n={})", t.percentile, t.value, t.n)),
            ps.growing
        ));
    }
    out.notes.push(format!(
        "{} ticks, {} parks, {} sheds, {:.2} s wall, {:.2} s idle",
        s.ticks,
        s.parks,
        s.sheds,
        s.wall.as_secs_f64(),
        s.idle.as_secs_f64()
    ));
    let work = busy_per_session(&s);
    out.work = Some(Metric {
        n: completed,
        ..Metric::single("work_s", "s", work)
    });
    out.accounting = phases.iter().map(|p| p.acct.clone()).collect();
    out.errors = s.errors;

    if opts.trace {
        let sink_stats = Rc::new(RefCell::new(SinkStats::default()));
        trace::start();
        let ts = serve(ctx, sched, Some(sink_stats.clone()), budget, Instant::now());
        let tr = trace::finish();
        let tphases = phase_stats(sched, &ts);
        for (a, t) in out.accounting.iter_mut().zip(&tphases) {
            a.sent += t.acct.sent;
            a.ok += t.acct.ok;
            a.failed += t.acct.failed;
        }
        out.errors.extend(ts.errors.iter().cloned());
        let us = |v: Vec<f64>| stats::median(&v) * 1e3;
        let mid_idx: Vec<usize> = sched.phase(MIDDLE).collect();
        let queue_ms: Vec<f64> = mid_idx
            .iter()
            .filter_map(|&i| {
                ts.tracks[i]
                    .admitted
                    .map(|a| (a.saturating_sub(arrivals[i].due)).as_secs_f64() * 1e3)
            })
            .collect();
        let run_ms: Vec<f64> = mid_idx
            .iter()
            .filter_map(|&i| {
                let t = &ts.tracks[i];
                Some((t.done? - t.admitted?).as_secs_f64() * 1e3)
            })
            .collect();
        let sorted_step = stats::sorted(&ts.step_ms);
        let sorted_queue = stats::sorted(&queue_ms);
        let sorted_run = stats::sorted(&run_ms);
        out.layer(
            "serve.submit_us",
            us(tr.durations_ms(Layer::Serve, "submit", None)),
        );
        out.layer("serve.step_ms.p50", stats::percentile(&sorted_step, 50.0));
        out.layer("serve.step_ms.p99", stats::percentile(&sorted_step, 99.0));
        out.layer("serve.ticks", ts.ticks as f64);
        out.layer("serve.queue_ms.p50", stats::percentile(&sorted_queue, 50.0));
        out.layer("serve.queue_ms.p99", stats::percentile(&sorted_queue, 99.0));
        out.layer("serve.run_ms.p50", stats::percentile(&sorted_run, 50.0));
        out.layer("serve.run_ms.p99", stats::percentile(&sorted_run, 99.0));
        out.layer(
            "serve.parked_ms",
            ts.tracks
                .iter()
                .map(|t| t.parked.as_secs_f64() * 1e3)
                .sum::<f64>(),
        );
        out.layer("serve.parks", ts.parks as f64);
        out.layer("serve.sheds", ts.sheds as f64);
        out.layer(
            "fault.epoch_yield",
            ts.epochs_run as f64 / ts.epochs_executed.max(1) as f64,
        );
        out.layer("fault.recoveries", ts.recoveries as f64);
        out.layer(
            "wire.encode_us",
            us(tr.durations_ms(Layer::Wire, "encode", None)),
        );
        out.layer(
            "wire.decode_us",
            us(tr.durations_ms(Layer::Wire, "decode", None)),
        );
        out.layer(
            "wire.bytes_per_session",
            ts.tracks.iter().map(|t| t.bytes as f64).sum::<f64>() / ts.tracks.len().max(1) as f64,
        );
        sink_stats.borrow().record(&mut out);
        out.layer(
            "gen.late_ms.p99",
            stats::percentile(&stats::sorted(&late_ms(&ts, arrivals)), 99.0),
        );
        let residue_ms = (ts.wall - ts.idle).as_secs_f64() * 1e3 - tr.root_ms();
        out.record_trace(tr, work * 1e3, busy_per_session(&ts) * 1e3, residue_ms);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sessions whose due time lies 200 ms before the loop starts must
    /// report at least 200 ms of latency even though each trains for about
    /// a millisecond: latency runs from the due time, not from submission
    /// or admission.
    #[test]
    fn open_loop_latency_is_timed_from_the_due_time() {
        let ctx = Ctx::new().expect("set-up");
        let c16 = &CLASSES[0];
        let arrivals: Vec<Arrival> = (0..4)
            .map(|i| Arrival {
                due: Duration::from_millis(i),
                phase: 0,
                request: RunRequest::new("t", c16.code, 1 + i, c16.max_epochs),
            })
            .collect();
        let sched = Schedule {
            arrivals,
            bounds: vec![Duration::ZERO; PHASES.len() + 1],
        };
        let late = Duration::from_millis(200);
        let start = Instant::now()
            .checked_sub(late)
            .expect("the clock is past 200 ms");
        let s = serve(&ctx, &sched, None, Duration::from_secs(30), start);
        assert!(s.errors.is_empty(), "{:?}", s.errors);
        let phases = phase_stats(&sched, &s);
        assert_eq!(phases[0].latencies.len(), 4);
        for (track, a) in s.tracks.iter().zip(&sched.arrivals) {
            let done = track.done.expect("completed");
            let admitted = track.admitted.expect("admitted");
            assert!(
                done - admitted < late,
                "sessions train for well under 200 ms"
            );
            assert!(done - a.due >= late);
        }
        for l in &phases[0].latencies {
            assert!(*l >= late.as_secs_f64());
        }
    }
}

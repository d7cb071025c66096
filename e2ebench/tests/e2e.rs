//! Tests of the benchmark harness: the timing wrappers change no result,
//! the tail-percentile rule, and smoke runs of every workload emitting
//! exactly the metric names `BENCHMARK.json` lists.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::time::Duration;

use aibench::ckpt::{fault_injection_run, run_to_quality_resumable};
use aibench::registry::Registry;
use aibench::runner::RunConfig;
use aibench_ckpt::MemorySink;
use aibench_dist::{run_data_parallel, DistConfig, RunParams};
use aibench_e2ebench::stats::{tail, tail_rank};
use aibench_e2ebench::trace::{self, Layer};
use aibench_e2ebench::wrap::{SinkStats, TimedReplica, TimedSink};
use aibench_e2ebench::{Opts, Scale, Workload};
use aibench_models::DataParallel;

#[test]
fn timed_sink_is_transparent() {
    let registry = Registry::all();
    let b = registry.get("DC-AI-C15").expect("registered");
    let cfg = RunConfig {
        max_epochs: 4,
        checkpoint_every: 1,
        ..RunConfig::default()
    };
    let plain = run_to_quality_resumable(b, 3, &cfg, &mut MemorySink::new()).expect("plain run");
    let stats = Rc::new(RefCell::new(SinkStats::default()));
    let mut timed = TimedSink::new(MemorySink::new(), 0, stats.clone());
    let wrapped = run_to_quality_resumable(b, 3, &cfg, &mut timed).expect("wrapped run");
    assert!(plain.deterministic_eq(&wrapped));
    assert!(!stats.borrow().save_us.is_empty());

    // Killed and resumed through the wrapper: same bits, and every
    // restart that loaded a snapshot produced one recovery sample.
    // Seed 2 does not reach the target within 4 epochs, so every restart
    // saves again.
    let plain = fault_injection_run(b, 2, &cfg, &mut MemorySink::new(), 1).expect("plain");
    let stats = Rc::new(RefCell::new(SinkStats::default()));
    let mut timed = TimedSink::new(MemorySink::new(), 0, stats.clone());
    let wrapped = fault_injection_run(b, 2, &cfg, &mut timed, 1).expect("wrapped");
    assert!(plain.result.deterministic_eq(&wrapped.result));
    assert_eq!(plain.kills, wrapped.kills);
    assert!(wrapped.kills > 0);
    assert_eq!(stats.borrow().recover_s.len(), wrapped.kills);
}

#[test]
fn timed_replica_is_transparent() {
    let registry = Registry::all();
    let b = registry.get("DC-AI-C15").expect("registered");
    let params = RunParams {
        max_epochs: 2,
        eval_every: 1,
        snapshot_every: 0,
    };
    let target = |q: f64| b.target.met_by(q);
    let plain_factory = |s: u64| b.build_data_parallel(s).expect("hooks");
    let plain = run_data_parallel(
        &plain_factory,
        5,
        &target,
        &params,
        &DistConfig::with_world(2),
    );
    let timed_factory = |s: u64| -> Box<dyn DataParallel> {
        Box::new(TimedReplica::new(
            b.build_data_parallel(s).expect("hooks"),
            0,
        ))
    };
    trace::start();
    let wrapped = run_data_parallel(
        &timed_factory,
        5,
        &target,
        &params,
        &DistConfig::with_world(2),
    );
    let tr = trace::finish();
    assert!(plain.deterministic_eq(&wrapped));
    assert!(!tr
        .durations_ms(Layer::Models, "forward_backward", None)
        .is_empty());
    assert!(!tr.durations_ms(Layer::Nn, "apply_update", None).is_empty());
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(tail_rank(19), None);
    assert_eq!(tail_rank(20), Some(50.0));
    assert_eq!(tail_rank(40), Some(75.0));
    assert_eq!(tail_rank(100), Some(90.0));
    assert_eq!(tail_rank(199), Some(90.0));
    assert_eq!(tail_rank(200), Some(95.0));
    assert_eq!(tail_rank(999), Some(95.0));
    assert_eq!(tail_rank(1000), Some(99.0));
    assert_eq!(tail_rank(10_000), Some(99.9));
    let values: Vec<f64> = (1..=200).map(f64::from).collect();
    let t = tail(&values).expect("enough samples");
    assert_eq!((t.percentile, t.value, t.n), (95.0, 190.0, 200));
    // Exactly ten samples lie beyond the reported value.
    assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
}

/// The `"name"` values of one top-level array of `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let end = body.find(']').expect("array end");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .map(|chunk| {
            let q1 = chunk.find('"').expect("opening quote");
            let q2 = chunk[q1 + 1..].find('"').expect("closing quote");
            chunk[q1 + 1..q1 + 1 + q2].to_string()
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_workloads() {
    let names = names_in("workloads");
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(names, ours);
}

#[test]
fn smoke_runs_emit_exactly_the_listed_metrics() {
    let e2e = names_in("end_to_end");
    let per_layer = names_in("per_layer");
    for workload in Workload::ALL {
        for traced in [false, true] {
            let opts = Opts {
                seed: 11,
                seconds: Duration::from_secs(3),
                trace: traced,
                scale: Scale::Smoke,
            };
            let report = aibench_e2ebench::run(workload, opts).expect("smoke run");
            assert!(
                report.correct(),
                "{} trace={traced}: {:?}",
                workload.name(),
                report.out.errors
            );
            let names: Vec<String> = report.metrics().into_iter().map(|(n, _, _)| n).collect();
            let want = if traced { &per_layer } else { &e2e };
            assert_eq!(&names, want, "{}", workload.name());
            for (name, _, v) in report.metrics() {
                assert!(v.is_finite(), "{name} is {v}");
                if !traced {
                    assert!(v > 0.0, "{name} is {v}");
                }
            }
            let json = report.json();
            assert!(json.starts_with("{\"correct\": true, "), "{json}");
        }
    }
}

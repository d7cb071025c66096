//! Command line: `aibench-e2ebench --workload <name> --seed <n>
//! --seconds <s> --trace <0|1>` runs one workload and prints a report
//! ending in one JSON line; `--record-digests` regenerates the reference
//! digest table. Exits 1 when an output check fails, 2 on a usage error.

use std::process::ExitCode;
use std::time::Duration;

use aibench_e2ebench::{ckpt_resume, digest, serve_open, train_suite, Ctx, Opts, Scale, Workload};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: aibench-e2ebench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n       aibench-e2ebench --record-digests",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--record-digests") {
        return match record_digests() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: Duration::from_secs(30),
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse() {
                Ok(s) => opts.seed = s,
                Err(_) => return usage(&format!("bad seed `{value}`")),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(s) if s > 0.0 && s.is_finite() => opts.seconds = Duration::from_secs_f64(s),
                _ => return usage(&format!("bad seconds `{value}`")),
            },
            "--trace" => match value.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                _ => return usage(&format!("bad trace `{value}`")),
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    let report = match aibench_e2ebench::run(workload, opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.text());
    if let Some(trace) = &report.out.trace {
        let path = aibench_e2ebench::out_dir().join(format!(
            "trace-{}-seed{}.tsv",
            workload.name(),
            opts.seed
        ));
        match trace.write_tsv(&path) {
            Ok(()) => println!(
                "trace: {} spans written to {}",
                trace.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("warning: writing {}: {e}", path.display()),
        }
    }
    println!("{}", report.json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Recomputes every reference digest from uninterrupted single-session
/// runs and rewrites the committed table.
fn record_digests() -> Result<(), String> {
    let ctx = Ctx::new()?;
    let mut refs = digest::References::default();
    for scale in [Scale::Full, Scale::Smoke] {
        let cfg = aibench::runner::RunConfig {
            max_epochs: train_suite::max_epochs(scale),
            ..Default::default()
        };
        for b in ctx.registry.benchmarks() {
            let r = aibench::runner::run_to_quality(b, train_suite::TRAIN_SEED, &cfg);
            refs.insert(
                train_suite::key(b.id.code(), cfg.max_epochs),
                digest::run_digest(&r),
            );
        }
        let (single, group) = ckpt_resume::max_epochs(scale);
        let cfg = aibench::runner::RunConfig {
            max_epochs: single,
            ..Default::default()
        };
        let r = aibench::runner::run_to_quality(
            ctx.bench(ckpt_resume::SINGLE),
            train_suite::TRAIN_SEED,
            &cfg,
        );
        refs.insert(
            train_suite::key(ckpt_resume::SINGLE, single),
            digest::run_digest(&r),
        );
        for plan in ckpt_resume::GroupPlan::all() {
            let key = ckpt_resume::group_key(&plan, group);
            if !refs.contains(&key) {
                refs.insert(key, ckpt_resume::group_reference(&ctx, &plan, group));
            }
        }
    }
    for class in &serve_open::CLASSES {
        for seed in 1..=serve_open::POOL_SEEDS {
            refs.insert(
                serve_open::key(class, seed),
                serve_open::reference(&ctx, class, seed),
            );
        }
    }
    let header = format!(
        "Reference digests of uninterrupted single-session runs (see src/digest.rs).\n\
         Suite and checkpoint sessions use training seed {}; serve sessions use seeds 1..={}.\n\
         Regenerate with: cargo run --release --manifest-path e2ebench/Cargo.toml -- --record-digests\n\
         Recorded at {} threads; digests do not depend on the thread count.",
        train_suite::TRAIN_SEED,
        serve_open::POOL_SEEDS,
        aibench_parallel::threads()
    );
    let path = digest::reference_path();
    std::fs::write(&path, refs.to_text(&header))
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("wrote {} digests to {}", refs.len(), path.display());
    Ok(())
}

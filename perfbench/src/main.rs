//! The benchmark command.
//!
//! ```text
//! perfbench --workload <pio-write|pio-read|meta-storm> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats set-up and the timed job of the workload until `--seconds` of
//! host time have gone and at least `MIN_ITERS` jobs have run (set-up at
//! least `MIN_SETUPS` times), checking every output, and reports medians. `--trace 1` adds one traced
//! run and reports per-layer metrics instead of end-to-end ones; its spans
//! go to `perfbench/out/`. The last line of standard output is the result
//! as one JSON object.

use pmemcpy_perfbench::metrics::{self, Metric};
use pmemcpy_perfbench::workload::{self, Outcome, Plan, Sizes, Workload};
use pmemcpy_perfbench::{host, trace};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Jobs behind the `host_s` median, however long one job runs: a
/// `meta-storm` job takes longer than a whole run's `--seconds`.
const MIN_ITERS: usize = 2;
/// Set-up samples behind the `setup_s` median.
const MIN_SETUPS: usize = 15;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; valid: {}", names.join(", "))
                })?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Set up once, timing it; returns the prepared job and the set-up time.
fn timed_setup(plan: &Plan) -> (workload::Prepared, Duration) {
    let t0 = Instant::now();
    let prep = workload::prepare(plan);
    (prep, t0.elapsed())
}

/// Failures of `o` beyond those it counted itself: virtual results that
/// differ from the first iteration's break determinism, failing the run.
fn divergence(first: &Outcome, o: &Outcome) -> u64 {
    let same = o.virtual_time == first.virtual_time
        && o.rank_times == first.rank_times
        && o.commit_lat == first.commit_lat
        && o.stats == first.stats;
    if same {
        0
    } else {
        o.attempted - o.failed
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload, Sizes::full(), args.seed);
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();

    let mut iters: Vec<Outcome> = Vec::new();
    let mut setups = Vec::new();
    let mut gen_hosts = Vec::new();
    while iters.len() < MIN_ITERS || start.elapsed() < budget {
        let (prep, setup) = timed_setup(&plan);
        setups.push(setup);
        gen_hosts.push(prep.gen_host);
        iters.push(workload::run(prep, false));
    }
    while setups.len() < MIN_SETUPS {
        let (prep, setup) = timed_setup(&plan);
        setups.push(setup);
        gen_hosts.push(prep.gen_host);
    }

    let first = &iters[0];
    let mut attempted: u64 = iters.iter().map(|o| o.attempted).sum();
    let mut failed: u64 = iters.iter().map(|o| o.failed + divergence(first, o)).sum();
    println!(
        "{} seed={} byte_scale={}: {} iterations, virtual {:.6} s (device bound {:.6} s), \
         host {:.3} s CPU per job, {} commit samples",
        args.workload.name(),
        args.seed,
        plan.byte_scale,
        iters.len(),
        first.virtual_time.as_secs_f64(),
        first.device_bound.as_secs_f64(),
        metrics::host_s(&iters),
        first.commit_lat.len(),
    );

    let reported: Vec<Metric> = if args.trace {
        let (prep, _) = timed_setup(&plan);
        let traced = workload::run(prep, true);
        attempted += traced.attempted;
        // Tracing must not change the model: the traced job's virtual time
        // is bit-identical to the untraced one's.
        failed += traced.failed + divergence(first, &traced);
        let path = format!(
            "perfbench/out/{}-seed{}-spans.json",
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all("perfbench/out")
            .and_then(|_| std::fs::write(&path, trace::spans_json(&traced.spans)));
        match written {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
        let fail_ratio = failed as f64 / attempted as f64;
        metrics::per_layer(&traced, &iters, &gen_hosts, fail_ratio)
    } else {
        metrics::end_to_end(&iters, &setups, host::peak_rss_mib())
    };
    for x in &reported {
        println!("  {:<34} {:>16.6} {}", x.name, x.value, x.unit);
    }
    println!(
        "{}",
        metrics::result_json(failed == 0, attempted, failed, &reported)
    );
    ExitCode::SUCCESS
}

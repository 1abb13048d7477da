//! The tracing layer's contract, end to end:
//!
//! 1. tracing must not perturb virtual time (Fig. 6 cells are bit-identical
//!    with the sink on vs. off),
//! 2. the Chrome-trace exporter emits schema-valid JSON with one lane (tid)
//!    per rank,
//! 3. spans recorded concurrently from rank threads are never lost,
//! 4. spans and metric phases agree on every exit path, failures included.

use baselines::PmemcpyLib;
use mpi_sim::{run_world, run_world_mode, SchedMode};
use pmem_sim::{
    chrome_trace_json, CollectingSink, Machine, MetricsRegistry, PersistenceMode, PmemDevice,
    SimTime, TraceSummary,
};
use pmemcpy::{MmapTarget, Pmem, PmemCpyError};
use pmemcpy_bench::{run_cell, run_cell_traced, CellConfig, Direction};
use std::sync::Arc;

fn small_cfg(nprocs: u64) -> CellConfig {
    let mut cfg = CellConfig::paper(nprocs, 2 << 20);
    cfg.verify = false;
    cfg
}

/// With one rank there is no interleaving to vary, so bit-exactness must
/// hold under *both* scheduler modes: the deterministic token scheduler and
/// the free-threaded mode (whose only thread is trivially serialized).
#[test]
fn fig6_virtual_time_is_bit_identical_with_tracing_on_and_off() {
    for mode in [SchedMode::Deterministic, SchedMode::FreeThreaded] {
        for direction in [Direction::Write, Direction::Read] {
            let mut cfg = small_cfg(1);
            cfg.sched = mode;
            let off = run_cell(&PmemcpyLib::variant_a(), direction, &cfg);
            for _ in 0..2 {
                let sink = CollectingSink::new();
                let on = run_cell_traced(&PmemcpyLib::variant_a(), direction, &cfg, sink.clone());
                assert_eq!(
                    off.time, on.time,
                    "{mode:?}/{direction:?}: tracing perturbed virtual time"
                );
                assert_eq!(
                    off.stats, on.stats,
                    "{mode:?}/{direction:?}: tracing perturbed the counters"
                );
                assert!(
                    !sink.is_empty(),
                    "{mode:?}/{direction:?}: traced run recorded nothing"
                );
            }
        }
    }
}

/// At the paper's 8-rank cell the deterministic rank scheduler serializes
/// execution in virtual-time order, so the whole result — job time included —
/// must be bit-identical with tracing on vs. off (the sink charges nothing).
#[test]
fn fig6_eight_rank_cell_unperturbed_by_tracing() {
    for direction in [Direction::Write, Direction::Read] {
        let cfg = small_cfg(8);
        let off = run_cell(&PmemcpyLib::variant_a(), direction, &cfg);
        let on = run_cell_traced(
            &PmemcpyLib::variant_a(),
            direction,
            &cfg,
            CollectingSink::new(),
        );
        assert_eq!(
            off.stats, on.stats,
            "{direction:?}: tracing perturbed the counters"
        );
        assert_eq!(
            off.time, on.time,
            "{direction:?}: tracing perturbed virtual time"
        );
    }
}

#[test]
fn chrome_trace_json_is_schema_valid_with_one_lane_per_rank() {
    const NPROCS: u64 = 8;
    let sink = CollectingSink::new();
    run_cell_traced(
        &PmemcpyLib::variant_a(),
        Direction::Write,
        &small_cfg(NPROCS),
        sink.clone(),
    );
    let spans = sink.take();
    let lanes: Vec<(u64, String)> = (0..NPROCS).map(|r| (r, format!("rank {r}"))).collect();
    let json = chrome_trace_json(&spans, &lanes);

    // Well-formed: every brace/bracket closes, every string terminates.
    assert_balanced(&json);
    assert!(
        json.starts_with("{\"traceEvents\":["),
        "bad envelope: {}",
        &json[..40]
    );

    // Exactly one complete ("X") event per recorded span, each carrying the
    // required ts/dur/tid fields.
    let complete = count(&json, "\"ph\":\"X\"");
    assert_eq!(complete, spans.len(), "span count != complete-event count");
    assert!(count(&json, "\"ts\":") >= complete);
    assert!(count(&json, "\"dur\":") >= complete);
    assert!(count(&json, "\"tid\":") >= complete);
    assert_eq!(count(&json, "\"pid\":1"), complete + lanes.len());

    // One lane per rank: a thread_name metadata event and at least one
    // complete event on every rank's tid, and no spans on unknown lanes.
    for r in 0..NPROCS {
        let meta = format!("{{\"ph\":\"M\",\"pid\":1,\"tid\":{r},\"name\":\"thread_name\"");
        assert_eq!(count(&json, &meta), 1, "rank {r} lane metadata missing");
        assert!(
            spans.iter().any(|s| s.lane == r),
            "rank {r} recorded no spans"
        );
    }
    assert!(
        spans.iter().all(|s| s.lane < NPROCS),
        "span on a lane outside the rank set"
    );

    // The timed write phase must expose the put pipeline.
    let summary = TraceSummary::from_spans(&spans);
    for op in ["put.serialize", "put.memcpy", "put.persist"] {
        assert!(
            summary.category("put").iter().any(|b| b.name == op),
            "missing {op} in {summary}"
        );
    }
}

/// Free-threaded mode on purpose: this test exists to hammer the sink from
/// 8 OS threads running truly concurrently, which the deterministic token
/// scheduler would serialize away.
#[test]
fn spans_from_eight_rank_threads_are_all_retained() {
    const NPROCS: usize = 8;
    const PER_RANK: usize = 200;
    let machine = Machine::chameleon();
    let sink = CollectingSink::new();
    machine.set_trace_sink(sink.clone());
    run_world_mode(
        Arc::clone(&machine),
        NPROCS,
        SchedMode::FreeThreaded,
        |comm| {
            for _ in 0..PER_RANK {
                comm.machine().charge_syscall(comm.clock());
            }
        },
    );
    let spans = sink.take();
    assert_eq!(
        spans.len(),
        NPROCS * PER_RANK,
        "spans were lost under concurrency"
    );
    for r in 0..NPROCS as u64 {
        let on_lane = spans.iter().filter(|s| s.lane == r).count();
        assert_eq!(on_lane, PER_RANK, "rank {r} lost spans");
    }
    assert!(spans.iter().all(|s| s.cat == "prim" && s.name == "syscall"));
    // Spans on one lane never overlap: each rank's clock is monotone.
    for r in 0..NPROCS as u64 {
        let mut lane: Vec<(SimTime, SimTime)> = spans
            .iter()
            .filter(|s| s.lane == r)
            .map(|s| (s.start, s.dur))
            .collect();
        lane.sort();
        for w in lane.windows(2) {
            assert!(w[0].0 + w[0].1 <= w[1].0, "overlapping spans on lane {r}");
        }
    }
}

/// A span and the phase of the same name are one guard, so they cover the
/// same interval even when the operation fails half-way: an 8 MiB put into
/// a 4 MiB pool (`OutOfMemory` inside `put.reserve`) and a load into a
/// half-size buffer (`ShapeMismatch` inside `get.memcpy`) must still close
/// their spans.
#[test]
fn spans_and_phases_agree_on_failure_paths() {
    const NPROCS: usize = 2;
    const KEYS: usize = 4;
    let machine = Machine::chameleon();
    let sink = CollectingSink::new();
    let reg = MetricsRegistry::new();
    assert!(machine.set_trace_sink(sink.clone()));
    assert!(machine.set_metrics(reg.clone()));
    let dev = PmemDevice::new(Arc::clone(&machine), 4 << 20, PersistenceMode::Fast);
    run_world(machine, NPROCS, move |comm| {
        let mut pmem = Pmem::new();
        pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
        let data = vec![1.5f64; 4096];
        for k in 0..KEYS {
            let key = format!("r{}/k{k}", comm.rank());
            pmem.store_slice(&key, &data).unwrap();
            assert_eq!(pmem.load_slice::<f64>(&key).unwrap(), data);
        }
        let huge = vec![0u8; 8 << 20];
        let err = pmem.store_slice(&format!("r{}/huge", comm.rank()), &huge);
        assert!(
            matches!(
                err,
                Err(PmemCpyError::Pmdk(pmdk_sim::PmdkError::OutOfMemory { .. }))
            ),
            "expected OutOfMemory, got {err:?}"
        );
        let mut half = vec![0f64; data.len() / 2];
        let err = pmem.load_slice_into(&format!("r{}/k0", comm.rank()), &mut half);
        assert!(
            matches!(err, Err(PmemCpyError::ShapeMismatch { .. })),
            "expected ShapeMismatch, got {err:?}"
        );
        pmem.munmap().unwrap();
    });

    let spans = sink.take();
    let metrics = reg.snapshot();
    for lane in 0..NPROCS as u64 {
        let phases = metrics.lane_phases(lane);
        for label in [
            "put.serialize",
            "put.memcpy",
            "put.persist",
            "get.memcpy",
            "get.deserialize",
            "tx.commit",
        ] {
            let span_total = spans
                .iter()
                .filter(|s| s.lane == lane && s.name == label)
                .fold(SimTime::ZERO, |acc, s| acc + s.dur);
            let phase_total = phases
                .iter()
                .find(|(n, _)| *n == label)
                .map_or(SimTime::ZERO, |(_, t)| *t);
            assert!(phase_total > SimTime::ZERO, "lane {lane}: no {label} phase");
            assert_eq!(
                span_total, phase_total,
                "lane {lane}: {label} spans disagree with the phase"
            );
        }
        // One put.reserve span per put, the failed one included.
        let reserves = spans
            .iter()
            .filter(|s| s.lane == lane && s.name == "put.reserve")
            .count();
        assert_eq!(reserves, KEYS + 1, "lane {lane}: put.reserve spans");
    }
}

/// Count non-overlapping occurrences of `needle`.
fn count(hay: &str, needle: &str) -> usize {
    hay.match_indices(needle).count()
}

/// Cheap well-formedness scan: braces/brackets balance outside strings and
/// every string literal (with escapes) terminates.
fn assert_balanced(json: &str) {
    let mut depth_obj = 0i64;
    let mut depth_arr = 0i64;
    let mut chars = json.chars();
    while let Some(c) = chars.next() {
        match c {
            '"' => loop {
                match chars.next() {
                    Some('\\') => {
                        chars.next();
                    }
                    Some('"') => break,
                    Some(_) => {}
                    None => panic!("unterminated string literal"),
                }
            },
            '{' => depth_obj += 1,
            '}' => depth_obj -= 1,
            '[' => depth_arr += 1,
            ']' => depth_arr -= 1,
            _ => {}
        }
        assert!(depth_obj >= 0 && depth_arr >= 0, "close before open");
    }
    assert_eq!(depth_obj, 0, "unbalanced braces");
    assert_eq!(depth_arr, 0, "unbalanced brackets");
}

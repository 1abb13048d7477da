//! Cross-run bit-reproducibility under the deterministic rank scheduler.
//!
//! Every multi-rank configuration must produce *byte-identical* results when
//! run twice in the same process — virtual times, hardware counters
//! (page faults included), rendered CSV and exported Chrome-trace JSON.
//! The scheduler serializes ranks in (virtual time, rank id) order, so the
//! outcome is a pure function of the workload, independent of the host's
//! core count or ambient load. For the same reason these assertions hold
//! unchanged under `cargo test -- --test-threads=1` and under the default
//! parallel harness: sibling test threads only add load, which cannot
//! reorder a token-scheduled world.

use baselines::PmemcpyLib;
use mpi_sim::run_world;
use pmem_sim::{
    chrome_trace_json, CollectingSink, Machine, PersistenceMode, PmemDevice, SimTime, StatsSnapshot,
};
use pmemcpy::{MmapTarget, Pmem};
use pmemcpy_bench::{run_cell, run_cell_traced, run_figure, CellConfig, Direction};
use std::sync::Arc;
use workloads::StormSpec;

fn headline_cfg(nprocs: u64) -> CellConfig {
    let mut cfg = CellConfig::paper(nprocs, 2 << 20);
    cfg.verify = true;
    cfg
}

/// Figure 6's 24-rank column, rendered to CSV twice: identical bytes.
#[test]
fn fig6_headline_column_csv_is_bit_identical_across_runs() {
    let a = run_figure(Direction::Write, &[24], 1 << 20);
    let b = run_figure(Direction::Write, &[24], 1 << 20);
    assert_eq!(a.csv(), b.csv(), "fig6 CSV bytes differ between runs");
}

/// The paper's headline cell (PMCPY-A, 24 ranks, writes), traced twice:
/// job time, every counter (page faults included) and the exported
/// Chrome-trace JSON must match byte for byte.
#[test]
fn fig6_headline_cell_trace_json_and_counters_are_bit_identical() {
    let cfg = headline_cfg(24);
    let lanes: Vec<(u64, String)> = (0..24).map(|r| (r, format!("rank {r}"))).collect();
    let run = || {
        let sink = CollectingSink::new();
        let cell = run_cell_traced(
            &PmemcpyLib::variant_a(),
            Direction::Write,
            &cfg,
            sink.clone(),
        );
        (cell, chrome_trace_json(&sink.take(), &lanes))
    };
    let (cell_a, json_a) = run();
    let (cell_b, json_b) = run();
    assert_eq!(cell_a.time, cell_b.time, "job time differs between runs");
    assert_eq!(
        cell_a.stats, cell_b.stats,
        "counters (incl. page faults) differ between runs"
    );
    assert_eq!(json_a, json_b, "Chrome-trace JSON differs between runs");
}

/// The 8-rank read-back cell (untimed write pass, then timed verified
/// reads) twice: time, counters and the zero-mismatch verdict must agree.
#[test]
fn eight_rank_read_back_is_bit_identical_across_runs() {
    let cfg = headline_cfg(8);
    let a = run_cell(&PmemcpyLib::variant_a(), Direction::Read, &cfg);
    let b = run_cell(&PmemcpyLib::variant_a(), Direction::Read, &cfg);
    assert_eq!(a.mismatches, 0, "read-back corrupted data");
    assert_eq!(a.mismatches, b.mismatches);
    assert_eq!(a.time, b.time, "read-back job time differs between runs");
    assert_eq!(a.stats, b.stats, "read-back counters differ between runs");
}

/// Per-rank virtual completion times under bandwidth contention: all eight
/// ranks stream into one device, so each rank's finish time depends on the
/// order the shared-bandwidth calendar served them — exactly what the
/// deterministic scheduler pins down.
#[test]
fn per_rank_virtual_times_are_bit_identical_under_contention() {
    fn contended_run() -> (Vec<SimTime>, StatsSnapshot) {
        let machine = Machine::chameleon();
        let device = PmemDevice::new(Arc::clone(&machine), 1 << 20, PersistenceMode::Fast);
        let times = run_world(Arc::clone(&machine), 8, move |comm| {
            let rank = comm.rank();
            let data = vec![rank as u8; 4096];
            for i in 0..16 {
                device.write(comm.clock(), (rank * 16 + i) * 4096, &data);
            }
            comm.barrier();
            comm.now()
        });
        (times, machine.stats.snapshot())
    }
    let (times_a, stats_a) = contended_run();
    let (times_b, stats_b) = contended_run();
    assert_eq!(times_a, times_b, "per-rank virtual times differ");
    assert_eq!(stats_a, stats_b, "machine counters differ");
}

/// A 4-rank × 2 048-key creation storm, twice: per-rank times, counters and
/// the whole pool image must match byte for byte. Record serialization runs
/// in private sections, which yield once per stretch instead of at every
/// header-field store, so the job hands the token over less than once per
/// key (yielding at every charge costs about 10.7 handoffs per key).
#[test]
fn storm_is_bit_identical_with_under_one_handoff_per_key() {
    let spec = StormSpec::new(4, 2048, 8);
    let storm = || {
        let machine = Machine::chameleon();
        let dev_size = (spec.total_keys() * 384 + (32 << 20)) as usize;
        let device = PmemDevice::new(Arc::clone(&machine), dev_size, PersistenceMode::Fast);
        let dev = Arc::clone(&device);
        let out = run_world(Arc::clone(&machine), spec.ranks as usize, move |comm| {
            let rank = comm.rank() as u64;
            let mut pmem = Pmem::new();
            pmem.mmap(MmapTarget::DevDax(&dev), &comm).unwrap();
            for first in (0..spec.keys_per_rank).step_by(64) {
                let keys: Vec<u64> = (first..spec.keys_per_rank.min(first + 64)).collect();
                let names: Vec<String> = keys.iter().map(|&k| spec.key(rank, k)).collect();
                let vals: Vec<Vec<u8>> = keys.iter().map(|&k| spec.value(rank, k)).collect();
                let mut batch = pmem.batch();
                for (name, val) in names.iter().zip(&vals) {
                    batch.store_slice::<u8>(name, val).unwrap();
                }
                batch.commit().unwrap();
            }
            comm.barrier();
            pmem.munmap().unwrap();
            (comm.now(), Arc::clone(comm.world()))
        });
        let handoffs = out[0]
            .1
            .scheduler()
            .expect("deterministic world")
            .handoffs();
        let times: Vec<SimTime> = out.into_iter().map(|(t, _)| t).collect();
        let image = device.read_vec_untimed(0, device.size());
        (times, machine.stats.snapshot(), image, handoffs)
    };
    let (times_a, stats_a, image_a, handoffs_a) = storm();
    let (times_b, stats_b, image_b, handoffs_b) = storm();
    assert_eq!(times_a, times_b, "per-rank virtual times differ");
    assert_eq!(stats_a, stats_b, "machine counters differ");
    assert!(image_a == image_b, "pool images differ");
    assert_eq!(handoffs_a, handoffs_b, "token handoffs differ");
    assert!(
        handoffs_a < spec.total_keys(),
        "{handoffs_a} token handoffs for {} keys",
        spec.total_keys()
    );
}

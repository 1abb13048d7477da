//! The benchmark's own checks, at smoke size.

use pmemcpy_perfbench::metrics;
use pmemcpy_perfbench::workload::{prepare, run, Outcome, Plan, Sizes, Workload};

fn plan(w: Workload, seed: u64) -> Plan {
    Plan::new(w, Sizes::smoke(), seed)
}

fn once(p: &Plan, traced: bool) -> Outcome {
    run(prepare(p), traced)
}

/// Everything the model computes, as opposed to what the host measured.
fn assert_same_virtual(a: &Outcome, b: &Outcome, what: &str) {
    assert_eq!(a.virtual_time, b.virtual_time, "{what}: virtual_s");
    assert_eq!(a.rank_times, b.rank_times, "{what}: rank times");
    assert_eq!(a.commit_lat, b.commit_lat, "{what}: commit latencies");
    assert_eq!(a.stats, b.stats, "{what}: machine counters");
    assert_eq!(a.device_bound, b.device_bound, "{what}: device bound");
    assert_eq!(
        a.space_amp.to_bits(),
        b.space_amp.to_bits(),
        "{what}: space_amp"
    );
    assert_eq!(a.chain_hist, b.chain_hist, "{what}: chain histogram");
}

#[test]
fn every_workload_runs_clean_and_repeats_bit_identically() {
    for w in Workload::ALL {
        let p = plan(w, 7);
        let (a, b) = (once(&p, false), once(&p, false));
        assert!(a.attempted > 0, "{w:?} attempted nothing");
        assert_eq!(a.failed, 0, "{w:?} failed operations");
        assert!(
            a.virtual_time >= a.device_bound,
            "{w:?} beat its device bound"
        );
        assert_same_virtual(&a, &b, w.name());
    }
}

#[test]
fn tracing_leaves_virtual_time_bit_identical() {
    for w in Workload::ALL {
        let p = plan(w, 11);
        let (plain, traced) = (once(&p, false), once(&p, true));
        assert_same_virtual(&plain, &traced, w.name());
        assert_eq!(traced.failed, 0);
        assert!(traced.metrics.is_some() && plain.metrics.is_none());
        // One span list per rank, then the post-run list.
        assert_eq!(traced.spans.len(), traced.rank_times.len() + 1);
    }
}

#[test]
fn a_planted_payload_mismatch_shows_in_the_failures() {
    for w in [Workload::PioWrite, Workload::PioRead] {
        let mut p = plan(w, 3);
        p.plant_mismatch = true;
        let o = once(&p, false);
        assert!(o.failed > 0, "{w:?}: corrupted payload went unnoticed");
        assert!(
            o.failed < o.attempted,
            "{w:?}: one corrupt element failed everything"
        );
    }
}

#[test]
fn pio_cost_does_not_depend_on_the_data() {
    for w in [Workload::PioWrite, Workload::PioRead] {
        let (mut a, mut b) = (plan(w, 1), plan(w, 2));
        a.byte_scale = a.paper_byte_scale();
        b.byte_scale = b.paper_byte_scale();
        assert_same_virtual(&once(&a, false), &once(&b, false), w.name());
    }
}

#[test]
fn seeds_vary_the_modelled_volume_around_the_paper_scale() {
    let scales: std::collections::BTreeSet<u64> = (0..20)
        .map(|s| plan(Workload::PioWrite, s).byte_scale)
        .collect();
    let paper = plan(Workload::PioWrite, 0).paper_byte_scale();
    assert!(scales.len() > 1);
    assert!(scales.iter().all(|s| s.abs_diff(paper) <= 2));
}

#[test]
fn pio_cells_at_the_paper_scale_are_the_figure_cells() {
    use pmemcpy_bench::{run_cell, CellConfig, Direction};
    let lib = baselines::PmemcpyLib::variant_a();
    for (w, dir) in [
        (Workload::PioWrite, Direction::Write),
        (Workload::PioRead, Direction::Read),
    ] {
        let mut p = plan(w, 5);
        p.byte_scale = p.paper_byte_scale();
        let cfg = CellConfig::paper(p.sizes.pio_ranks, p.sizes.pio_real_bytes);
        assert_eq!(cfg.byte_scale, p.byte_scale);
        let cell = run_cell(&lib, dir, &cfg);
        let ours = once(&p, false);
        assert_eq!(
            ours.virtual_time, cell.time,
            "{w:?} differs from the figure cell"
        );
        assert_eq!(
            ours.stats, cell.stats,
            "{w:?} counters differ from the figure cell"
        );
    }
}

#[test]
fn reported_metrics_are_the_ones_benchmark_json_declares() {
    let declared =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
    let section = |key: &str| {
        let start = declared
            .find(&format!("\"{key}\""))
            .expect("section present");
        let end = declared[start..].find(']').expect("section closes") + start;
        declared[start..end].to_string()
    };
    let (e2e, layers) = (section("end_to_end"), section("per_layer"));
    for w in Workload::ALL {
        let p = plan(w, 9);
        let plain = once(&p, false);
        let traced = once(&p, true);
        let setup = [std::time::Duration::from_millis(1)];
        let reported = [
            (
                metrics::end_to_end(std::slice::from_ref(&plain), &setup, 1.0),
                &e2e,
            ),
            (
                metrics::per_layer(&traced, std::slice::from_ref(&plain), &setup, 0.0),
                &layers,
            ),
        ];
        for (list, section) in reported {
            let mut count = 0;
            for m in list {
                count += 1;
                let entry = format!("\"name\": \"{}\", \"unit\": \"{}\"", m.name, m.unit);
                assert!(
                    section.contains(&entry),
                    "{} ({}) not declared as {entry}",
                    m.name,
                    w.name()
                );
            }
            assert_eq!(
                section.matches("\"name\"").count(),
                count,
                "declared but not reported"
            );
        }
    }
}

//! The benchmark's metrics: end-to-end ones from untraced runs, per-layer
//! ones from one traced run joined with the program's own metrics phases
//! and `Stats` counters.

use crate::trace::{self, Span};
use crate::workload::Outcome;
use pmem_sim::SimTime;
use std::time::Duration;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0–100) of a non-empty sample.
pub fn percentile(values: &[SimTime], p: f64) -> SimTime {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let mut v = values.to_vec();
    v.sort();
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Host time of a set of jobs: the median CPU time (user plus system, all
/// threads) the process spent in each job's timed phase. Wall-clock is
/// reported too (`host.wall_s`), but on a shared machine it also counts the
/// time other tenants held the cores.
pub fn host_s(jobs: &[Outcome]) -> f64 {
    median(&jobs.iter().map(|o| secs(o.usage.cpu())).collect::<Vec<_>>())
}

/// End-to-end metrics of a run made of `iters` untraced iterations and
/// `setups` set-up samples.
pub fn end_to_end(iters: &[Outcome], setups: &[Duration], peak_rss_mib: f64) -> Vec<Metric> {
    let first = &iters[0];
    let setup: Vec<f64> = setups.iter().copied().map(secs).collect();
    vec![
        m("virtual_s", first.virtual_time.as_secs_f64(), "s"),
        m("host_s", host_s(iters), "s"),
        m("setup_s", median(&setup), "s"),
        m("peak_rss_mb", peak_rss_mib, "MiB"),
        m("space_amp", first.space_amp, "ratio"),
        m(
            "commit_p50_us",
            percentile(&first.commit_lat, 50.0).as_micros_f64(),
            "us",
        ),
        m(
            "commit_p99_us",
            percentile(&first.commit_lat, 99.0).as_micros_f64(),
            "us",
        ),
    ]
}

/// Which layer (crate) a metrics phase label's virtual time belongs to.
/// Primitive names that ran outside every phase scope (fences, flushes,
/// media and metadata accesses, page faults, syscalls) are the device
/// model's own.
fn phase_layer(label: &str) -> &'static str {
    match label {
        "put.serialize" | "get.deserialize" | "serialize" => "pserial",
        // `put.reserve` and `get.lookup` wrap the pool's hashtable and
        // allocator calls; their nested tx and resize phases are counted
        // under their own labels.
        "put.reserve" | "get.lookup" | "get.lookup.cached" | "ht.resize" | "tx.begin"
        | "tx.commit" => "pmdk",
        "mpi.wait" | "net.send" => "mpi",
        "put.memcpy" | "put.persist" | "get.memcpy" | "get.front" | "wal.append" | "ckpt.drain" => {
            "pmemcpy"
        }
        _ => "pmem",
    }
}

/// Phases reported one by one (as `phase.<label>`), rank means in seconds.
const PHASES: [(&str, &str); 11] = [
    ("phase.put.memcpy", "put.memcpy"),
    ("phase.put.serialize", "put.serialize"),
    ("phase.put.reserve", "put.reserve"),
    ("phase.put.persist", "put.persist"),
    ("phase.get.memcpy", "get.memcpy"),
    ("phase.get.lookup", "get.lookup"),
    ("phase.get.lookup.cached", "get.lookup.cached"),
    ("phase.get.deserialize", "get.deserialize"),
    ("phase.ht.resize", "ht.resize"),
    ("phase.tx.commit", "tx.commit"),
    ("phase.mpi.wait", "mpi.wait"),
];

/// Per-layer metrics from one traced run, with the host figures
/// (`getrusage`, tracing overhead) taken against the untraced iterations of
/// the same process.
pub fn per_layer(
    traced: &Outcome,
    untraced: &[Outcome],
    gen_hosts: &[Duration],
    fail_ratio: f64,
) -> Vec<Metric> {
    let snap = traced
        .metrics
        .as_ref()
        .expect("a traced run has a metrics snapshot");
    let stats = &traced.stats;
    let nranks = traced.rank_times.len();
    let ranks = &traced.spans[..nranks];
    let post: &[Vec<Span>] = &traced.spans[nranks..];
    let mean = |x: f64| x / nranks as f64;
    let per_key = |n: u64| n as f64 / traced.keys as f64;

    // Rank means of the spans around each public call.
    let span_total = |name: &str| {
        let (virt, cpu_ns) = trace::total(ranks, name);
        (mean(virt.as_secs_f64()), mean(cpu_ns as f64 / 1e9))
    };
    let (mmap_v, mmap_h) = span_total("pmemcpy.mmap");
    let (put_v, put_h) = span_total("pmemcpy.put_commit");
    let (get_v, get_h) = span_total("pmemcpy.get_commit");
    let (load_v, _) = span_total("pmemcpy.load_slice");
    let (unmap_v, unmap_h) = span_total("pmemcpy.munmap");
    let (barrier_v, _) = span_total("mpi.barrier");

    // The program's phases tile each rank lane; join them by layer.
    let rank_lanes = 0..nranks as u64;
    let phase_sum = |keep: &dyn Fn(&str) -> bool| {
        let t: SimTime = snap
            .phases
            .iter()
            .filter(|((lane, l), _)| rank_lanes.contains(lane) && keep(l))
            .map(|(_, t)| *t)
            .sum();
        mean(t.as_secs_f64())
    };
    let layer_virt = |layer: &str| phase_sum(&|l| phase_layer(l) == layer);
    let span_self = trace::self_time_by_layer(ranks);
    let post_self = trace::self_time_by_layer(post);
    let self_cpu = |layer: &str| {
        span_self
            .get(layer)
            .map_or(0.0, |s| mean(s.cpu_ns as f64 / 1e9))
    };

    let hist = &traced.chain_hist;
    let buckets: u64 = hist.iter().sum();
    let mut seen = 0u64;
    let chain_p99 = hist
        .iter()
        .position(|n| {
            seen += n;
            seen * 100 >= buckets * 99
        })
        .unwrap_or(0);
    let hits = snap.counter("shadow.hits");
    let lookups = hits + snap.counter("shadow.misses");
    let contended: u64 = snap
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("stripe.") && k.ends_with(".contended"))
        .map(|(_, v)| *v)
        .sum();
    let logical = snap.counter("put.logical_bytes");
    let meta_writes = snap.hists.get("pmem.meta_write").map_or(0, |h| h.count);
    let virtual_s = traced.virtual_time.as_secs_f64();
    let usage = |f: &dyn Fn(&Outcome) -> f64| median(&untraced.iter().map(f).collect::<Vec<_>>());

    let mut out = vec![
        m("pmemcpy.mmap.virtual_us", mmap_v * 1e6, "us"),
        m("pmemcpy.mmap.host_ms", mmap_h * 1e3, "ms"),
        m("pmemcpy.put_commit.virtual_s", put_v, "s"),
        m("pmemcpy.put_commit.host_s", put_h, "s"),
        m("pmemcpy.get_commit.virtual_s", get_v, "s"),
        m("pmemcpy.get_commit.host_s", get_h, "s"),
        m("pmemcpy.load_slice.virtual_us", load_v * 1e6, "us"),
        m("pmemcpy.munmap.virtual_us", unmap_v * 1e6, "us"),
        m("pmemcpy.munmap.host_ms", unmap_h * 1e3, "ms"),
    ];
    for (name, label) in PHASES {
        out.push(m(name, phase_sum(&|l| l == label), "s"));
    }
    out.push(m(
        "phase.other",
        phase_sum(&|l| PHASES.iter().all(|(_, label)| l != *label)),
        "s",
    ));
    out.extend([
        m("self.pmemcpy.virtual_s", layer_virt("pmemcpy"), "s"),
        m("self.pserial.virtual_s", layer_virt("pserial"), "s"),
        m("self.pmdk.virtual_s", layer_virt("pmdk"), "s"),
        m("self.pmem.virtual_s", layer_virt("pmem"), "s"),
        m("self.mpi.virtual_s", layer_virt("mpi"), "s"),
        m("self.bench.host_s", self_cpu("bench"), "s"),
        m("self.pmemcpy.host_s", self_cpu("pmemcpy"), "s"),
        m("self.mpi.host_s", self_cpu("mpi"), "s"),
        m(
            "self.pmdk.host_s",
            post_self.get("pmdk").map_or(0.0, |s| s.cpu_ns as f64 / 1e9),
            "s",
        ),
        m(
            "pmdk.pool_txs_per_key",
            per_key(stats.pool_txs),
            "count/key",
        ),
        m(
            "pmdk.undo_bytes_per_key",
            per_key(snap.counter("tx.undo_bytes")),
            "B/key",
        ),
        m("pmdk.fences_per_key", per_key(stats.fences), "count/key"),
        m(
            "pmdk.flushes_per_key",
            per_key(stats.flush_calls),
            "count/key",
        ),
        m(
            "pmdk.meta_writes_per_key",
            per_key(meta_writes),
            "count/key",
        ),
        m("pmdk.alloc_passes", stats.alloc_passes as f64, "count"),
        m("pmdk.ht.splits", snap.counter("ht.splits") as f64, "count"),
        m(
            "pmdk.ht.entries_migrated",
            snap.counter("ht.entries_migrated") as f64,
            "count",
        ),
        m(
            "pmdk.ht.chain_max",
            hist.len().saturating_sub(1) as f64,
            "count",
        ),
        m("pmdk.ht.chain_p99", chain_p99 as f64, "count"),
        m(
            "pmdk.shadow.hit_ratio",
            if lookups > 0 {
                hits as f64 / lookups as f64
            } else {
                0.0
            },
            "ratio",
        ),
        m("pmdk.stripe.contended", contended as f64, "count"),
        m(
            "pmem.media_bytes_written",
            stats.pmem_bytes_written as f64,
            "B",
        ),
        m("pmem.media_bytes_read", stats.pmem_bytes_read as f64, "B"),
        m(
            "pmem.write_amp",
            if logical > 0 {
                snap.counter("put.media_bytes") as f64 / logical as f64
            } else {
                0.0
            },
            "ratio",
        ),
        m("pmem.page_faults", stats.page_faults as f64, "count"),
        m(
            "pmem.device_bound_s",
            traced.device_bound.as_secs_f64(),
            "s",
        ),
        m(
            "pmem.efficiency",
            traced.device_bound.as_secs_f64() / virtual_s,
            "ratio",
        ),
        m("mpi.barrier.virtual_s", barrier_v, "s"),
        m(
            "mpi.sched.vol_ctx_switches",
            usage(&|o| o.usage.vol_ctx_switches as f64),
            "count",
        ),
        m(
            "mpi.sched.invol_ctx_switches",
            usage(&|o| o.usage.invol_ctx_switches as f64),
            "count",
        ),
        m("host.wall_s", usage(&|o| secs(o.wall)), "s"),
        m("host.user_s", usage(&|o| secs(o.usage.user)), "s"),
        m("host.sys_s", usage(&|o| secs(o.usage.sys)), "s"),
        m(
            "workloads.gen.host_s",
            median(&gen_hosts.iter().copied().map(secs).collect::<Vec<_>>()),
            "s",
        ),
        m(
            "trace.overhead_s",
            host_s(std::slice::from_ref(traced)) - host_s(untraced),
            "s",
        ),
        m("fail_ratio", fail_ratio, "ratio"),
    ]);
    out
}

/// The result line: one JSON object.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            assert!(x.value.is_finite(), "metric {} is {}", x.name, x.value);
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

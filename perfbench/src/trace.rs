//! Spans recorded by the benchmark around its calls into each layer's public
//! functions. Nothing is traced inside the program: a span covers one call
//! such as `WriteBatch::commit` or `Comm::barrier`, and carries both clocks,
//! the rank (the id all spans of one rank share) and its parent.
//!
//! Spans stay in memory while the run goes and are written out at the end.

use crate::host::thread_cpu_ns;
use pmem_sim::{Clock, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Rank id given to spans recorded after the ranks have joined.
pub const POST_RUN: u32 = u32::MAX;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub rank: u32,
    /// Index of the enclosing span in the same rank's list.
    pub parent: Option<usize>,
    /// Wall-clock, nanoseconds since the tracer's epoch.
    pub host_start_ns: u64,
    pub host_end_ns: u64,
    /// CPU time the recording thread spent inside the span.
    pub cpu_ns: u64,
    pub virt_start: SimTime,
    pub virt_end: SimTime,
}

impl Span {
    pub fn virt(&self) -> SimTime {
        self.virt_end.saturating_sub(self.virt_start)
    }

    /// Layer the span's call belongs to: the part of its name before the
    /// first dot (`pmemcpy.mmap` → `pmemcpy`).
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Open {
    slot: usize,
    host_start_ns: u64,
    cpu_start: u64,
    virt_start: SimTime,
}

/// Per-thread span recorder. A disabled tracer only calls the closure.
pub struct Tracer {
    rank: u32,
    epoch: Option<Instant>,
    open: Vec<Open>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(rank: u32, epoch: Option<Instant>) -> Self {
        Tracer {
            rank,
            epoch,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Open a span at the clock's current virtual time.
    pub fn enter(&mut self, name: &'static str, clock: &Clock) {
        let Some(epoch) = self.epoch else { return };
        let parent = self.open.last().map(|o| o.slot);
        // Reserve the slot now so children can name it as their parent.
        self.spans.push(Span {
            name,
            rank: self.rank,
            parent,
            host_start_ns: 0,
            host_end_ns: 0,
            cpu_ns: 0,
            virt_start: SimTime::ZERO,
            virt_end: SimTime::ZERO,
        });
        self.open.push(Open {
            slot: self.spans.len() - 1,
            host_start_ns: epoch.elapsed().as_nanos() as u64,
            cpu_start: thread_cpu_ns(),
            virt_start: clock.now(),
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self, clock: &Clock) {
        let Some(epoch) = self.epoch else { return };
        let o = self.open.pop().expect("exit without a matching enter");
        let s = &mut self.spans[o.slot];
        s.host_start_ns = o.host_start_ns;
        s.host_end_ns = epoch.elapsed().as_nanos() as u64;
        s.cpu_ns = thread_cpu_ns().saturating_sub(o.cpu_start);
        s.virt_start = o.virt_start;
        s.virt_end = clock.now();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, clock: &Clock, f: impl FnOnce() -> R) -> R {
        self.enter(name, clock);
        let out = f();
        self.exit(clock);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "spans left open");
        self.spans
    }
}

/// Self time of one layer: its spans' durations minus the parts their
/// child spans cover.
#[derive(Debug, Default, Clone, Copy)]
pub struct SelfTime {
    pub virt: SimTime,
    pub cpu_ns: u64,
}

/// Self time per layer, summed over every rank's span list.
pub fn self_time_by_layer(per_rank: &[Vec<Span>]) -> BTreeMap<&'static str, SelfTime> {
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for spans in per_rank {
        let mut child_virt = vec![SimTime::ZERO; spans.len()];
        let mut child_cpu = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_virt[p] += s.virt();
                child_cpu[p] += s.cpu_ns;
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let e = out.entry(s.layer()).or_default();
            e.virt += s.virt().saturating_sub(child_virt[i]);
            e.cpu_ns += s.cpu_ns.saturating_sub(child_cpu[i]);
        }
    }
    out
}

/// Total virtual time and CPU time of every span named `name`.
pub fn total(per_rank: &[Vec<Span>], name: &str) -> (SimTime, u64) {
    per_rank
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .fold((SimTime::ZERO, 0), |(v, c), s| (v + s.virt(), c + s.cpu_ns))
}

/// The spans as a JSON array, one object per span.
pub fn spans_json(per_rank: &[Vec<Span>]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    for spans in per_rank {
        for (i, s) in spans.iter().enumerate() {
            if !first {
                out.push_str(",\n");
            }
            first = false;
            let rank = if s.rank == POST_RUN {
                "null".to_string()
            } else {
                s.rank.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"rank\":{rank},\"parent\":{parent},\
                 \"host_start_ns\":{},\"host_end_ns\":{},\"cpu_ns\":{},\
                 \"virt_start_ns\":{},\"virt_end_ns\":{}}}",
                s.name,
                s.host_start_ns,
                s.host_end_ns,
                s.cpu_ns,
                s.virt_start.as_nanos(),
                s.virt_end.as_nanos()
            );
        }
    }
    out.push_str("\n]\n");
    out
}

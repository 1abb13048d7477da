//! The three workloads, driven through pMEMCPY's public API on the simulated
//! stack (`pmem_sim` device and cost model, `pmdk_sim` pool, `mpi_sim` ranks
//! under the default deterministic scheduler, which runs one rank thread at
//! a time whatever the modelled rank count).
//!
//! - `pio-write`: the Figure 6 headline cell. 24 ranks group-commit their
//!   blocks of a 10-variable 3-D `f64` domain into a fresh DevDax pool.
//! - `pio-read`: the Figure 7 restart. The same ranks batch-read every block
//!   back, after an untimed write of the same domain done during set-up.
//! - `meta-storm`: 8 ranks mint fresh keys with 8-byte values in 64-key
//!   `WriteBatch` commits, then read a seeded sample back with `load_slice`.
//!
//! Each job is timed from `mmap` to the barrier after `munmap`, exactly as
//! the Figure 6/7 harness times its cells.

use crate::host::Usage;
use crate::trace::{Span, Tracer, POST_RUN};
use mpi_sim::{run_world_mode, Comm, SchedMode};
use pmem_sim::{
    Clock, Machine, MachineConfig, MetricsRegistry, MetricsSnapshot, PersistenceMode, PmemDevice,
    SimTime, StatsSnapshot,
};
use pmemcpy::{registry, MmapTarget, Options, Pmem, WriteBatch};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::{BlockDecomp, Domain3dSpec};

/// Modelled volume of a `pio-*` cell: the paper's 40 GiB.
const PAPER_MODELLED_BYTES: u64 = 40 << 30;
/// Variables of the 3-D domain (the paper: 10).
const NVARS: usize = 10;
/// Keys per `WriteBatch` commit on `meta-storm`.
const STORM_GROUP: u64 = 64;
/// Payload bytes per `meta-storm` key.
const STORM_VALUE_BYTES: usize = 8;
/// Every how-many keys a `meta-storm` rank reads back.
const STORM_SAMPLE_STRIDE: u64 = 97;
/// Blocks `pio-write` reads back after its pool is reopened.
const PIO_WRITE_SAMPLE_BLOCKS: usize = 16;
/// Fill of `pio-read`'s restart buffers before the read: a NaN bit pattern
/// the generator never produces.
const UNREAD: u64 = u64::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PioWrite,
    PioRead,
    MetaStorm,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::PioWrite, Workload::PioRead, Workload::MetaStorm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PioWrite => "pio-write",
            Workload::PioRead => "pio-read",
            Workload::MetaStorm => "meta-storm",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Sizes of the workloads.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub pio_ranks: u64,
    /// Real bytes requested for the `pio-*` domain (the grid rounds down).
    pub pio_real_bytes: u64,
    pub storm_ranks: u64,
    pub storm_keys_per_rank: u64,
}

impl Sizes {
    /// The benchmark's sizes: the Figure 6/7 cell at 64 MiB real, and a
    /// storm whose directory doubles six times with 2 048 commits to sample.
    pub fn full() -> Sizes {
        Sizes {
            pio_ranks: 24,
            pio_real_bytes: 64 << 20,
            storm_ranks: 8,
            storm_keys_per_rank: 16_384,
        }
    }

    /// Sizes small enough for a debug-build test.
    pub fn smoke() -> Sizes {
        Sizes {
            pio_ranks: 24,
            pio_real_bytes: 4 << 20,
            storm_ranks: 8,
            storm_keys_per_rank: 256,
        }
    }
}

/// SplitMix64 finalizer: a bijection on `u64`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Everything one run of a workload is made from. [`Plan::new`] derives it
/// from the seed; tests may pin fields.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub sizes: Sizes,
    pub seed: u64,
    /// Modelled bytes per real byte on `pio-*`. The seed draws it from the
    /// five values around [`Plan::paper_byte_scale`], so the modelled volume
    /// (±0.3%) is an input the seed varies, like the data; at the paper
    /// scale the cell is the Figure 6/7 cell.
    pub byte_scale: u64,
    /// Corrupt one stored payload element before it is verified.
    pub plant_mismatch: bool,
}

impl Plan {
    pub fn new(workload: Workload, sizes: Sizes, seed: u64) -> Plan {
        let mut plan = Plan {
            workload,
            sizes,
            seed,
            byte_scale: 1,
            plant_mismatch: false,
        };
        if workload != Workload::MetaStorm {
            plan.byte_scale = plan.paper_byte_scale() + mix(seed ^ 0x5ca1e) % 5 - 2;
        }
        plan
    }

    fn domain(&self) -> Domain3dSpec {
        Domain3dSpec::paper(self.sizes.pio_ranks, self.sizes.pio_real_bytes)
    }

    /// The byte scale that makes the domain 40 GiB modelled, as
    /// `CellConfig::paper` computes it.
    pub fn paper_byte_scale(&self) -> u64 {
        (PAPER_MODELLED_BYTES / self.domain().actual_bytes()).max(1)
    }
}

/// Seeded, exactly representable element value: a function of the seed, the
/// variable and the global linear element index, distinct within a run.
fn element(seed: u64, var: usize, global_linear: u64) -> f64 {
    let base = mix(seed) % (1 << 20);
    ((base << 20) + var as u64 * 1_000_003 + global_linear) as f64 * 0.5
}

/// `rank`'s block of variable `var`, row-major (as `workloads::generate_block`
/// lays it out, with seeded values).
fn block(decomp: &BlockDecomp, seed: u64, rank: u64, var: usize) -> Vec<f64> {
    let (off, dims) = decomp.block(rank);
    let g = &decomp.global_dims;
    let mut out = Vec::with_capacity(dims.iter().product::<u64>() as usize);
    for x in 0..dims[0] {
        for y in 0..dims[1] {
            let row = ((off[0] + x) * g[1] + off[1] + y) * g[2] + off[2];
            out.extend((0..dims[2]).map(|z| element(seed, var, row + z)));
        }
    }
    out
}

struct PioInputs {
    decomp: BlockDecomp,
    vars: Vec<String>,
    /// `blocks[rank][var]`, row-major within the rank's block.
    blocks: Vec<Vec<Vec<f64>>>,
}

struct StormInputs {
    /// `keys[rank][i]`, fixed width.
    keys: Vec<Vec<String>>,
    /// `values[rank]`: key `i`'s value is bytes `8i..8i+8`.
    values: Vec<Vec<u8>>,
    /// Keys each rank reads back.
    samples: Vec<Vec<usize>>,
}

enum Inputs {
    Pio(PioInputs),
    Storm(StormInputs),
}

impl Inputs {
    fn generate(plan: &Plan) -> Inputs {
        let seed = plan.seed;
        match plan.workload {
            Workload::PioWrite | Workload::PioRead => {
                let spec = plan.domain();
                let decomp = spec.decompose();
                let blocks = (0..plan.sizes.pio_ranks)
                    .map(|rank| {
                        (0..NVARS)
                            .map(|var| block(&decomp, seed, rank, var))
                            .collect()
                    })
                    .collect();
                Inputs::Pio(PioInputs {
                    decomp,
                    vars: spec.var_names(),
                    blocks,
                })
            }
            Workload::MetaStorm => {
                let (ranks, n) = (plan.sizes.storm_ranks, plan.sizes.storm_keys_per_rank);
                let salt = mix(seed) as u32;
                // A bijection on u32 keyed by the seed keeps a rank's keys
                // distinct and fixed width ("storm/r000/k" + 8 hex digits,
                // as wide as the repository's creation-storm keys).
                let key_id = |i: u64| {
                    let mut x = (i as u32) ^ salt;
                    x = x.wrapping_mul(0x9e37_79b1);
                    x ^= x >> 15;
                    x.wrapping_add(salt.rotate_left(7))
                };
                let keys = (0..ranks)
                    .map(|r| {
                        (0..n)
                            .map(|i| format!("storm/r{r:03}/k{:08x}", key_id(i)))
                            .collect()
                    })
                    .collect();
                let values = (0..ranks)
                    .map(|r| {
                        (0..n)
                            .flat_map(|i| mix(seed ^ (r << 40) ^ i).to_le_bytes())
                            .collect()
                    })
                    .collect();
                let samples = (0..ranks)
                    .map(|r| {
                        let first = mix(seed ^ r) % STORM_SAMPLE_STRIDE;
                        (first..n)
                            .step_by(STORM_SAMPLE_STRIDE as usize)
                            .map(|i| i as usize)
                            .collect()
                    })
                    .collect();
                Inputs::Storm(StormInputs {
                    keys,
                    values,
                    samples,
                })
            }
        }
    }

    /// User payload bytes the job stores (real, not modelled).
    fn payload_bytes(&self) -> u64 {
        match self {
            Inputs::Pio(p) => p.blocks.iter().flatten().map(|b| b.len() as u64 * 8).sum(),
            Inputs::Storm(s) => s.values.iter().map(|v| v.len() as u64).sum(),
        }
    }
}

/// A workload ready to run: inputs generated, device created and, for
/// `pio-read`, the domain written. Building it is the benchmark's set-up.
pub struct Prepared {
    plan: Plan,
    inputs: Arc<Inputs>,
    machine: Arc<Machine>,
    device: Arc<PmemDevice>,
    /// `pio-read`'s restart buffers, `[rank][var]`, allocated and touched
    /// in set-up as an application allocates its arrays before a restart.
    read_bufs: Arc<Vec<Mutex<Vec<Vec<f64>>>>>,
    /// Host time spent generating the inputs.
    pub gen_host: Duration,
}

/// Generate inputs and build the device for one run of `plan`.
pub fn prepare(plan: &Plan) -> Prepared {
    let t0 = Instant::now();
    let inputs = Arc::new(Inputs::generate(plan));
    let gen_host = t0.elapsed();
    let mut mc = MachineConfig::chameleon_skylake();
    mc.byte_scale = plan.byte_scale;
    let machine = Machine::new(mc);
    // Device sizes follow the repository's Figure 6/7 and storm cells.
    let dev_size = match plan.workload {
        Workload::MetaStorm => {
            plan.sizes.storm_ranks * plan.sizes.storm_keys_per_rank * 384 + (64 << 20)
        }
        _ => plan.sizes.pio_real_bytes * 3 + (32 << 20),
    };
    let device = PmemDevice::new(
        Arc::clone(&machine),
        dev_size as usize,
        PersistenceMode::Fast,
    );
    // Fault the emulated device's host memory in now: a real device exists
    // before the job maps it, and first-touch page faults of the backing
    // allocation are host noise, not the simulator's work.
    device.zero_untimed(0, device.size());
    let read_bufs = match (plan.workload, inputs.as_ref()) {
        (Workload::PioRead, Inputs::Pio(inp)) => inp
            .blocks
            .iter()
            .map(|vars| {
                let bufs = vars.iter().map(|b| vec![f64::from_bits(UNREAD); b.len()]);
                Mutex::new(bufs.collect())
            })
            .collect(),
        _ => Vec::new(),
    };
    let prep = Prepared {
        plan: plan.clone(),
        inputs,
        machine,
        device,
        read_bufs: Arc::new(read_bufs),
        gen_host,
    };
    if plan.workload == Workload::PioRead {
        // The restart reads what a checkpoint wrote; that write is set-up.
        run_job(&prep, Workload::PioWrite, None);
        prep.machine.reset();
        if plan.plant_mismatch {
            plant_mismatch(&prep, (0, 0));
        }
    }
    prep
}

/// What one rank did.
#[derive(Default)]
struct RankOut {
    end: SimTime,
    commit_lat: Vec<SimTime>,
    attempted: u64,
    failed: u64,
    spans: Vec<Span>,
    read_back: Vec<Vec<f64>>,
}

/// Result of one timed run.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Modelled job time: the slowest rank, `mmap` to the barrier after
    /// `munmap`. No workload starts a background lane.
    pub virtual_time: SimTime,
    pub rank_times: Vec<SimTime>,
    /// Host wall-clock of the timed phase.
    pub wall: Duration,
    /// Process CPU time and context switches over the timed phase.
    pub usage: Usage,
    /// Virtual latency of every batch commit (`WriteBatch` or `ReadBatch`).
    pub commit_lat: Vec<SimTime>,
    pub attempted: u64,
    pub failed: u64,
    /// Machine counters of the timed phase.
    pub stats: StatsSnapshot,
    /// Largest entry of `Machine::utilization()`: the device-busy bound.
    pub device_bound: SimTime,
    /// Pool bytes allocated after `munmap` over user payload bytes.
    pub space_amp: f64,
    /// Keys the timed phase stores, or reads when it stores none.
    pub keys: u64,
    /// Persistent chain-length histogram after the run (index = length).
    pub chain_hist: Vec<u64>,
    /// Registry snapshot of the timed phase (traced runs only).
    pub metrics: Option<MetricsSnapshot>,
    /// Spans per rank, then the post-run spans (traced runs only).
    pub spans: Vec<Vec<Span>>,
}

/// Run the timed phase of a prepared workload once, then check its outputs.
/// A traced run installs the program's metrics registry and records spans;
/// neither changes virtual time.
pub fn run(prep: Prepared, traced: bool) -> Outcome {
    let registry = traced.then(MetricsRegistry::new);
    if let Some(r) = &registry {
        prep.machine.set_metrics(Arc::clone(r));
    }
    let epoch = traced.then(Instant::now);
    let u0 = Usage::now();
    let t0 = Instant::now();
    let ranks = run_job(&prep, prep.plan.workload, epoch);
    let wall = t0.elapsed();
    let usage = Usage::now().since(&u0);

    let stats = prep.machine.with_quiesced_stats(|s| *s);
    let metrics = registry.map(|r| r.snapshot());
    let device_bound = prep
        .machine
        .utilization()
        .iter()
        .map(|(_, t, _)| *t)
        .max()
        .unwrap_or(SimTime::ZERO);
    let rank_times: Vec<SimTime> = ranks.iter().map(|r| r.end).collect();
    let mut out = Outcome {
        virtual_time: rank_times.iter().copied().fold(SimTime::ZERO, SimTime::max),
        rank_times,
        wall,
        usage,
        commit_lat: ranks
            .iter()
            .flat_map(|r| r.commit_lat.iter().copied())
            .collect(),
        attempted: ranks.iter().map(|r| r.attempted).sum(),
        failed: ranks.iter().map(|r| r.failed).sum(),
        stats,
        device_bound,
        metrics,
        ..Outcome::default()
    };

    // Inspect the finished pool (untimed: counters were read above).
    let mut post = Tracer::new(POST_RUN, epoch);
    let clock = Clock::new();
    let shared = registry::shared_pool(
        &clock,
        &prep.device,
        "pmemcpy",
        Options::pmcpy_a().hashtable_buckets,
    )
    .expect("reopen the pool the run just unmapped");
    out.space_amp = shared.pool.allocated_bytes() as f64 / prep.inputs.payload_bytes() as f64;
    out.chain_hist = post.span("pmdk.chain_length_histogram", &clock, || {
        shared.hashtable.chain_length_histogram(&clock)
    });
    match prep.inputs.as_ref() {
        Inputs::Pio(inp) if prep.plan.workload == Workload::PioWrite => {
            out.keys = (inp.blocks.len() * NVARS + NVARS) as u64;
            let (attempted, failed) = verify_pio_write_sample(&prep, inp);
            out.attempted += attempted;
            out.failed += failed;
        }
        Inputs::Pio(inp) => {
            out.keys = (inp.blocks.len() * NVARS) as u64;
            // Every element of every block, bit-exact.
            for (rank, r) in ranks.iter().enumerate() {
                for (var, got) in r.read_back.iter().enumerate() {
                    let want = &inp.blocks[rank][var];
                    if got.len() != want.len()
                        || got
                            .iter()
                            .zip(want)
                            .any(|(a, b)| a.to_bits() != b.to_bits())
                    {
                        out.failed += 1;
                    }
                }
            }
        }
        Inputs::Storm(inp) => {
            let minted: u64 = inp.keys.iter().map(|k| k.len() as u64).sum();
            out.keys = minted;
            // Keys missing from (or extra in) the namespace count as failed.
            out.failed += shared.hashtable.len(&clock).abs_diff(minted);
        }
    }
    drop(shared);
    registry::release_pool(&prep.device);
    if traced {
        out.spans = ranks.into_iter().map(|r| r.spans).collect();
        out.spans.push(post.into_spans());
    }
    // A run faster than its own device bound is not physically possible.
    if out.virtual_time < out.device_bound {
        out.failed = out.attempted;
    }
    out
}

/// Run `workload`'s job body on every rank of a fresh world.
fn run_job(prep: &Prepared, workload: Workload, epoch: Option<Instant>) -> Vec<RankOut> {
    let (inputs, device) = (Arc::clone(&prep.inputs), Arc::clone(&prep.device));
    let read_bufs = Arc::clone(&prep.read_bufs);
    let ranks = match workload {
        Workload::MetaStorm => prep.plan.sizes.storm_ranks,
        _ => prep.plan.sizes.pio_ranks,
    };
    run_world_mode(
        Arc::clone(&prep.machine),
        ranks as usize,
        SchedMode::Deterministic,
        move |comm| {
            let mut tr = Tracer::new(comm.rank() as u32, epoch);
            let mut out = RankOut::default();
            tr.enter("bench.rank", comm.clock());
            match (workload, inputs.as_ref()) {
                (Workload::PioWrite, Inputs::Pio(inp)) => {
                    pio_write_rank(&comm, &device, inp, &mut tr, &mut out)
                }
                (Workload::PioRead, Inputs::Pio(inp)) => {
                    let bufs = std::mem::take(
                        &mut *read_bufs[comm.rank()]
                            .lock()
                            .expect("no rank panics holding its buffers"),
                    );
                    pio_read_rank(&comm, &device, inp, bufs, &mut tr, &mut out)
                }
                (Workload::MetaStorm, Inputs::Storm(inp)) => {
                    storm_rank(&comm, &device, inp, &mut tr, &mut out)
                }
                _ => unreachable!("inputs are generated for the plan's workload"),
            }
            tr.exit(comm.clock());
            out.spans = tr.into_spans();
            out
        },
    )
}

fn mmap(comm: &Comm, device: &Arc<PmemDevice>, tr: &mut Tracer) -> Pmem {
    let mut pmem = Pmem::with_options(Options::pmcpy_a());
    tr.span("pmemcpy.mmap", comm.clock(), || {
        pmem.mmap(MmapTarget::DevDax(device), comm)
    })
    .expect("mmap is collective: a failure here cannot be counted and carried on from");
    pmem
}

/// Release the mapping and fold the slowest rank into every clock, as the
/// Figure 6/7 harness does; the rank's end time is read after it.
fn munmap(comm: &Comm, mut pmem: Pmem, tr: &mut Tracer, out: &mut RankOut) {
    tr.span("pmemcpy.munmap", comm.clock(), || pmem.munmap())
        .expect("munmap is collective: a failure here cannot be counted and carried on from");
    barrier(comm, tr);
    out.end = comm.now();
}

fn barrier(comm: &Comm, tr: &mut Tracer) {
    tr.span("mpi.barrier", comm.clock(), || comm.barrier());
}

/// Stage and commit one write batch of `n` keys inside a
/// `pmemcpy.put_commit` span (staging may read the pool: `store_block`
/// resolves dims), recording the virtual latency of `WriteBatch::commit`.
fn put_commit<'a>(
    comm: &Comm,
    n: u64,
    tr: &mut Tracer,
    out: &mut RankOut,
    stage: impl FnOnce() -> pmemcpy::Result<WriteBatch<'a>>,
) {
    out.attempted += n;
    let r = tr.span("pmemcpy.put_commit", comm.clock(), || {
        let batch = stage()?;
        let t0 = comm.now();
        let r = batch.commit();
        out.commit_lat.push(comm.now() - t0);
        r
    });
    if r.is_err() {
        out.failed += n;
    }
}

fn pio_write_rank(
    comm: &Comm,
    device: &Arc<PmemDevice>,
    inp: &PioInputs,
    tr: &mut Tracer,
    out: &mut RankOut,
) {
    let rank = comm.rank();
    let pmem = mmap(comm, device, tr);
    let (off, dims) = inp.decomp.block(rank as u64);
    let nvars = inp.vars.len() as u64;
    if rank == 0 {
        // One group commit for every variable's dims record.
        put_commit(comm, nvars, tr, out, || {
            let mut b = pmem.batch();
            for v in &inp.vars {
                b.alloc::<f64>(v, &inp.decomp.global_dims)?;
            }
            Ok(b)
        });
    }
    barrier(comm, tr);
    // The rank's whole output step as one group commit.
    put_commit(comm, nvars, tr, out, || {
        let mut b = pmem.batch();
        for (v, data) in inp.vars.iter().zip(&inp.blocks[rank]) {
            b.store_block(v, data, &off, &dims)?;
        }
        Ok(b)
    });
    barrier(comm, tr);
    munmap(comm, pmem, tr, out);
}

fn pio_read_rank(
    comm: &Comm,
    device: &Arc<PmemDevice>,
    inp: &PioInputs,
    mut blocks: Vec<Vec<f64>>,
    tr: &mut Tracer,
    out: &mut RankOut,
) {
    let rank = comm.rank();
    let pmem = mmap(comm, device, tr);
    let (off, dims) = inp.decomp.block(rank as u64);
    out.attempted += inp.vars.len() as u64;
    let r = tr.span("pmemcpy.get_commit", comm.clock(), || {
        let mut b = pmem.read_batch();
        for (v, dst) in inp.vars.iter().zip(blocks.iter_mut()) {
            b.load_block_into(v, dst, &off, &dims)?;
        }
        let t0 = comm.now();
        let r = b.commit();
        out.commit_lat.push(comm.now() - t0);
        r
    });
    if r.is_err() {
        // Emptied blocks fail verification, which counts them.
        blocks.iter_mut().for_each(Vec::clear);
    }
    barrier(comm, tr);
    munmap(comm, pmem, tr, out);
    out.read_back = blocks;
}

fn storm_rank(
    comm: &Comm,
    device: &Arc<PmemDevice>,
    inp: &StormInputs,
    tr: &mut Tracer,
    out: &mut RankOut,
) {
    let rank = comm.rank();
    let (keys, values) = (&inp.keys[rank], &inp.values[rank]);
    let pmem = mmap(comm, device, tr);
    let n = keys.len() as u64;
    let mut i = 0u64;
    while i < n {
        let end = (i + STORM_GROUP).min(n);
        put_commit(comm, end - i, tr, out, || {
            let mut b = pmem.batch();
            for k in i as usize..end as usize {
                b.store_slice::<u8>(
                    &keys[k],
                    &values[k * STORM_VALUE_BYTES..][..STORM_VALUE_BYTES],
                )?;
            }
            Ok(b)
        });
        i = end;
    }
    for &k in &inp.samples[rank] {
        out.attempted += 1;
        let got = tr.span("pmemcpy.load_slice", comm.clock(), || {
            pmem.load_slice::<u8>(&keys[k])
        });
        if got.ok().as_deref() != Some(&values[k * STORM_VALUE_BYTES..][..STORM_VALUE_BYTES]) {
            out.failed += 1;
        }
    }
    barrier(comm, tr);
    munmap(comm, pmem, tr, out);
}

/// Reopen the written pool on one rank and read back a seeded sample of
/// blocks. Returns (blocks attempted, blocks mismatched or unreadable).
fn verify_pio_write_sample(prep: &Prepared, inp: &PioInputs) -> (u64, u64) {
    let ranks = inp.blocks.len();
    let picks: Vec<(usize, usize)> = (0..PIO_WRITE_SAMPLE_BLOCKS as u64)
        .map(|i| {
            let h = mix(prep.plan.seed ^ (i << 32));
            (
                (h % ranks as u64) as usize,
                ((h >> 32) % NVARS as u64) as usize,
            )
        })
        .collect();
    if prep.plan.plant_mismatch {
        plant_mismatch(prep, picks[0]);
    }
    let (device, inputs) = (Arc::clone(&prep.device), Arc::clone(&prep.inputs));
    let failed = run_world_mode(
        Arc::clone(&prep.machine),
        1,
        SchedMode::Deterministic,
        move |comm| {
            let Inputs::Pio(inp) = inputs.as_ref() else {
                unreachable!("pio-write has pio inputs")
            };
            let mut pmem = Pmem::with_options(Options::pmcpy_a());
            pmem.mmap(MmapTarget::DevDax(&device), &comm)
                .expect("reopen the written pool");
            let mut failed = 0u64;
            for &(rank, var) in &picks {
                let (off, dims) = inp.decomp.block(rank as u64);
                let want = &inp.blocks[rank][var];
                let mut got = vec![0f64; want.len()];
                let ok = pmem
                    .load_block(&inp.vars[var], &mut got, &off, &dims)
                    .is_ok()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                failed += u64::from(!ok);
            }
            pmem.munmap().expect("unmap the verification mapping");
            failed
        },
    );
    (PIO_WRITE_SAMPLE_BLOCKS as u64, failed[0])
}

/// Flip one byte of a stored payload element (the first of `rank`'s block
/// of variable `var`, located by its bytes on the device) so verification
/// must catch it.
fn plant_mismatch(prep: &Prepared, (rank, var): (usize, usize)) {
    let Inputs::Pio(inp) = prep.inputs.as_ref() else {
        panic!("payload planting is defined for the pio workloads");
    };
    let needle: Vec<u8> = inp.blocks[rank][var][..2]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();
    let image = prep.device.read_vec_untimed(0, prep.device.size());
    let at = image
        .windows(needle.len())
        .position(|w| w == needle.as_slice())
        .expect("the block was written to the device");
    prep.device.write_untimed(at, &[image[at] ^ 0xff]);
}

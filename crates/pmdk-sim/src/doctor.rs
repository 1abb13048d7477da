//! Offline pool forensics: read-only physical walks over a raw pool image.
//!
//! Everything here works on a bare [`PmemDevice`] **without** opening the
//! pool — no recovery runs, no lanes roll back, nothing is written. That is
//! the property `pmemcpy-doctor` needs: examining a crashed image must not
//! destroy the evidence (an `open` would roll active lanes back and bump
//! the generation). All reads go through the untimed plane, so no virtual
//! clock is required and no charges accrue.
//!
//! The walks are defensive: a crashed or corrupt image may hold torn
//! pointers, so every dereference is bounds-checked and every chain walk is
//! hop-bounded. Problems are collected as strings, never panics.

use crate::hashtable::{
    self, ENT_HASH, ENT_KEY, ENT_KLEN, ENT_NEXT, ENT_VLEN, HDR_BUCKETS, HDR_COUNT, HDR_CURSOR,
    HDR_DIRTY, HDR_HEADS, HDR_OLD_BUCKETS, HDR_OLD_HEADS, STRIPES,
};
use crate::layout::*;
use crate::log;
use pmem_sim::flight::{self, FlightEvent};
use pmem_sim::PmemDevice;

/// Bound on offline chain walks: a torn `next` pointer may form a cycle.
const MAX_HOPS: u32 = 1 << 16;

fn ru32(dev: &PmemDevice, off: u64) -> u32 {
    let mut b = [0u8; 4];
    dev.read_untimed(off as usize, &mut b);
    u32::from_le_bytes(b)
}

fn ru64(dev: &PmemDevice, off: u64) -> u64 {
    let mut b = [0u8; 8];
    dev.read_untimed(off as usize, &mut b);
    u64::from_le_bytes(b)
}

/// Decoded superblock + validity flags.
#[derive(Debug, Clone)]
pub struct SuperblockReport {
    pub magic: u64,
    pub magic_ok: bool,
    pub version: u64,
    pub pool_size: u64,
    pub size_matches_device: bool,
    pub heap_start: u64,
    pub heap_start_ok: bool,
    pub root_off: u64,
    pub root_size: u64,
    pub root_ok: bool,
    pub layout_name: String,
    pub generation: u64,
    /// Device profile the pool was last mounted on (`pmem_sim::profile`
    /// registry id; 0 = unknown / pre-profile pool).
    pub device_profile_id: u32,
    /// Autotuned put-path flush strategy cached at mount (`FlushStrategy`
    /// code; 0 = not yet tuned).
    pub flush_strategy_code: u32,
}

impl SuperblockReport {
    pub fn ok(&self) -> bool {
        self.magic_ok && self.size_matches_device && self.heap_start_ok && self.root_ok
    }

    /// Human name of the recorded device profile ("unknown" for id 0 or an
    /// unrecognised id).
    pub fn device_profile_name(&self) -> &'static str {
        pmem_sim::profile::profile_name_by_id(self.device_profile_id).unwrap_or("unknown")
    }

    /// Human name of the cached flush strategy ("unset" when not yet tuned).
    pub fn flush_strategy_name(&self) -> &'static str {
        pmem_sim::FlushStrategy::from_code(self.flush_strategy_code)
            .map(|s| s.name())
            .unwrap_or("unset")
    }
}

/// Decode the superblock without touching anything else.
pub fn read_superblock(dev: &PmemDevice) -> SuperblockReport {
    let magic = ru64(dev, sb::MAGIC);
    let pool_size = ru64(dev, sb::POOL_SIZE);
    let heap = ru64(dev, sb::HEAP_START);
    let root_off = ru64(dev, sb::ROOT_OFF);
    let root_size = ru64(dev, sb::ROOT_SIZE);
    let layout_len = ru64(dev, sb::LAYOUT_LEN).min(sb::LAYOUT_NAME_MAX);
    let mut name = vec![0u8; layout_len as usize];
    dev.read_untimed(sb::LAYOUT_NAME as usize, &mut name);
    SuperblockReport {
        magic,
        magic_ok: magic == POOL_MAGIC,
        version: ru64(dev, sb::VERSION),
        pool_size,
        size_matches_device: pool_size == dev.size() as u64,
        heap_start: heap,
        heap_start_ok: heap == heap_start(),
        root_off,
        root_size,
        root_ok: root_off == 0
            || root_off
                .checked_add(root_size)
                .is_some_and(|end| end <= dev.size() as u64),
        layout_name: String::from_utf8_lossy(&name).into_owned(),
        generation: ru64(dev, sb::GENERATION),
        device_profile_id: ru32(dev, sb::DEVICE_PROFILE),
        flush_strategy_code: ru32(dev, sb::FLUSH_STRATEGY),
    }
}

/// One transaction lane's persisted header.
#[derive(Debug, Clone)]
pub struct LaneReport {
    pub index: u64,
    pub state: u32,
    pub undo_len: u32,
    pub intent_count: u32,
    pub generation: u32,
}

impl LaneReport {
    pub fn state_name(&self) -> &'static str {
        match self.state {
            LANE_IDLE => "idle",
            LANE_ACTIVE => "ACTIVE",
            LANE_COMMITTING => "COMMITTING",
            _ => "CORRUPT",
        }
    }
}

/// All lane headers plus idle/active/committing tallies.
#[derive(Debug, Clone, Default)]
pub struct LaneSummary {
    pub idle: u64,
    pub active: u64,
    pub committing: u64,
    pub corrupt: u64,
    /// Only the non-idle lanes (the interesting ones).
    pub busy: Vec<LaneReport>,
}

impl LaneSummary {
    pub fn all_idle(&self) -> bool {
        self.active == 0 && self.committing == 0 && self.corrupt == 0
    }
}

pub fn read_lanes(dev: &PmemDevice) -> LaneSummary {
    let mut out = LaneSummary::default();
    for i in 0..LANES {
        let base = lane_offset(i);
        let rep = LaneReport {
            index: i,
            state: ru32(dev, base + lane::STATE),
            undo_len: ru32(dev, base + lane::UNDO_LEN),
            intent_count: ru32(dev, base + lane::INTENT_COUNT),
            generation: ru32(dev, base + lane::GENERATION),
        };
        match rep.state {
            LANE_IDLE => out.idle += 1,
            LANE_ACTIVE => out.active += 1,
            LANE_COMMITTING => out.committing += 1,
            _ => out.corrupt += 1,
        }
        if rep.state != LANE_IDLE {
            out.busy.push(rep);
        }
    }
    out
}

/// Physical heap walk: every block header in address order.
#[derive(Debug, Clone, Default)]
pub struct HeapReport {
    pub blocks: usize,
    pub live_allocations: usize,
    pub free_blocks: usize,
    pub allocated_bytes: u64,
    pub free_bytes: u64,
    pub largest_free_block: u64,
    /// Linkage violations (bad magic, bad prev_size, overrun, bad state).
    pub errors: Vec<String>,
}

impl HeapReport {
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Walk the heap's physical block chain, cross-checking the doubly-linked
/// geometry (`prev_size` must equal the previous block's payload size) the
/// same way `Heap::check_invariants` does on a mounted pool.
pub fn walk_heap(dev: &PmemDevice) -> HeapReport {
    let mut out = HeapReport::default();
    let heap_end = dev.size() as u64;
    let mut cursor = heap_start();
    let mut prev_payload = 0u64;
    // The formatter only places a block where header + one aligned payload
    // fit, so smaller trailing slack is legal, not a torn block.
    while cursor + BLOCK_HEADER_SIZE + HEAP_ALIGN <= heap_end {
        let magic = ru32(dev, cursor + blk::MAGIC);
        if magic != BLOCK_MAGIC {
            out.errors
                .push(format!("block at {cursor:#x}: bad magic {magic:#x}"));
            break;
        }
        let state = ru32(dev, cursor + blk::STATE);
        let size = ru64(dev, cursor + blk::SIZE);
        let prev = ru64(dev, cursor + blk::PREV_SIZE);
        // No alignment check: the tail free block's payload is whatever
        // remains and `Heap::rebuild` accepts it the same way.
        if size == 0 || cursor + BLOCK_HEADER_SIZE + size > heap_end {
            out.errors
                .push(format!("block at {cursor:#x}: implausible size {size}"));
            break;
        }
        if prev != prev_payload {
            out.errors.push(format!(
                "block at {cursor:#x}: prev_size {prev} != previous payload {prev_payload}"
            ));
        }
        match state {
            BLOCK_FREE => {
                out.free_blocks += 1;
                out.free_bytes += size;
                out.largest_free_block = out.largest_free_block.max(size);
            }
            BLOCK_ALLOC => {
                out.live_allocations += 1;
                out.allocated_bytes += size;
            }
            _ => out
                .errors
                .push(format!("block at {cursor:#x}: bad state {state}")),
        }
        out.blocks += 1;
        prev_payload = size;
        cursor += BLOCK_HEADER_SIZE + size;
    }
    if out.blocks == 0 {
        out.errors.push("heap holds no valid blocks".into());
    }
    out
}

/// One reachable hashtable entry (key + value location, not the payload).
#[derive(Debug, Clone)]
pub struct EntryReport {
    pub key: Vec<u8>,
    pub value_off: u64,
    pub value_len: u64,
}

/// Per-stripe chain statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StripeStat {
    pub buckets: u64,
    pub entries: u64,
    pub longest_chain: u64,
}

/// Offline view of the metadata hashtable, including mid-split geometry.
#[derive(Debug, Clone, Default)]
pub struct HashtableReport {
    pub header_off: u64,
    pub buckets: u64,
    pub heads: u64,
    /// Non-zero while an incremental split is in flight.
    pub old_buckets: u64,
    pub old_heads: u64,
    pub cursor: u64,
    pub mid_split: bool,
    /// Persisted entry count (authoritative only when `count_dirty` is 0).
    pub persisted_count: u64,
    pub count_dirty: bool,
    /// Entries found by walking every chain.
    pub reachable: u64,
    pub entries: Vec<EntryReport>,
    pub stripes: Vec<StripeStat>,
    /// Histogram of chain lengths: index = length, value = bucket count.
    pub chain_histogram: Vec<u64>,
    pub errors: Vec<String>,
}

impl HashtableReport {
    pub fn ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// Find a reachable entry by exact key.
    pub fn lookup(&self, key: &[u8]) -> Option<&EntryReport> {
        self.entries.iter().find(|e| e.key == key)
    }
}

fn in_heap(dev: &PmemDevice, off: u64, len: u64) -> bool {
    off >= heap_start()
        && off
            .checked_add(len)
            .is_some_and(|end| end <= dev.size() as u64)
}

/// Walk the hashtable rooted at `header_off`: geometry, then every chain of
/// the new table and (mid-split) the unmigrated tail of the old table.
pub fn walk_hashtable(dev: &PmemDevice, header_off: u64) -> HashtableReport {
    let mut out = HashtableReport {
        header_off,
        ..Default::default()
    };
    if !in_heap(dev, header_off, hashtable::HDR_SIZE) {
        out.errors
            .push(format!("hashtable header {header_off:#x} outside heap"));
        return out;
    }
    out.buckets = ru64(dev, header_off + HDR_BUCKETS);
    out.heads = ru64(dev, header_off + HDR_HEADS);
    out.old_buckets = ru64(dev, header_off + HDR_OLD_BUCKETS);
    out.old_heads = ru64(dev, header_off + HDR_OLD_HEADS);
    out.cursor = ru64(dev, header_off + HDR_CURSOR);
    out.persisted_count = ru64(dev, header_off + HDR_COUNT);
    out.count_dirty = ru64(dev, header_off + HDR_DIRTY) != 0;
    out.mid_split = out.old_buckets != 0;
    if out.buckets == 0 || !in_heap(dev, out.heads, out.buckets * 8) {
        out.errors.push(format!(
            "implausible geometry: {} buckets, heads {:#x}",
            out.buckets, out.heads
        ));
        return out;
    }
    if out.mid_split {
        if !in_heap(dev, out.old_heads, out.old_buckets * 8) {
            out.errors.push(format!(
                "implausible old-table geometry: {} buckets, heads {:#x}",
                out.old_buckets, out.old_heads
            ));
            return out;
        }
        if out.cursor > out.old_buckets {
            out.errors.push(format!(
                "split cursor {} beyond old table ({} buckets)",
                out.cursor, out.old_buckets
            ));
        }
    }
    out.stripes = vec![StripeStat::default(); STRIPES];

    // Live buckets: the whole new table, plus the not-yet-migrated tail of
    // the old table (buckets >= cursor) during a split.
    let walk = |head_slot: u64, bucket: u64, out: &mut HashtableReport| {
        let sid = (bucket % STRIPES as u64) as usize;
        out.stripes[sid].buckets += 1;
        let mut entry = ru64(dev, head_slot);
        let mut chain = 0u64;
        let mut hops = 0u32;
        while entry != 0 {
            hops += 1;
            if hops > MAX_HOPS {
                out.errors
                    .push(format!("bucket {bucket}: chain cycle suspected"));
                break;
            }
            if !in_heap(dev, entry, ENT_KEY) {
                out.errors
                    .push(format!("bucket {bucket}: entry {entry:#x} outside heap"));
                break;
            }
            let klen = ru32(dev, entry + ENT_KLEN) as u64;
            let vlen = ru32(dev, entry + ENT_VLEN) as u64;
            if !in_heap(dev, entry, ENT_KEY + klen + vlen) {
                out.errors.push(format!(
                    "bucket {bucket}: entry {entry:#x} body overruns heap"
                ));
                break;
            }
            let _ = ru64(dev, entry + ENT_HASH);
            let mut key = vec![0u8; klen as usize];
            dev.read_untimed((entry + ENT_KEY) as usize, &mut key);
            out.entries.push(EntryReport {
                key,
                value_off: entry + ENT_KEY + klen,
                value_len: vlen,
            });
            chain += 1;
            entry = ru64(dev, entry + ENT_NEXT);
        }
        out.reachable += chain;
        out.stripes[sid].entries += chain;
        out.stripes[sid].longest_chain = out.stripes[sid].longest_chain.max(chain);
        if out.chain_histogram.len() <= chain as usize {
            out.chain_histogram.resize(chain as usize + 1, 0);
        }
        out.chain_histogram[chain as usize] += 1;
    };
    for b in 0..out.buckets {
        walk(out.heads + b * 8, b, &mut out);
    }
    if out.mid_split {
        for b in out.cursor.min(out.old_buckets)..out.old_buckets {
            walk(out.old_heads + b * 8, b, &mut out);
        }
    }
    out
}

/// One committed record in a [`crate::PersistentLog`] ring.
#[derive(Debug, Clone)]
pub struct LogRecord {
    pub ring_offset: u64,
    pub body: Vec<u8>,
    pub crc_ok: bool,
}

/// Offline view of a persistent log (the write-behind WAL).
#[derive(Debug, Clone, Default)]
pub struct LogReport {
    pub header_off: u64,
    pub ring_off: u64,
    pub capacity: u64,
    pub head: u64,
    pub tail: u64,
    pub records: Vec<LogRecord>,
    pub errors: Vec<String>,
}

impl LogReport {
    pub fn ok(&self) -> bool {
        self.errors.is_empty() && self.records.iter().all(|r| r.crc_ok)
    }
}

/// Walk a log ring head→tail without mounting — the same traversal
/// [`crate::PersistentLog::replay`] performs, but fault-tolerant.
pub fn walk_log(dev: &PmemDevice, header_off: u64, ring_off: u64) -> LogReport {
    let mut out = LogReport {
        header_off,
        ring_off,
        ..Default::default()
    };
    if !in_heap(dev, header_off, log::HDR_LEN) {
        out.errors
            .push(format!("log header {header_off:#x} outside heap"));
        return out;
    }
    out.capacity = ru64(dev, header_off + log::HDR_CAPACITY);
    out.head = ru64(dev, header_off + log::HDR_HEAD);
    out.tail = ru64(dev, header_off + log::HDR_TAIL);
    if out.capacity == 0 || !in_heap(dev, ring_off, out.capacity) {
        out.errors
            .push(format!("implausible log capacity {}", out.capacity));
        return out;
    }
    if out.head > out.capacity || out.tail > out.capacity {
        out.errors.push(format!(
            "log pointers outside ring: head {} tail {} capacity {}",
            out.head, out.tail, out.capacity
        ));
        return out;
    }
    let mut head = out.head;
    let mut hops = 0u32;
    while head != out.tail {
        hops += 1;
        if hops > MAX_HOPS {
            out.errors.push("log walk did not terminate".into());
            break;
        }
        // Mirror record_at: a WRAP marker (or trailing slack too small for
        // a header) sends the cursor back to 0.
        if out.capacity - head < log::REC_HDR {
            head = 0;
            if head == out.tail {
                break;
            }
        }
        let len = ru32(dev, ring_off + head);
        if len == log::WRAP {
            if head == 0 {
                out.errors.push("double wrap marker".into());
                break;
            }
            head = 0;
            continue;
        }
        if len == 0 || head + log::REC_HDR + len as u64 > out.capacity {
            out.errors
                .push(format!("corrupt record length {len} at ring+{head}"));
            break;
        }
        let stored_crc = ru32(dev, ring_off + head + 4);
        let body = dev.read_vec_untimed((ring_off + head + log::REC_HDR) as usize, len as usize);
        let crc_ok = log::crc32(&body) == stored_crc;
        out.records.push(LogRecord {
            ring_offset: head,
            body,
            crc_ok,
        });
        head += log::REC_HDR + len as u64;
    }
    out
}

/// Scan the pool's flight-recorder ring (oldest surviving event first).
pub fn read_flight(dev: &PmemDevice) -> Vec<FlightEvent> {
    flight::scan_ring(dev, flight_start())
}

/// The root object's payload interpreted as the conventional 8-byte
/// hashtable-header pointer (`registry::shared_pool`'s layout). Returns
/// `None` when there is no root or it is not 8 bytes.
pub fn root_hashtable_header(dev: &PmemDevice, sb: &SuperblockReport) -> Option<u64> {
    if sb.root_off == 0 || sb.root_size != 8 {
        return None;
    }
    let header = ru64(dev, sb.root_off);
    if header == 0 {
        None
    } else {
        Some(header)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hashtable::PersistentHashtable;
    use crate::pool::PmemPool;
    use pmem_sim::{Clock, Machine, PersistenceMode};
    use std::sync::Arc;

    fn fixture() -> (Arc<PmemPool>, Clock) {
        let dev = PmemDevice::new(Machine::chameleon(), 4 << 20, PersistenceMode::Fast);
        let clock = Clock::new();
        (PmemPool::create(&clock, dev, "doctor").unwrap(), clock)
    }

    #[test]
    fn superblock_decodes_without_mounting() {
        let (pool, _clock) = fixture();
        let sb = read_superblock(pool.device());
        assert!(sb.ok(), "{sb:?}");
        assert_eq!(sb.layout_name, "doctor");
        assert_eq!(sb.generation, 1);
    }

    #[test]
    fn garbage_image_is_not_a_pool() {
        let dev = PmemDevice::new(Machine::chameleon(), 1 << 20, PersistenceMode::Fast);
        dev.write_untimed(0, &[0xddu8; 4096]);
        let sb = read_superblock(&dev);
        assert!(!sb.magic_ok);
        assert!(!sb.ok());
    }

    #[test]
    fn heap_walk_matches_mounted_stats() {
        let (pool, clock) = fixture();
        let a = pool.alloc(&clock, 1000).unwrap();
        let _b = pool.alloc(&clock, 2000).unwrap();
        pool.free(&clock, a).unwrap();
        let h = walk_heap(pool.device());
        assert!(h.ok(), "{:?}", h.errors);
        assert_eq!(h.live_allocations, 1);
        assert_eq!(h.allocated_bytes, pool.allocated_bytes());
        assert_eq!(h.free_bytes, pool.free_bytes());
    }

    #[test]
    fn hashtable_walk_finds_every_entry() {
        let (pool, clock) = fixture();
        let ht = PersistentHashtable::create(&clock, &pool, 8).unwrap();
        for i in 0..40u32 {
            ht.put(&clock, format!("k{i}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        let rep = walk_hashtable(pool.device(), ht.header_offset());
        assert!(rep.ok(), "{:?}", rep.errors);
        assert_eq!(rep.reachable, 40);
        assert_eq!(rep.entries.len(), 40);
        assert_eq!(rep.stripes.len(), STRIPES);
        let histo_buckets: u64 = rep.chain_histogram.iter().sum();
        let walked: u64 = rep.stripes.iter().map(|s| s.buckets).sum();
        assert_eq!(histo_buckets, walked);
        let e = rep.lookup(b"k7").expect("k7 reachable");
        assert_eq!(e.value_len, 4);
        let mut v = [0u8; 4];
        pool.device().read_untimed(e.value_off as usize, &mut v);
        assert_eq!(u32::from_le_bytes(v), 7);
    }

    #[test]
    fn lane_summary_sees_a_stuck_lane() {
        let (pool, clock) = fixture();
        assert!(read_lanes(pool.device()).all_idle());
        // Freeze a transaction mid-flight via an injected crash.
        let p = pool.alloc(&clock, 64).unwrap();
        pool.fail_points.arm("tx::commit-before", 1);
        let _ = pool.tx(&clock, |tx| tx.set(p, &[7u8; 64]));
        let lanes = read_lanes(pool.device());
        assert_eq!(lanes.active, 1);
        assert_eq!(lanes.busy.len(), 1);
        assert_eq!(lanes.busy[0].state_name(), "ACTIVE");
        pool.fail_points.clear();
    }

    #[test]
    fn log_walk_reads_committed_records() {
        let (pool, clock) = fixture();
        let log = crate::PersistentLog::create(&clock, &pool, 4096).unwrap();
        log.append(&clock, b"alpha").unwrap();
        log.append(&clock, b"beta").unwrap();
        let (h, r) = log.location();
        let rep = walk_log(pool.device(), h, r);
        assert!(rep.ok(), "{:?}", rep.errors);
        assert_eq!(rep.records.len(), 2);
        assert_eq!(rep.records[0].body, b"alpha");
        assert_eq!(rep.records[1].body, b"beta");
        assert!(rep.records.iter().all(|rec| rec.crc_ok));
    }

    #[test]
    fn flight_scan_shows_recorded_events() {
        let (pool, clock) = fixture();
        pool.flight()
            .record(&clock, pmem_sim::EventCode::Mount, 0, 1, 0);
        let events = read_flight(pool.device());
        assert!(!events.is_empty());
        assert_eq!(
            events.last().unwrap().event(),
            Some(pmem_sim::EventCode::Mount)
        );
    }
}

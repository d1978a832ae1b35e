//! Constant-memory lazy trace generation: one flow-merge core, two
//! traffic models.
//!
//! [`crate::Scenario::generate`] materializes (and sorts) the whole
//! trace before anything can consume it; at the 10M–100M-record scales
//! a real telescope month produces, that is gigabytes of resident
//! records. A [`FlowMerge`] instead *yields* telescope records as an
//! iterator in globally non-decreasing event time, so arbitrarily long
//! traces flow through the live engine in constant memory.
//!
//! ## The core
//!
//! A [`Pool`] is a fixed set of members — flood victims, scanners —
//! each generating one internally time-sorted [`Flow`] with its share
//! of the record budget. The merge across flows is a binary heap holding
//! exactly one entry per flow with records left. Memory is therefore
//! `O(members)` — independent of the record budget — which is the bound
//! DESIGN.md §12 documents and [`FlowMerge::merge_width`] witnesses. A
//! traffic model supplies only its flow: where it starts, when its next
//! record is due, and how it emits one.
//!
//! A member's source address is its 16-bit index inside its model's
//! `/16`, so a pool holds at most [`MAX_POOL_MEMBERS`] members and no two
//! share a source.
//!
//! ## Sharding
//!
//! A pool can be restricted to the members of one feed
//! (`member % shards == shard_index`): each sub-stream stays internally
//! time-sorted, the shards partition the full stream's records exactly,
//! and the per-member budgets are computed from the *global* pool so the
//! union over all shards equals the unsharded stream record-for-record.
//! That makes the sub-streams drop-in feeds for the multi-source
//! `SourceSet` at any fan-in.
//!
//! ## Models
//!
//! [`RecordStream`] is the common-protocol flood backscatter model: a
//! fixed pool of flood victims, each emitting SYN-ACK bursts (~2 pps for
//! ~4 minutes — comfortably over the Moore thresholds) separated by gaps
//! longer than the 5-minute session timeout, so sessions open, close
//! mid-stream, and alert on the common channel exactly like the
//! materialized scenario's floods. [`crate::EvolvingScanStream`] is the
//! longitudinal scanner model of [`crate::scenarios`].

use quicsand_net::capture::CaptureError;
use quicsand_net::{Duration, PacketRecord, StreamSource, TcpFlags, Timestamp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// Records per burst; at [`INTRA_BURST_US`] spacing a burst spans
/// ~4 minutes at ~2 pps, well over the Moore floor (25 packets, 60 s,
/// 0.5 pps).
const BURST_LEN: u64 = 512;
/// Base spacing between a burst's records, microseconds (~2 pps).
const INTRA_BURST_US: u64 = 500_000;
/// Gap between a victim's bursts, microseconds — longer than the
/// 5-minute session timeout so every burst closes as its own session.
const INTER_BURST_US: u64 = 400_000_000;
/// Victim start offsets, microseconds: staggered so bursts interleave
/// across victims instead of marching in lockstep.
const STAGGER_US: u64 = 977_003;

/// The most members a [`Pool`] holds: one source address per 16-bit
/// member index, so one more member would reuse member 0's address.
pub const MAX_POOL_MEMBERS: u32 = 1 << 16;

/// A pool of flows, and which share of it one stream yields. Built by
/// each model's `new`, which holds `members` to `1..=MAX_POOL_MEMBERS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pool<M> {
    /// Base seed; the same seed always yields the same stream.
    pub(crate) seed: u64,
    /// Total records across the whole pool (all shards together). A
    /// sharded stream yields its members' share.
    pub(crate) records: u64,
    /// Flows in the pool, `1..=`[`MAX_POOL_MEMBERS`] — the constant that
    /// bounds memory.
    pub(crate) members: u32,
    /// How many feeds the pool is partitioned into.
    pub(crate) shards: u32,
    /// Which partition this stream yields (`member % shards`).
    pub(crate) shard_index: u32,
    /// The traffic model's own parameters.
    pub(crate) model: M,
}

impl<M> Pool<M> {
    /// An unsharded pool of `records` records over `members` flows,
    /// clamped to `1..=MAX_POOL_MEMBERS`.
    pub(crate) fn with_model(seed: u64, records: u64, members: u32, model: M) -> Self {
        Pool {
            seed,
            records,
            members: members.clamp(1, MAX_POOL_MEMBERS),
            shards: 1,
            shard_index: 0,
            model,
        }
    }

    /// This configuration restricted to one feed of an `n`-way
    /// partition.
    pub fn shard(self, n: u32, index: u32) -> Self {
        assert!(index < n.max(1), "shard index out of range");
        Pool {
            shards: n.max(1),
            shard_index: index,
            ..self
        }
    }

    /// Records this (possibly sharded) stream will yield: the sum of
    /// its members' budgets.
    pub fn shard_records(&self) -> u64 {
        self.shard_members().map(|m| self.budget(m)).sum()
    }

    fn shard_members(&self) -> impl Iterator<Item = u32> {
        let (shards, index) = (self.shards, self.shard_index);
        (0..self.members).filter(move |m| m % shards == index)
    }

    /// The global pool's budget for member `m`: an even split of
    /// `records`, with the remainder going to the lowest member ids.
    fn budget(&self, m: u32) -> u64 {
        let base = self.records / u64::from(self.members);
        let extra = u64::from(u64::from(m) < self.records % u64::from(self.members));
        base + extra
    }

    /// Member `m`'s [`splitmix`] state, distinct per member and seed.
    pub(crate) fn member_rng(&self, m: u32) -> u64 {
        self.seed ^ u64::from(m).wrapping_mul(0xA24B_AED4_963E_E407)
    }
}

/// Member `m`'s source address inside the `a.b.0.0/16` block; distinct
/// for every member of a pool (`m < MAX_POOL_MEMBERS`).
pub(crate) fn member_source([a, b]: [u8; 2], m: u32) -> Ipv4Addr {
    Ipv4Addr::new(a, b, (m >> 8) as u8, m as u8)
}

/// `splitmix64` step: a tiny, seedable, allocation-free rng — one
/// multiply-xor chain per record keeps generation off the profile of
/// the pipeline it feeds.
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One pool member's fixed-size generation state: all a traffic model
/// adds to the merge. [`FlowMerge`] keeps each flow's budget and asks
/// it for records only while budget is left.
pub trait Flow {
    /// The model's own parameters, carried by its [`Pool`].
    type Model;

    /// Member `m`'s flow, positioned at its first record.
    fn new(pool: &Pool<Self::Model>, m: u32) -> Self;

    /// When the next record is due; never earlier than the last one.
    fn next_ts(&self) -> Timestamp;

    /// Emits the record at [`next_ts`](Self::next_ts) and advances.
    fn emit(&mut self) -> PacketRecord;
}

/// A lazily generated, time-sorted merge of one pool's flows; see the
/// module docs for the memory bound and the sharding contract.
#[derive(Debug)]
pub struct FlowMerge<F> {
    /// This shard's flows, each with its remaining budget.
    flows: Vec<(F, u64)>,
    /// One `(next timestamp, flow slot)` entry per flow with budget
    /// left — the whole cross-flow merge state.
    heap: BinaryHeap<Reverse<(Timestamp, u32)>>,
    remaining: u64,
}

impl<F: Flow> FlowMerge<F> {
    /// Builds the stream for `pool` (honoring its shard selection).
    pub fn new(pool: &Pool<F::Model>) -> Self {
        let flows: Vec<(F, u64)> = pool
            .shard_members()
            .map(|m| (F::new(pool, m), pool.budget(m)))
            .collect();
        let heap = flows
            .iter()
            .enumerate()
            .filter(|(_, (_, left))| *left > 0)
            .map(|(slot, (flow, _))| Reverse((flow.next_ts(), slot as u32)))
            .collect();
        let remaining = flows.iter().map(|(_, left)| left).sum();
        FlowMerge {
            flows,
            heap,
            remaining,
        }
    }

    /// Records not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Live merge entries — never exceeds the pool's members, whatever
    /// the record budget (the memory-bound witness).
    pub fn merge_width(&self) -> usize {
        self.heap.len()
    }
}

impl<F: Flow> Iterator for FlowMerge<F> {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        let Reverse((_, slot)) = self.heap.pop()?;
        let (flow, left) = &mut self.flows[slot as usize];
        let record = flow.emit();
        *left -= 1;
        if *left > 0 {
            self.heap.push(Reverse((flow.next_ts(), slot)));
        }
        self.remaining -= 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

impl<F: Flow> StreamSource for FlowMerge<F> {
    fn next_record(&mut self) -> Option<Result<PacketRecord, CaptureError>> {
        self.next().map(Ok)
    }
}

/// Parameters of a [`RecordStream`]: a pool of flood victims, which
/// need nothing beyond the pool.
pub type StreamConfig = Pool<()>;

impl StreamConfig {
    /// An unsharded stream of `records` records over `victims` victims
    /// (`1..=MAX_POOL_MEMBERS`).
    pub fn new(seed: u64, records: u64, victims: u32) -> Self {
        Pool::with_model(seed, records, victims, ())
    }
}

/// The SYN-ACK flood backscatter stream; see the module docs.
pub type RecordStream = FlowMerge<VictimFlow>;

/// One flood victim's [`Flow`]: SYN-ACK bursts from `198.18.0.0/16`.
#[derive(Debug, Clone, Copy)]
pub struct VictimFlow {
    src: Ipv4Addr,
    next_ts: Timestamp,
    /// Position within the current burst.
    burst_pos: u64,
    rng: u64,
}

impl Flow for VictimFlow {
    type Model = ();

    fn new(pool: &StreamConfig, v: u32) -> Self {
        VictimFlow {
            src: member_source([198, 18], v),
            next_ts: Timestamp::from_micros(u64::from(v) * STAGGER_US),
            burst_pos: 0,
            rng: pool.member_rng(v),
        }
    }

    fn next_ts(&self) -> Timestamp {
        self.next_ts
    }

    fn emit(&mut self) -> PacketRecord {
        let word = splitmix(&mut self.rng);
        let record = PacketRecord::tcp(
            self.next_ts,
            self.src,
            Ipv4Addr::new(10, (word >> 16) as u8, (word >> 8) as u8, word as u8),
            443,
            1_024 + (word % 60_000) as u16,
            TcpFlags::SYN_ACK,
        );
        self.burst_pos += 1;
        let step = if self.burst_pos >= BURST_LEN {
            self.burst_pos = 0;
            INTER_BURST_US
        } else {
            // Jitter keeps per-record timestamps unique per victim
            // while staying strictly increasing.
            INTRA_BURST_US + word % 1_000
        };
        self.next_ts += Duration::from_micros(step);
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvolvingScanConfig, EvolvingScanStream};
    use std::collections::HashSet;

    #[test]
    fn bursts_clear_the_moore_thresholds_and_close() {
        // One victim: every burst must be alert-worthy (>= 25 packets,
        // >= 60 s, >= 0.5 pps at peak) and separated by more than the
        // 5-minute session timeout so it closes as its own session.
        let config = StreamConfig::new(5, BURST_LEN * 2, 1);
        let records: Vec<_> = RecordStream::new(&config).collect();
        let burst: Vec<_> = records[..BURST_LEN as usize].to_vec();
        let span = burst.last().unwrap().ts.saturating_since(burst[0].ts);
        assert!(burst.len() >= 25 && span.as_micros() >= 60_000_000);
        let gap = records[BURST_LEN as usize]
            .ts
            .saturating_since(burst.last().unwrap().ts);
        assert!(gap.as_micros() > 300_000_000, "gap outlives the timeout");
    }

    #[test]
    fn every_pool_member_has_its_own_source() {
        // One member past the address space: the pool holds what it can
        // address, and no two members share a source.
        let asked = MAX_POOL_MEMBERS + 1;
        let victims = StreamConfig::new(3, u64::from(asked), asked);
        assert_eq!(victims.members, MAX_POOL_MEMBERS);
        let records: Vec<_> = RecordStream::new(&victims).collect();
        let sources: HashSet<_> = records.iter().map(|r| r.src).collect();
        assert_eq!(sources.len(), victims.members as usize);
        let firsts: HashSet<_> = records.iter().take(100).map(|r| r.src).collect();
        assert!(firsts.len() > 1, "victims interleave from the start");

        let telescope = quicsand_net::ip::telescope_prefix();
        let scanners = EvolvingScanConfig::new(3, u64::from(asked), asked, telescope, 86_400);
        assert_eq!(scanners.members, MAX_POOL_MEMBERS);
        let sources: HashSet<_> = EvolvingScanStream::new(&scanners).map(|r| r.src).collect();
        assert_eq!(sources.len(), scanners.members as usize);
    }
}

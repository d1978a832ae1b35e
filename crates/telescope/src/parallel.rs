//! The one sharded-run path: split a record slice by `hash(src) % N`,
//! run each shard on its own state, put the products back in capture
//! order.
//!
//! Everything the telescope infers is a per-source aggregate — the
//! ingest guard, research-scanner detection, sessionization, threshold
//! detection, per-victim correlation — so partitioning records by a
//! hash of `src` lets N workers run the full per-shard pipeline
//! independently and still produce byte-identical output. That decision
//! lives here once, as three pieces every sharded caller (the ingest
//! functions below, `core::Analysis`, `live::LiveEngine`) composes:
//! [`scatter`] fans a slice out over per-shard state, [`admit_each`] is
//! the per-shard admit loop, [`gather`] restores capture order by record
//! index. Counters are commutative sums, merged by the caller.
//!
//! The shard function is FNV-1a over the source octets — a fixed,
//! platform-independent hash (unlike [`std::collections::hash_map::DefaultHasher`],
//! whose output is unspecified across releases), so a given capture
//! shards identically everywhere.

use crate::pipeline::{Admitted, GuardConfig, IngestStats, QuicObservation, TelescopePipeline};
use quicsand_dissect::Extraction;
use quicsand_events::{EventMeta, NoopSubscriber, Subscriber};
use quicsand_net::PacketRecord;
use std::net::Ipv4Addr;

/// Shard index for a source address: FNV-1a over the four octets,
/// reduced mod `shards`. `shards == 0` is treated as 1.
pub fn shard_of(src: Ipv4Addr, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in src.octets() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Partitions record indices into `shards` buckets by source shard.
/// Within each bucket the indices remain in capture order.
pub fn partition_by_source(records: &[PacketRecord], shards: usize) -> Vec<Vec<usize>> {
    let shards = shards.max(1);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); shards];
    // Pre-size: uniform hash → roughly equal buckets.
    let hint = records.len() / shards + 1;
    for bucket in &mut buckets {
        bucket.reserve(hint);
    }
    for (index, record) in records.iter().enumerate() {
        buckets[shard_of(record.src, shards)].push(index);
    }
    buckets
}

/// One shard's records: the part of a slice whose sources hash to the
/// shard, in capture order, each known by its index in the whole slice.
#[derive(Debug, Clone, Copy)]
pub struct ShardRecords<'a> {
    records: &'a [PacketRecord],
    /// `None`: every record (the one-shard run partitions nothing).
    indices: Option<&'a [usize]>,
}

impl<'a> ShardRecords<'a> {
    /// The whole slice as one shard.
    pub fn whole(records: &'a [PacketRecord]) -> Self {
        ShardRecords {
            records,
            indices: None,
        }
    }

    /// How many records the shard holds.
    pub fn len(&self) -> usize {
        self.indices.map_or(self.records.len(), <[usize]>::len)
    }

    /// Whether the shard holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Runs `work` once per element of `shards`, giving it that shard's
/// state and the records whose source hashes to it, and returns the
/// results in shard order.
///
/// One shard runs inline on the caller's thread over the whole slice —
/// no partition, no index vector, no spawn; more are partitioned by
/// [`partition_by_source`] and run on scoped worker threads. Because a
/// source's records all land in one shard in capture order, per-source
/// state sees exactly the record sequence an unsharded run sees.
pub fn scatter<S: Send, R: Send>(
    records: &[PacketRecord],
    shards: &mut [S],
    work: impl Fn(&mut S, ShardRecords<'_>) -> R + Sync,
) -> Vec<R> {
    if let [only] = shards {
        return vec![work(only, ShardRecords::whole(records))];
    }
    let buckets = partition_by_source(records, shards.len());
    let work = &work;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .zip(&buckets)
            .map(|(shard, indices)| {
                let indices = Some(indices.as_slice());
                scope.spawn(move |_| work(shard, ShardRecords { records, indices }))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
    .expect("shard scope panicked")
}

/// The admit loop: streams a shard's records through its `pipeline` and
/// hands every [`Admitted`] product to `sink` with the record's capture
/// index. Events are tagged `EventMeta::record(base + index)` — `base`
/// is the stream position of the slice's first record — and the sink
/// gets the same tag and subscriber, for callers that emit further
/// record-tied events of their own. A caller whose products outlive the
/// slice (the batch run's QUIC observations) tags them `base + index`
/// too, so [`gather`] orders them across calls as well as across shards.
/// A sink, not a returned vector: a batch run keeps only what it admits,
/// so no per-record buffer exists at any shard count.
///
/// Guard state (per-source watermarks, duplicate hashes) lives inside
/// the shard's pipeline; because shards partition records *by source*,
/// the guard sees exactly the same per-source record sequence as a
/// sequential run, so quarantine decisions are shard-count-invariant.
///
/// `D` is what an admitted QUIC payload's dissection extracts, chosen by
/// the sink's parameter type: the batch run keeps whole
/// [`DissectedPacket`](quicsand_dissect::DissectedPacket)s (Initials
/// opened in responses only), a caller
/// that reads only the direction takes
/// [`MessageKinds`](quicsand_dissect::MessageKinds) and skips the Client
/// Hello trial decryption. Counters and events do not depend on `D`.
/// A baseline product borrows its record from the slice; only a sink
/// that keeps it clones it.
pub fn admit_each<'r, D: Extraction, S: Subscriber>(
    pipeline: &mut TelescopePipeline,
    part: ShardRecords<'r>,
    base: u64,
    subscriber: &mut S,
    sink: impl FnMut(usize, Admitted<'r, D>, &EventMeta, &mut S),
) {
    // Whole slice or index list: chosen once per shard, not per record,
    // and each arm is its own loop over a concrete iterator.
    let records = part.records;
    match part.indices {
        None => admit_indices(pipeline, records, 0..records.len(), base, subscriber, sink),
        Some(indices) => {
            let indices = indices.iter().copied();
            admit_indices(pipeline, records, indices, base, subscriber, sink)
        }
    }
}

fn admit_indices<'r, D: Extraction, S: Subscriber>(
    pipeline: &mut TelescopePipeline,
    records: &'r [PacketRecord],
    indices: impl Iterator<Item = usize>,
    base: u64,
    subscriber: &mut S,
    mut sink: impl FnMut(usize, Admitted<'r, D>, &EventMeta, &mut S),
) {
    for index in indices {
        let meta = EventMeta::record(base + index as u64);
        let product = pipeline.admit_with(&records[index], &meta, subscriber);
        sink(index, product, &meta, subscriber);
    }
}

/// Restores capture order over the concatenation (in any order) of the
/// shards' `(record index, item)` lists — slice indices within one
/// call, stream positions across calls — regardless of thread
/// scheduling: sorts by index and strips the tags.
///
/// The sort must be *stable*. A record may yield several items (the live
/// engine emits more than one event per record); one record lives in one
/// shard, so equal indices sit next to each other in that shard's
/// emission order, and only a stable sort keeps it.
pub fn gather<K: Ord + Copy, T>(mut tagged: Vec<(K, T)>) -> Vec<T> {
    tagged.sort_by_key(|(index, _)| *index);
    tagged.into_iter().map(|(_, item)| item).collect()
}

/// One shard's ingest products, each tagged with its original capture
/// index.
#[derive(Debug, Default)]
pub struct ShardIngest {
    /// Validated QUIC observations (shard-local capture order).
    pub quic: Vec<(usize, QuicObservation)>,
    /// TCP/ICMP baseline records (shard-local capture order).
    pub baseline: Vec<(usize, PacketRecord)>,
    /// This shard's counters.
    pub stats: IngestStats,
}

fn ingest_shard(part: ShardRecords<'_>, guard: GuardConfig) -> ShardIngest {
    let mut pipeline = TelescopePipeline::with_guard(guard);
    let mut shard = ShardIngest::default();
    admit_each(
        &mut pipeline,
        part,
        0,
        &mut NoopSubscriber,
        |index, product, _, _| match product {
            Admitted::Quic(obs) => shard.quic.push((index, obs)),
            Admitted::Baseline(record) => shard.baseline.push((index, record.clone())),
            Admitted::Dropped => {}
        },
    );
    shard.stats = pipeline.finish().2;
    shard
}

/// Runs the sequential ingest over one shard's record indices, tagging
/// every product with its original capture index.
pub fn ingest_shard_with(
    records: &[PacketRecord],
    indices: &[usize],
    guard: GuardConfig,
) -> ShardIngest {
    let indices = Some(indices);
    ingest_shard(ShardRecords { records, indices }, guard)
}

/// Merges per-shard ingest outputs back into exact capture order.
///
/// Equivalent to `TelescopePipeline::finish()` after a sequential
/// `ingest_all` over the same records, whatever the shard count.
pub fn merge_shards(
    shards: Vec<ShardIngest>,
) -> (Vec<QuicObservation>, Vec<PacketRecord>, IngestStats) {
    let mut stats = IngestStats::default();
    let mut quic = Vec::new();
    let mut baseline = Vec::new();
    for shard in shards {
        stats.merge(&shard.stats);
        quic.extend(shard.quic);
        baseline.extend(shard.baseline);
    }
    (gather(quic), gather(baseline), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use quicsand_net::{IcmpKind, TcpFlags, Timestamp};
    use quicsand_traffic::research::research_probe_payload;

    fn mixed_capture(n: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                let src = Ipv4Addr::from(0x0a00_0000 + (i % 251) as u32 * 7);
                let dst = Ipv4Addr::new(192, 0, 2, (i % 200) as u8);
                let ts = Timestamp::from_secs(i);
                match i % 5 {
                    0 => PacketRecord::udp(ts, src, dst, 40_000, 443, research_probe_payload(i)),
                    1 => PacketRecord::tcp(ts, src, dst, 443, 5_000, TcpFlags::SYN_ACK),
                    2 => PacketRecord::icmp(ts, src, dst, IcmpKind::EchoReply),
                    3 => PacketRecord::udp(
                        ts,
                        src,
                        dst,
                        40_000,
                        443,
                        Bytes::from_static(&[0x12, 0x34, 0x00]),
                    ),
                    _ => PacketRecord::udp(ts, src, dst, 53, 53, Bytes::from_static(b"dns")),
                }
            })
            .collect()
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let src = Ipv4Addr::new(10, 1, 2, 3);
        for shards in 1..16 {
            let s = shard_of(src, shards);
            assert!(s < shards);
            assert_eq!(s, shard_of(src, shards), "deterministic");
        }
        assert_eq!(shard_of(src, 0), 0);
        assert_eq!(shard_of(src, 1), 0);
    }

    #[test]
    fn shard_of_spreads_sources() {
        // 256 distinct sources over 8 shards: no shard should be empty
        // or hold more than half of everything.
        let mut counts = [0usize; 8];
        for last in 0..=255u8 {
            counts[shard_of(Ipv4Addr::new(198, 51, 100, last), 8)] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            assert!(*count > 0, "shard {shard} empty");
            assert!(*count < 128, "shard {shard} holds {count}/256");
        }
    }

    #[test]
    fn partition_covers_every_record_once() {
        let records = mixed_capture(500);
        let buckets = partition_by_source(&records, 4);
        let mut seen: Vec<usize> = buckets.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..records.len()).collect::<Vec<_>>());
        // Capture order within each bucket.
        for bucket in &buckets {
            assert!(bucket.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn scatter_admit_gather_equals_the_sequential_pipeline() {
        // Duplicates and a backwards timestamp, so the quarantine
        // counters are part of the comparison.
        let mut records = mixed_capture(600);
        for i in (0..records.len()).step_by(7).rev() {
            records.insert(i, records[i].clone());
        }
        records[300].ts = Timestamp::from_secs(0);
        let mut sequential = TelescopePipeline::new();
        sequential.ingest_all(&records);
        let (seq_quic, seq_baseline, seq_stats) = sequential.finish();
        assert!(seq_stats.quarantine.duplicate > 0);
        assert!(seq_stats.quarantine.total() > seq_stats.quarantine.duplicate);

        for shards in [1usize, 2, 3, 8] {
            let mut pipelines: Vec<TelescopePipeline> =
                (0..shards).map(|_| TelescopePipeline::new()).collect();
            let results = scatter(&records, &mut pipelines, |pipeline, part| {
                let mut quic = Vec::new();
                let mut baseline = Vec::new();
                admit_each(
                    pipeline,
                    part,
                    0,
                    &mut NoopSubscriber,
                    |index, product, _, _| match product {
                        Admitted::Quic(obs) => quic.push((index, obs)),
                        Admitted::Baseline(record) => baseline.push((index, record.clone())),
                        Admitted::Dropped => {}
                    },
                );
                (quic, baseline)
            });
            assert_eq!(results.len(), shards);
            let (quic, baseline): (Vec<_>, Vec<_>) = results.into_iter().unzip();
            assert_eq!(gather(quic.concat()), seq_quic, "{shards} shards");
            assert_eq!(gather(baseline.concat()), seq_baseline, "{shards} shards");
            let mut stats = IngestStats::default();
            for pipeline in &pipelines {
                stats.merge(pipeline.stats());
            }
            assert_eq!(stats, seq_stats, "{shards} shards");
        }
    }

    #[test]
    fn admit_each_tags_events_with_the_stream_position() {
        let records = mixed_capture(50);
        let mut events: Vec<(EventMeta, quicsand_events::Event)> = Vec::new();
        let mut seen = Vec::new();
        admit_each(
            &mut TelescopePipeline::new(),
            ShardRecords::whole(&records),
            1_000,
            &mut events,
            |index, _: Admitted, meta, _| seen.push((index, meta.record_index)),
        );
        assert_eq!(seen.len(), records.len());
        assert!(seen
            .iter()
            .all(|(index, tag)| *tag == Some(1_000 + *index as u64)));
        // `i % 5 == 3` payloads fail dissection: one rejection each.
        let rejected: Vec<u64> = events
            .iter()
            .map(|(meta, _)| meta.record_index.expect("record-tied"))
            .collect();
        assert_eq!(
            rejected,
            (0..50u64)
                .filter(|i| i % 5 == 3)
                .map(|i| 1_000 + i)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn gather_is_stable_for_items_sharing_a_record_index() {
        // Shard 0 emitted three items for record 4 and one for record 9;
        // shard 1 two for record 2 and two for record 7.
        let shard0 = vec![(4usize, "4a"), (4, "4b"), (4, "4c"), (9, "9a")];
        let shard1 = vec![(2usize, "2a"), (2, "2b"), (7, "7a"), (7, "7b")];
        let want = ["2a", "2b", "4a", "4b", "4c", "7a", "7b", "9a"];
        assert_eq!(gather([shard0.clone(), shard1.clone()].concat()), want);
        assert_eq!(gather([shard1, shard0].concat()), want);
        assert_eq!(gather(Vec::<(usize, u8)>::new()), Vec::<u8>::new());
    }

    #[test]
    fn one_shard_runs_inline_on_the_callers_thread() {
        let records = mixed_capture(100);
        let caller = std::thread::current().id();
        let ran_on = scatter(&records, &mut [()], |(), part| {
            assert_eq!(part.len(), records.len());
            std::thread::current().id()
        });
        assert_eq!(ran_on, [caller]);
        // More shards run on workers and split the slice between them.
        let sizes = scatter(&records, &mut [(); 3], |(), part| {
            assert_ne!(std::thread::current().id(), caller);
            part.len()
        });
        assert_eq!(sizes.iter().sum::<usize>(), records.len());
    }

    #[test]
    fn merge_restores_capture_order() {
        let records = mixed_capture(200);
        let buckets = partition_by_source(&records, 3);
        let shards: Vec<ShardIngest> = buckets
            .iter()
            .map(|indices| ingest_shard_with(&records, indices, GuardConfig::default()))
            .collect();
        let (quic, baseline, stats) = merge_shards(shards);
        assert!(quic.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(baseline.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert_eq!(stats.total, records.len() as u64);
    }
}

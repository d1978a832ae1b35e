//! Sharded parallel ingest: `hash(src) % N` partitioning across scoped
//! worker threads, with a deterministic capture-order merge.
//!
//! The telescope's per-packet work (classification + dissection) and
//! all per-source state (sessionization, research-scanner detection)
//! depend only on the *source* address, so partitioning records by a
//! hash of `src` lets N workers run the full per-shard pipeline
//! independently and still produce byte-identical output after the
//! merge:
//!
//! * every output is tagged with its original record index, so sorting
//!   the concatenated shard outputs by index restores exact capture
//!   order regardless of thread scheduling;
//! * all counters are commutative sums.
//!
//! The shard function is FNV-1a over the source octets — a fixed,
//! platform-independent hash (unlike [`std::collections::hash_map::DefaultHasher`],
//! whose output is unspecified across releases), so a given capture
//! shards identically everywhere.

use crate::pipeline::{GuardConfig, IngestStats, QuicObservation, TelescopePipeline};
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

/// One shard's ingest products. `quic_index[i]` / `baseline_index[i]`
/// is the original capture index of `quic[i]` / `baseline[i]`.
#[derive(Debug, Default)]
pub struct ShardIngest {
    /// Validated QUIC observations (shard-local capture order).
    pub quic: Vec<QuicObservation>,
    /// Original record index of each element of `quic`.
    pub quic_index: Vec<usize>,
    /// TCP/ICMP baseline records (shard-local capture order).
    pub baseline: Vec<PacketRecord>,
    /// Original record index of each element of `baseline`.
    pub baseline_index: Vec<usize>,
    /// This shard's counters.
    pub stats: IngestStats,
}

/// Runs the sequential ingest over one shard's record indices, tagging
/// every product with its original capture index.
///
/// Guard state (per-source watermarks, duplicate hashes) lives inside
/// the shard's pipeline; because shards partition records *by source*,
/// the guard sees exactly the same per-source record sequence as a
/// sequential run, so quarantine decisions are shard-count-invariant.
pub fn ingest_shard_with(
    records: &[PacketRecord],
    indices: &[usize],
    guard: GuardConfig,
) -> ShardIngest {
    let mut pipeline = TelescopePipeline::with_guard(guard);
    let mut quic_index = Vec::new();
    let mut baseline_index = Vec::new();
    for &index in indices {
        let before_quic = pipeline.quic_observations().len();
        let before_baseline = pipeline.baseline_records().len();
        pipeline.ingest(&records[index]);
        if pipeline.quic_observations().len() > before_quic {
            quic_index.push(index);
        }
        if pipeline.baseline_records().len() > before_baseline {
            baseline_index.push(index);
        }
    }
    let (quic, baseline, stats) = pipeline.finish();
    debug_assert_eq!(quic.len(), quic_index.len());
    debug_assert_eq!(baseline.len(), baseline_index.len());
    ShardIngest {
        quic,
        quic_index,
        baseline,
        baseline_index,
        stats,
    }
}

/// Merges per-shard ingest outputs back into exact capture order.
///
/// Equivalent to `TelescopePipeline::finish()` after a sequential
/// `ingest_all` over the same records, whatever the shard count.
pub fn merge_shards(
    shards: Vec<ShardIngest>,
) -> (Vec<QuicObservation>, Vec<PacketRecord>, IngestStats) {
    let mut stats = IngestStats::default();
    let mut quic: Vec<(usize, QuicObservation)> = Vec::new();
    let mut baseline: Vec<(usize, PacketRecord)> = Vec::new();
    for shard in shards {
        stats.merge(&shard.stats);
        quic.extend(shard.quic_index.into_iter().zip(shard.quic));
        baseline.extend(shard.baseline_index.into_iter().zip(shard.baseline));
    }
    // Indices are unique, so the unstable sort is deterministic.
    quic.sort_unstable_by_key(|(index, _)| *index);
    baseline.sort_unstable_by_key(|(index, _)| *index);
    (
        quic.into_iter().map(|(_, obs)| obs).collect(),
        baseline.into_iter().map(|(_, record)| record).collect(),
        stats,
    )
}

/// Ingests a capture across `threads` scoped worker threads and merges
/// the shards deterministically.
///
/// `threads <= 1` runs the exact sequential [`TelescopePipeline`]
/// path. Output is byte-identical at any thread count.
pub fn ingest_parallel_with(
    records: &[PacketRecord],
    threads: usize,
    guard: GuardConfig,
) -> (Vec<QuicObservation>, Vec<PacketRecord>, IngestStats) {
    if threads <= 1 {
        let mut pipeline = TelescopePipeline::with_guard(guard);
        pipeline.ingest_all(records);
        return pipeline.finish();
    }
    let buckets = partition_by_source(records, threads);
    let shards = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = buckets
            .iter()
            .map(|indices| scope.spawn(move |_| ingest_shard_with(records, indices, guard)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect::<Vec<_>>()
    })
    .expect("ingest scope panicked");
    merge_shards(shards)
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
    fn parallel_ingest_matches_sequential_exactly() {
        let records = mixed_capture(1_000);
        let mut sequential = TelescopePipeline::new();
        sequential.ingest_all(&records);
        let (seq_quic, seq_baseline, seq_stats) = sequential.finish();
        for threads in [1usize, 2, 3, 8] {
            let (quic, baseline, stats) =
                ingest_parallel_with(&records, threads, GuardConfig::default());
            assert_eq!(quic, seq_quic, "quic mismatch at {threads} threads");
            assert_eq!(
                baseline, seq_baseline,
                "baseline mismatch at {threads} threads"
            );
            assert_eq!(stats, seq_stats, "stats mismatch at {threads} threads");
        }
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

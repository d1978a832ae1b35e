//! The buffered sharded ingest, for the suites that compare its products
//! across shard counts: the one sharded-run path (`scatter`, `admit_each`)
//! with every admitted product kept and merged back into capture order
//! (`merge_shards`).

use quicsand_events::NoopSubscriber;
use quicsand_net::PacketRecord;
use quicsand_telescope::parallel::{admit_each, merge_shards, scatter, ShardIngest};
use quicsand_telescope::{Admitted, GuardConfig, IngestStats, QuicObservation, TelescopePipeline};

/// Ingests a capture across `threads` shards and merges them
/// deterministically: byte-identical output at any thread count.
pub fn ingest_parallel_with(
    records: &[PacketRecord],
    threads: usize,
    guard: GuardConfig,
) -> (Vec<QuicObservation>, Vec<PacketRecord>, IngestStats) {
    let mut pipelines: Vec<TelescopePipeline> = (0..threads.max(1))
        .map(|_| TelescopePipeline::with_guard(guard))
        .collect();
    merge_shards(scatter(records, &mut pipelines, |pipeline, part| {
        let mut shard = ShardIngest::default();
        admit_each(
            pipeline,
            part,
            0,
            &mut NoopSubscriber,
            |index, product, _, _| match product {
                Admitted::Quic(obs) => shard.quic.push((index, obs)),
                Admitted::Baseline(record) => shard.baseline.push((index, record.clone())),
                Admitted::Dropped => {}
            },
        );
        shard.stats = pipeline.stats().clone();
        shard
    }))
}

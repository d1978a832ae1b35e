//! The `victim_churn` checkpoint in small, for the suites that read one
//! back: more spoofed sources than the LRU holds, a handful of SYN-ACKs
//! each, so the text is all per-victim state and guard entries.

use quicsand_live::{LiveConfig, LiveEngine, MultiSnapshot, CHECKPOINT_SCHEMA_VERSION};
use quicsand_net::{PacketRecord, TcpFlags, Timestamp};
use quicsand_telescope::GuardConfig;
use std::net::Ipv4Addr;

/// The schema-v4 text of a one-shard engine after `sources` spoofed
/// sources with six SYN-ACKs each, tracking at most `max_victims`.
pub fn churn_checkpoint(sources: u32, max_victims: usize) -> String {
    const PACKETS_PER_SOURCE: u64 = 6;
    let config = LiveConfig {
        max_victims,
        ..LiveConfig::default()
    };
    let mut records = Vec::new();
    for source in 0..sources {
        let src = Ipv4Addr::from(0x0B00_0000 | source.wrapping_mul(0x9E_37_79) & 0x00FF_FFFF);
        for packet in 0..PACKETS_PER_SOURCE {
            records.push(PacketRecord::tcp(
                Timestamp::from_micros(u64::from(source) * 50_000 + packet * 7_000_000),
                src,
                Ipv4Addr::new(10, 0, (source >> 8) as u8, source as u8),
                443,
                50_000,
                TcpFlags::SYN_ACK,
            ));
        }
    }
    records.sort_by_key(|r| (r.ts, r.src));
    let mut engine = LiveEngine::new(config, GuardConfig::default(), 1);
    for chunk in records.chunks(4096) {
        engine.offer_chunk(chunk);
    }
    let snapshot = MultiSnapshot {
        version: CHECKPOINT_SCHEMA_VERSION,
        engine: engine.snapshot(),
        cursors: vec![records.len() as u64],
    };
    serde_json::to_string(&snapshot).expect("snapshot serializes")
}

//! The hand-built trace `tests/golden/checkpoint-v4.json` is taken on,
//! for the suites that write, resume or damage that checkpoint: a
//! capped channel that evicts, a flood over several minute slots with
//! tolerated late packets, and one-packet spoofed sources.

use quicsand_live::LiveConfig;
use quicsand_net::{PacketRecord, TcpFlags, Timestamp};
use quicsand_sessions::SessionConfig;
use quicsand_telescope::GuardConfig;
use std::net::Ipv4Addr;

/// Records pumped per chunk, and chunks pumped before the checkpoint.
pub const CHUNK: usize = 64;
#[allow(dead_code)] // the golden suite's only
pub const CHUNKS_BEFORE_CHECKPOINT: usize = 9;

pub fn victim(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(198, 51, 100, last)
}

pub fn syn_ack(ts_micros: u64, src: Ipv4Addr) -> PacketRecord {
    PacketRecord::tcp(
        Timestamp::from_micros(ts_micros),
        src,
        Ipv4Addr::new(10, 0, 0, 7),
        443,
        50_000,
        TcpFlags::SYN_ACK,
    )
}

/// The fixed trace, in capture order (per-source timestamps regress
/// only within the guard's 2 s reorder tolerance).
pub fn trace() -> Vec<PacketRecord> {
    const SEC: u64 = 1_000_000;
    // Start in minute 8 so the flood's slots, 8..=13, cross from one
    // digit to two.
    const BASE: u64 = 480 * SEC;
    let mut records = Vec::new();
    for tick in 0..720u64 {
        let now = BASE + tick * SEC / 2;
        // Victim 1: a 2 pps flood over the whole six minutes.
        records.push(syn_ack(now, victim(1)));
        // Right after its first packet of minute 2 and of minute 4, a
        // tolerated straggler from the previous minute's last second:
        // absorbed into a slot that is no longer the newest.
        if tick == 240 || tick == 480 {
            records.push(syn_ack(now - 700_000, victim(1)));
        }
        // Victim 2: floods for 100 s, then falls silent and is evicted
        // with its alert open once four fresher victims are tracked.
        if tick < 200 {
            records.push(syn_ack(now + 1, victim(2)));
        }
        // Victim 3: starts one second into the flood's minute 2; its
        // second packet is stamped in minute 1, a slot earlier than any
        // it had.
        if tick == 242 {
            records.push(syn_ack(now + 2, victim(3)));
            records.push(syn_ack(now + 2 - 1_500_000, victim(3)));
        }
        if (243..420).contains(&tick) {
            records.push(syn_ack(now + 2, victim(3)));
        }
        // Spoofed one-packet sources every 10 s churn the remaining
        // slots of the 4-victim cap.
        if tick % 20 == 7 {
            records.push(syn_ack(now + 3, victim(100 + (tick / 20) as u8)));
        }
    }
    // A lone packet 20 minutes on: the sweep expires everything idle.
    records.push(syn_ack(BASE + 1_560 * SEC, victim(250)));
    records
}

#[allow(dead_code)]
pub fn config() -> (LiveConfig, GuardConfig) {
    let guard = GuardConfig::default();
    let config = LiveConfig {
        max_victims: 4,
        session: SessionConfig {
            skew_tolerance: guard.reorder_tolerance,
            ..SessionConfig::default()
        },
        ..LiveConfig::default()
    };
    (config, guard)
}

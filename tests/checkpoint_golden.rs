//! Checkpoint format golden: "old checkpoints still resume".
//!
//! `tests/golden/checkpoint-v2.json` is the schema-v2 checkpoint the
//! detector writes at a fixed record of a fixed trace, and the current
//! code must write it byte for byte. Restructuring the per-victim state
//! (lazy expiry heap, flat minute profile) left it byte-identical. It
//! changed once since, in content and not in shape: an evidence ring now
//! starts filling only once its session is within `evidence_capacity`
//! packets of the base thresholds' packet floor, because no earlier
//! packet can be in a closed alert's evidence. So the two one-packet
//! victims (198.51.100.113 and .114) hold `"evidence":[]` where they held
//! their one packet. No field was added, removed or retyped, and a ring
//! that holds such early packets still restores and has them overwritten
//! before any close could emit them. That is why this is no schema
//! change. `tests/golden/checkpoint-v2-full-rings.json` is the file as
//! written before, and proves it: both files must restore losslessly and
//! replay the remainder to exactly the uncheckpointed run's events.
//!
//! The trace is small and hand-built to put every shape the format can
//! take into the snapshot: a capped channel (`max_victims: 4`) that has
//! already evicted, a flood spanning several minute slots, a tolerated
//! late packet absorbed into the previous minute's existing slot, one
//! that opens a slot *earlier* than any the victim had, and closed
//! alerts (evicted and not) with their profiles and evidence rings.
//!
//! Re-bless only for an intentional change to what is written. A change
//! of shape needs a schema version bump; a change of content, like the
//! one above, keeps the old file as a resume fixture:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test checkpoint_golden
//! ```

use quicsand_live::{parse_checkpoint, LiveConfig, LiveEvent, LiveEventKind, MultiSourceLive};
use quicsand_net::multi::{memory_factory, SourceFactory, SourceSet, SourceSetConfig};
use quicsand_net::{PacketRecord, TcpFlags, Timestamp};
use quicsand_sessions::SessionConfig;
use quicsand_telescope::GuardConfig;
use std::net::Ipv4Addr;
use std::path::PathBuf;

/// Records pumped per chunk, and chunks pumped before the checkpoint.
const CHUNK: usize = 64;
const CHUNKS_BEFORE_CHECKPOINT: usize = 9;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn victim(last: u8) -> Ipv4Addr {
    Ipv4Addr::new(198, 51, 100, last)
}

fn syn_ack(ts_micros: u64, src: Ipv4Addr) -> PacketRecord {
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
fn trace() -> Vec<PacketRecord> {
    const SEC: u64 = 1_000_000;
    // Start in minute 8 so the flood's slots are 8..=13: the map keys
    // serialize in *string* order ("10" before "8"), which the flat
    // profile's shim has to reproduce.
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

fn config() -> (LiveConfig, GuardConfig) {
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

fn feed(records: &[PacketRecord]) -> Vec<Box<dyn SourceFactory>> {
    vec![Box::new(memory_factory(records.to_vec()))]
}

fn fresh(records: &[PacketRecord]) -> MultiSourceLive {
    let (config, guard) = config();
    let set = SourceSet::spawn(feed(records), &SourceSetConfig::default());
    MultiSourceLive::new(config, guard, 1, set)
}

fn drain(live: &mut MultiSourceLive) -> Vec<LiveEvent> {
    let mut events = Vec::new();
    while let Some(chunk) = live.pump(CHUNK) {
        events.extend(chunk);
    }
    events.extend(live.finish());
    events
}

#[test]
fn checkpoint_bytes_and_resume_match_the_golden() {
    let records = trace();

    let mut straight = fresh(&records);
    let straight_events = drain(&mut straight);
    let straight_stats = straight.live_stats();

    let mut live = fresh(&records);
    let mut events = Vec::new();
    for _ in 0..CHUNKS_BEFORE_CHECKPOINT {
        events.extend(live.pump(CHUNK).expect("trace outlasts the checkpoint"));
    }
    let at_checkpoint = live.live_stats();
    let mut rendered = serde_json::to_string(&live.snapshot()).expect("snapshot serializes");
    rendered.push('\n');

    let path = golden_path("checkpoint-v2.json");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &rendered).expect("write checkpoint golden");
    }
    let golden = std::fs::read_to_string(&path).expect(
        "tests/golden/checkpoint-v2.json (UPDATE_GOLDEN=1 cargo test --test checkpoint_golden)",
    );

    // The trace really exercises what the golden is there to pin.
    assert!(at_checkpoint.evictions > 0, "{at_checkpoint:?}");
    assert_eq!(at_checkpoint.peak_tracked, 4, "{at_checkpoint:?}");
    assert!(at_checkpoint.opened >= 2, "{at_checkpoint:?}");
    assert!(
        straight_events
            .iter()
            .any(|e| e.kind == LiveEventKind::Closed && e.evicted),
        "an open alert is evicted"
    );
    assert!(straight_stats.evictions > at_checkpoint.evictions);

    assert!(
        rendered == golden,
        "checkpoint at record {} is not byte-identical to {} ({} vs {} bytes)",
        CHUNK * CHUNKS_BEFORE_CHECKPOINT,
        path.display(),
        rendered.len(),
        golden.len()
    );

    // Resume from each *file*, not from the snapshot in memory.
    for name in ["checkpoint-v2.json", "checkpoint-v2-full-rings.json"] {
        let text = std::fs::read_to_string(golden_path(name)).expect(name);
        let parsed = parse_checkpoint(text.trim_end()).expect(name);
        assert_eq!(parsed.version, 2);
        let mut restored =
            MultiSourceLive::restore(&parsed, feed(&records), &SourceSetConfig::default())
                .expect(name);
        assert_eq!(restored.snapshot(), parsed, "{name}: restore is lossless");
        let mut resumed = events.clone();
        resumed.extend(drain(&mut restored));
        assert_eq!(resumed, straight_events, "{name}: resumed run diverged");
        assert_eq!(restored.live_stats(), straight_stats, "{name}");
        restored
            .verify_metrics()
            .unwrap_or_else(|errors| panic!("{name}: restored run unreconciled: {errors:?}"));
    }
}

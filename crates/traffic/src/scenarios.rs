//! Post-2021 scenario tier: migration abuse, evolving scanners,
//! version drift and Retry amplification.
//!
//! The paper's trace ends in April 2021; the QUIC ecosystem did not.
//! This module layers four workload variants on top of the baseline
//! [`Scenario`] so the detection pipeline can be exercised against the
//! behaviours that emerged afterwards:
//!
//! * [`ScenarioKind::MigrationAbuse`] — request flows that keep a
//!   stable source connection ID while switching source address
//!   mid-session (RFC 9000 §9 connection migration, abused to pivot a
//!   validated path onto a victim address). The sessionizer splits
//!   such a flow per address; the CID-keyed migration linker re-joins
//!   it and the classifier tags the victim with
//!   `VectorKind::MigrationAbuse`.
//! * [`ScenarioKind::EvolvingScanners`] — longitudinal aggressive
//!   scanner profiles: a fixed pool of sources whose cadence
//!   accelerates and whose telescope coverage widens epoch over epoch,
//!   generated lazily by [`EvolvingScanStream`] in `O(scanners)`
//!   memory with exact shard partitioning.
//! * [`ScenarioKind::VersionDrift`] — the version mix moves through
//!   three phases (draft-29/mvfst retirement → v1 dominance → v2
//!   adoption) with Version Negotiation backscatter in the early
//!   phases and a trickle of unregistered-version probes that the
//!   dissector must quarantine as `BadVersion`.
//! * [`ScenarioKind::RetryAmplification`] — flood victims answer
//!   spoofed Initials with address-validation Retry packets (varied
//!   token sizes), feeding `VectorKind::RetryAmplification` in
//!   `classify_multivector_with`.
//!
//! Every kind produces a full [`Scenario`]: the baseline world and
//! flood plan stay intact, the scenario-specific traffic is layered on
//! top, the combined capture is re-sorted and the [`GroundTruth`]
//! component counts keep adding up to the record total.

use crate::config::ScenarioConfig;
use crate::scenario::Scenario;
use crate::streaming::{member_source, splitmix, Flow, FlowMerge, Pool};
use bytes::Bytes;
use quicsand_net::rng::{exponential, poisson, substream};
use quicsand_net::{Duration, Ipv4Prefix, PacketRecord, Timestamp};
use quicsand_wire::packet::{seal_client_initial, Packet};
use quicsand_wire::tls::{cipher_suite, ClientHello};
use quicsand_wire::{ConnectionId, Version, QUIC_PORT};
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// The post-2021 workload variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScenarioKind {
    /// Mid-session source-address changes under a stable client CID.
    MigrationAbuse,
    /// Longitudinal aggressive-scanner profiles with evolving cadence.
    EvolvingScanners,
    /// Phased v1/v2/draft-retirement version transitions.
    VersionDrift,
    /// Victims answering spoofed Initials with Retry packets.
    RetryAmplification,
}

/// Parse error for [`ScenarioKind`] labels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownScenario(pub String);

impl fmt::Display for UnknownScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown scenario {:?} (expected one of: {})",
            self.0,
            ScenarioKind::all()
                .iter()
                .map(|k| k.label())
                .collect::<Vec<_>>()
                .join(", ")
        )
    }
}

impl std::error::Error for UnknownScenario {}

impl ScenarioKind {
    /// Every kind, in stable order.
    pub const fn all() -> [ScenarioKind; 4] {
        [
            ScenarioKind::MigrationAbuse,
            ScenarioKind::EvolvingScanners,
            ScenarioKind::VersionDrift,
            ScenarioKind::RetryAmplification,
        ]
    }

    /// The CLI-facing label.
    pub const fn label(self) -> &'static str {
        match self {
            ScenarioKind::MigrationAbuse => "migration-abuse",
            ScenarioKind::EvolvingScanners => "evolving-scanners",
            ScenarioKind::VersionDrift => "version-drift",
            ScenarioKind::RetryAmplification => "retry-amplification",
        }
    }

    /// Generates this kind's scenario for `config`.
    pub fn generate(self, config: &ScenarioConfig) -> Scenario {
        generate(self, config)
    }
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for ScenarioKind {
    type Err = UnknownScenario;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioKind::all()
            .into_iter()
            .find(|k| k.label() == s)
            .ok_or_else(|| UnknownScenario(s.to_string()))
    }
}

/// Generates the scenario for `kind` on top of the `config` baseline.
pub fn generate(kind: ScenarioKind, config: &ScenarioConfig) -> Scenario {
    match kind {
        ScenarioKind::MigrationAbuse => migration_abuse(config),
        ScenarioKind::EvolvingScanners => evolving_scanners(config),
        ScenarioKind::VersionDrift => version_drift(config),
        ScenarioKind::RetryAmplification => retry_amplification(config),
    }
}

/// A minimal, valid client Initial with a caller-chosen version and
/// SCID (the SCID is what the migration linker keys on, so migrating
/// flows must pin it while everything else stays randomized).
fn probe_with(rng: &mut ChaCha12Rng, version: Version, scid: ConnectionId) -> Bytes {
    let dcid = ConnectionId::from_u64(rng.gen());
    let hello = ClientHello {
        random: rng.gen(),
        cipher_suites: vec![cipher_suite::AES_128_GCM_SHA256],
        server_name: None,
        alpn: vec!["h3".to_string()],
        key_share: Bytes::from(rng.gen::<[u8; 32]>().to_vec()),
    };
    seal_client_initial(version, dcid, scid, Bytes::new(), 0, &hello)
}

// ---------------------------------------------------------------------
// Migration abuse
// ---------------------------------------------------------------------

/// Packets on each side of the address change — enough to sessionize
/// cleanly on both addresses.
const MIGRATION_HALF_PACKETS: u32 = 14;
/// Minimum spacing between same-victim migration flows: flow span plus
/// the 5-minute session timeout, so consecutive flows never merge.
const MIGRATION_SLOT_SECS: u64 = 900;

/// How many migrating flows a config carries.
fn migration_flow_count(config: &ScenarioConfig) -> usize {
    let max_flows = (config.duration_secs() / MIGRATION_SLOT_SECS).max(1);
    ((config.request_sessions / 10).max(6)).min(max_flows) as usize
}

/// Migrating-scanner source block: dedicated (CGNAT space) so baseline
/// eyeball scanners can never share an address — and hence a session —
/// with a migrating flow.
fn migration_source(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(100, 66, (i >> 8) as u8, i as u8)
}

fn migration_abuse(config: &ScenarioConfig) -> Scenario {
    let mut scenario = Scenario::generate(config);
    let mut rng = substream(config.seed, "migration-abuse");
    let telescope = scenario.world.telescope;
    let victims = scenario.truth.plan.victims.clone();
    let flows = migration_flow_count(config);
    let slot = config.duration_secs() / flows as u64;

    let mut extra = Vec::new();
    for i in 0..flows {
        let scanner = migration_source(i);
        let victim = victims[i % victims.len()];
        // The stable SCID is the flow identity the linker recovers.
        let scid = ConnectionId::from_u64(rng.gen());
        let payload = probe_with(&mut rng, Version::V1, scid);
        let src_port = rng.gen_range(1_024..65_000);
        let mut ts = Timestamp::from_secs(i as u64 * slot)
            + Duration::from_micros(rng.gen_range(0..1_000_000));
        // First half: the validated path from the scanner's address.
        for _ in 0..MIGRATION_HALF_PACKETS {
            extra.push(PacketRecord::udp(
                ts,
                scanner,
                telescope.sample(&mut rng),
                src_port,
                QUIC_PORT,
                payload.clone(),
            ));
            // 4–8 s spacing: bounded well under the session timeout.
            ts += Duration::from_millis(4_000 + rng.gen_range(0..4_000u64));
        }
        // The migration: the flow reappears from the victim's address
        // within the session timeout, same CID, same port.
        ts += Duration::from_secs(rng.gen_range(20..150));
        for _ in 0..MIGRATION_HALF_PACKETS {
            extra.push(PacketRecord::udp(
                ts,
                victim,
                telescope.sample(&mut rng),
                src_port,
                QUIC_PORT,
                payload.clone(),
            ));
            ts += Duration::from_millis(4_000 + rng.gen_range(0..4_000u64));
        }
    }

    scenario.truth.request_packets += extra.len() as u64;
    scenario.records.extend(extra);
    scenario.records.sort_by_key(|r| r.ts);
    scenario
}

// ---------------------------------------------------------------------
// Retry amplification
// ---------------------------------------------------------------------

/// Address-validation token sizes in the wild vary with the server's
/// token construction; the amplification factor varies with them.
const RETRY_TOKEN_LENGTHS: [usize; 5] = [16, 32, 64, 96, 128];

fn retry_amplification(config: &ScenarioConfig) -> Scenario {
    let mut scenario = Scenario::generate(config);
    let mut rng = substream(config.seed, "retry-amplification");
    let telescope = scenario.world.telescope;

    let mut extra = Vec::new();
    for (i, attack) in scenario.truth.plan.quic.iter().enumerate() {
        // Every other flood hits a Retry-validating victim.
        if i % 2 != 0 {
            continue;
        }
        let version = Version::from_wire(attack.version_wire);
        let rate = attack.visible_probe_rate.max(0.8);
        for sec in 0..attack.duration_secs {
            let retries = poisson(&mut rng, rate);
            for _ in 0..retries {
                let ts = Timestamp::from_secs(attack.start_secs + sec)
                    + Duration::from_micros(rng.gen_range(0..1_000_000));
                let token_len = RETRY_TOKEN_LENGTHS[rng.gen_range(0..RETRY_TOKEN_LENGTHS.len())];
                let mut token = vec![0u8; token_len];
                rng.fill(&mut token[..]);
                let wire = Packet::Retry {
                    version,
                    dcid: ConnectionId::from_u64(u64::from(rng.gen::<u32>())),
                    scid: ConnectionId::from_u64(rng.gen()),
                    token: Bytes::from(token),
                    original_dcid: ConnectionId::from_u64(rng.gen()),
                }
                .encode(None)
                .expect("retry encodes");
                extra.push(PacketRecord::udp(
                    ts,
                    attack.victim,
                    telescope.sample(&mut rng),
                    QUIC_PORT,
                    rng.gen_range(1_024..65_000),
                    Bytes::from(wire),
                ));
            }
        }
    }

    scenario.truth.response_packets += extra.len() as u64;
    scenario.records.extend(extra);
    scenario.records.sort_by_key(|r| r.ts);
    scenario
}

// ---------------------------------------------------------------------
// Version drift
// ---------------------------------------------------------------------

/// An unregistered draft number (draft-31) — dissects to
/// `BadVersion` and lands in the quarantine counters.
const UNREGISTERED_VERSION: u32 = 0xff00_001f;

/// The version a scan starting at `start_secs` speaks: draft-29 and
/// mvfst retire through the first phase, v1 dominates the second, v2
/// takes over in the third with v1 lingering.
fn drift_version(start_secs: u64, duration: u64, rng: &mut ChaCha12Rng) -> Version {
    match (start_secs * 3) / duration.max(1) {
        0 => {
            if rng.gen_bool(0.3) {
                Version::MvfstDraft27
            } else {
                Version::Draft29
            }
        }
        1 => {
            if rng.gen_bool(0.15) {
                Version::Draft29
            } else {
                Version::V1
            }
        }
        _ => {
            if rng.gen_bool(0.3) {
                Version::V1
            } else {
                Version::V2
            }
        }
    }
}

/// Drift-scanner source block (outside eyeball and telescope space).
fn drift_source(s: u64) -> Ipv4Addr {
    Ipv4Addr::new(100, 70, (s >> 8) as u8, s as u8)
}

/// Dedicated servers answering early-phase probes with Version
/// Negotiation; not flood victims, so their tiny response sessions
/// stay below the Moore thresholds.
fn vn_server(k: u64) -> Ipv4Addr {
    Ipv4Addr::new(100, 71, (k >> 8) as u8, k as u8)
}

fn version_drift(config: &ScenarioConfig) -> Scenario {
    // The flat all-v1 baseline scanners would drown the drift signal;
    // phased scans below replace them.
    let mut base = config.clone();
    base.request_sessions = 0;
    let mut scenario = Scenario::generate(&base);
    let mut rng = substream(config.seed, "version-drift");
    let telescope = scenario.world.telescope;
    let duration = config.duration_secs();
    let sessions = config.request_sessions.max(30);

    let mut extra = Vec::new();
    let mut request_added = 0u64;
    let mut response_added = 0u64;

    // Phased request scans.
    for s in 0..sessions {
        let start_secs = rng.gen_range(0..duration);
        let version = drift_version(start_secs, duration, &mut rng);
        let src = drift_source(s);
        let scid = ConnectionId::from_u64(u64::from(rng.gen::<u32>()));
        let payload = probe_with(&mut rng, version, scid);
        let src_port = rng.gen_range(1_024..65_000);
        let mut ts = Timestamp::from_secs(start_secs);
        let packets = 1 + poisson(&mut rng, config.request_session_mean_packets - 1.0);
        for _ in 0..packets {
            if ts.as_secs() >= duration {
                break;
            }
            extra.push(PacketRecord::udp(
                ts,
                src,
                telescope.sample(&mut rng),
                src_port,
                QUIC_PORT,
                payload.clone(),
            ));
            request_added += 1;
            ts += Duration::from_secs_f64(exponential(&mut rng, 15.0));
        }
    }

    // Version Negotiation backscatter, concentrated in the first two
    // phases while retired drafts are still being probed.
    let vn_packets = (sessions / 5).max(12);
    for k in 0..vn_packets {
        let ts = Timestamp::from_secs(rng.gen_range(0..(duration * 2) / 3));
        let wire = Packet::VersionNegotiation {
            dcid: ConnectionId::from_u64(u64::from(rng.gen::<u32>())),
            scid: ConnectionId::from_u64(rng.gen()),
            versions: vec![Version::V1, Version::V2],
        }
        .encode(None)
        .expect("vn encodes");
        extra.push(PacketRecord::udp(
            ts,
            vn_server(k),
            telescope.sample(&mut rng),
            QUIC_PORT,
            rng.gen_range(1_024..65_000),
            Bytes::from(wire),
        ));
        response_added += 1;
    }

    // A trickle of unregistered-version probes in the late phase —
    // scanners experimenting past the registry, quarantined by the
    // dissector as `BadVersion`.
    let unknown_probes = (sessions / 10).max(6);
    for u in 0..unknown_probes {
        let ts = Timestamp::from_secs(rng.gen_range((duration * 2) / 3..duration));
        let scid = ConnectionId::from_u64(u64::from(rng.gen::<u32>()));
        let payload = probe_with(&mut rng, Version::from_wire(UNREGISTERED_VERSION), scid);
        extra.push(PacketRecord::udp(
            ts,
            drift_source(sessions + u),
            telescope.sample(&mut rng),
            rng.gen_range(1_024..65_000),
            QUIC_PORT,
            payload,
        ));
        request_added += 1;
    }

    scenario.truth.request_packets += request_added;
    scenario.truth.response_packets += response_added;
    scenario.records.extend(extra);
    scenario.records.sort_by_key(|r| r.ts);
    scenario
}

// ---------------------------------------------------------------------
// Evolving scanners
// ---------------------------------------------------------------------

/// Longitudinal epochs ("weeks" at paper scale): cadence accelerates
/// and coverage widens from one epoch to the next.
const SCAN_EPOCHS: u64 = 4;

/// Where and over what horizon an [`EvolvingScanStream`]'s scanners
/// probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScanSchedule {
    /// Where probes land — every record's destination stays inside.
    telescope: Ipv4Prefix,
    /// The schedule horizon the epochs divide.
    horizon_secs: u64,
}

/// Parameters of an [`EvolvingScanStream`]: a pool of scanners.
pub type EvolvingScanConfig = Pool<ScanSchedule>;

impl EvolvingScanConfig {
    /// An unsharded stream of `records` probes from `scanners` sources
    /// (`1..=MAX_POOL_MEMBERS`) over `horizon_secs`, aimed at
    /// `telescope`.
    pub fn new(
        seed: u64,
        records: u64,
        scanners: u32,
        telescope: Ipv4Prefix,
        horizon_secs: u64,
    ) -> Self {
        let schedule = ScanSchedule {
            telescope,
            horizon_secs: horizon_secs.max(SCAN_EPOCHS),
        };
        Pool::with_model(seed, records, scanners, schedule)
    }

    /// Base inter-probe gap in microseconds for the first epoch; later
    /// epochs divide it by the epoch multiplier.
    fn base_gap_us(&self) -> u64 {
        let per_scanner = (self.records / u64::from(self.members)).max(1);
        ((self.model.horizon_secs * 1_000_000 * 2) / per_scanner).max(1_000)
    }
}

/// A lazily generated, time-sorted stream of evolving scan probes; see
/// the module docs for the longitudinal model and `crate::streaming`
/// for the memory bound.
pub type EvolvingScanStream = FlowMerge<ScannerFlow>;

/// One scanner's [`Flow`]: probes from `100.72.0.0/16`.
#[derive(Debug, Clone)]
pub struct ScannerFlow {
    src: Ipv4Addr,
    /// The scanner's (stable) probe datagram.
    payload: Bytes,
    src_port: u16,
    next_ts: Timestamp,
    rng: u64,
    schedule: ScanSchedule,
    base_gap_us: u64,
}

impl ScannerFlow {
    /// The longitudinal epoch `next_ts` falls in (clamped to the last
    /// epoch once the schedule horizon is exhausted).
    fn epoch(&self) -> u64 {
        ((self.next_ts.as_secs() * SCAN_EPOCHS) / self.schedule.horizon_secs).min(SCAN_EPOCHS - 1)
    }
}

impl Flow for ScannerFlow {
    type Model = ScanSchedule;

    fn new(pool: &EvolvingScanConfig, s: u32) -> Self {
        let mut probe_rng = substream(pool.seed ^ u64::from(s), "evolving-scan-probe");
        // The SCID is stable per scanner: aggressive scanners reuse
        // connection contexts across probes.
        let scid = ConnectionId::from_u64(pool.seed ^ (u64::from(s) << 17));
        ScannerFlow {
            src: member_source([100, 72], s),
            payload: probe_with(&mut probe_rng, Version::V1, scid),
            src_port: 1_024 + (s % 60_000) as u16,
            next_ts: Timestamp::from_micros(u64::from(s).wrapping_mul(611_953) % 5_000_000),
            rng: pool.member_rng(s),
            schedule: pool.model,
            base_gap_us: pool.base_gap_us(),
        }
    }

    fn next_ts(&self) -> Timestamp {
        self.next_ts
    }

    fn emit(&mut self) -> PacketRecord {
        let word = splitmix(&mut self.rng);
        let epoch = self.epoch();
        // Coverage widens with the epoch: early probes confine
        // themselves to the telescope's low end, later sweeps span it.
        let telescope = self.schedule.telescope;
        let span = (telescope.size() * (epoch + 1)) / SCAN_EPOCHS;
        let dst = telescope.nth(word % span.max(1));
        let record = PacketRecord::udp(
            self.next_ts,
            self.src,
            dst,
            self.src_port,
            QUIC_PORT,
            self.payload.clone(),
        );
        // Cadence accelerates with the epoch; jitter keeps per-scanner
        // timestamps strictly increasing.
        let step = self.base_gap_us / (epoch + 1) + word % 1_000;
        self.next_ts += Duration::from_micros(step.max(1));
        record
    }
}

/// The stream configuration [`ScenarioKind::EvolvingScanners`]
/// materializes for `config` and `telescope`.
pub fn evolving_scan_config(config: &ScenarioConfig, telescope: Ipv4Prefix) -> EvolvingScanConfig {
    let records =
        ((config.request_sessions as f64) * config.request_session_mean_packets).ceil() as u64;
    let scanners = ((config.request_sessions / 8).clamp(8, 256)) as u32;
    EvolvingScanConfig::new(
        config.seed,
        records.max(200),
        scanners,
        telescope,
        config.duration_secs(),
    )
}

fn evolving_scanners(config: &ScenarioConfig) -> Scenario {
    // The evolving pool replaces the baseline's memoryless scanners.
    let mut base = config.clone();
    base.request_sessions = 0;
    let mut scenario = Scenario::generate(&base);
    let stream_config = evolving_scan_config(config, scenario.world.telescope);
    let extra: Vec<PacketRecord> = EvolvingScanStream::new(&stream_config).collect();
    scenario.truth.request_packets += extra.len() as u64;
    scenario.records.extend(extra);
    scenario.records.sort_by_key(|r| r.ts);
    scenario
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_dissect::{classify_record, dissect_udp_payload, Classification, Direction};

    #[test]
    fn labels_roundtrip() {
        for kind in ScenarioKind::all() {
            assert_eq!(kind.label().parse::<ScenarioKind>().unwrap(), kind);
            assert_eq!(kind.to_string(), kind.label());
        }
        let err = "quantum-scan".parse::<ScenarioKind>().unwrap_err();
        assert!(err.to_string().contains("migration-abuse"));
    }

    fn check_scenario_invariants(s: &Scenario) {
        assert!(!s.records.is_empty());
        for w in s.records.windows(2) {
            assert!(w[0].ts <= w[1].ts, "capture stays time-sorted");
        }
        let total = s.truth.research_packets
            + s.truth.request_packets
            + s.truth.response_packets
            + s.truth.common_packets
            + s.truth.garbage_packets;
        assert_eq!(total, s.records.len() as u64, "component counts add up");
        for r in &s.records {
            assert!(s.world.telescope.contains(r.dst), "dst inside telescope");
        }
    }

    #[test]
    fn migration_abuse_holds_invariants_and_migrates_onto_victims() {
        let config = ScenarioConfig::test();
        let s = generate(ScenarioKind::MigrationAbuse, &config);
        check_scenario_invariants(&s);
        // Some request-direction packets originate from flood victims —
        // the migrated halves of the abusive flows.
        let victims: std::collections::HashSet<_> = s.truth.plan.victims.iter().collect();
        let migrated = s
            .records
            .iter()
            .filter(|r| {
                classify_record(r) == Classification::QuicCandidate(Direction::Request)
                    && victims.contains(&r.src)
            })
            .count();
        let flows = migration_flow_count(&config);
        assert!(
            migrated >= flows * MIGRATION_HALF_PACKETS as usize,
            "expected migrated request halves, saw {migrated}"
        );
    }

    #[test]
    fn retry_amplification_emits_valid_varied_retries() {
        let s = generate(ScenarioKind::RetryAmplification, &ScenarioConfig::test());
        check_scenario_invariants(&s);
        let mut token_lens = std::collections::HashSet::new();
        let mut retries = 0u64;
        for r in &s.records {
            let Some(payload) = r.udp_payload() else {
                continue;
            };
            if let Ok(d) = dissect_udp_payload(payload) {
                if d.has_retry() {
                    retries += 1;
                    token_lens.insert(payload.len());
                }
            }
        }
        assert!(retries > 100, "retry storm visible, saw {retries}");
        assert!(token_lens.len() >= 3, "token sizes vary: {token_lens:?}");
    }

    #[test]
    fn version_drift_moves_through_phases() {
        let config = ScenarioConfig::test();
        let s = generate(ScenarioKind::VersionDrift, &config);
        check_scenario_invariants(&s);
        let duration = config.duration_secs();
        let mut early = std::collections::HashMap::new();
        let mut late = std::collections::HashMap::new();
        let mut bad_version = 0u64;
        for r in &s.records {
            if classify_record(r) != Classification::QuicCandidate(Direction::Request) {
                continue;
            }
            let Some(payload) = r.udp_payload() else {
                continue;
            };
            match dissect_udp_payload(payload) {
                Ok(d) => {
                    if let Some(v) = d.version() {
                        let phase = (r.ts.as_secs() * 3) / duration;
                        let bucket = if phase == 0 { &mut early } else { &mut late };
                        if phase != 1 {
                            *bucket.entry(v).or_insert(0u64) += 1;
                        }
                    }
                }
                Err(quicsand_dissect::DissectError::BadVersion(v)) => {
                    assert_eq!(v, UNREGISTERED_VERSION);
                    bad_version += 1;
                }
                Err(_) => {}
            }
        }
        let v2 = Version::V2.to_wire();
        assert!(
            early.get(&Version::Draft29.to_wire()).copied().unwrap_or(0) > 0,
            "draft-29 present early"
        );
        assert_eq!(early.get(&v2), None, "v2 absent early");
        assert!(
            late.get(&v2).copied().unwrap_or(0) > 0,
            "v2 adopted late: {late:?}"
        );
        assert!(bad_version > 0, "unregistered probes quarantined");
        // Version Negotiation backscatter present.
        let vn = s
            .records
            .iter()
            .filter_map(|r| r.udp_payload())
            .filter_map(|p| dissect_udp_payload(p).ok())
            .filter(|d| d.version() == Some(0))
            .count();
        assert!(vn > 0, "version negotiation visible");
    }

    #[test]
    fn evolving_scanners_materializes_with_invariants() {
        let s = generate(ScenarioKind::EvolvingScanners, &ScenarioConfig::test());
        check_scenario_invariants(&s);
    }

    #[test]
    fn evolving_stream_cadence_accelerates() {
        let telescope = quicsand_net::ip::telescope_prefix();
        let config = EvolvingScanConfig::new(5, 8_000, 1, telescope, 86_400 * 28);
        let records: Vec<_> = EvolvingScanStream::new(&config).collect();
        assert!(records.iter().all(|r| telescope.contains(r.dst)));
        let quarter = records.len() / 4;
        let gap = |slice: &[PacketRecord]| {
            slice
                .windows(2)
                .map(|w| w[1].ts.saturating_since(w[0].ts).as_micros())
                .sum::<u64>() as f64
                / (slice.len() - 1) as f64
        };
        let first = gap(&records[..quarter]);
        let last = gap(&records[records.len() - quarter..]);
        assert!(
            last < first * 0.6,
            "cadence accelerates: first-quarter gap {first}, last {last}"
        );
        // Coverage widens: the late sweep reaches addresses the early
        // one never touches.
        let max_early = records[..quarter].iter().map(|r| u32::from(r.dst)).max();
        let max_late = records[records.len() - quarter..]
            .iter()
            .map(|r| u32::from(r.dst))
            .max();
        assert!(max_late > max_early, "coverage widens across epochs");
    }

    #[test]
    fn generation_is_deterministic_per_kind() {
        for kind in ScenarioKind::all() {
            let a = generate(kind, &ScenarioConfig::test());
            let b = generate(kind, &ScenarioConfig::test());
            assert_eq!(a.records.len(), b.records.len(), "{kind}");
            assert_eq!(a.records[..50], b.records[..50], "{kind}");
            assert_eq!(a.truth, b.truth, "{kind}");
        }
    }
}

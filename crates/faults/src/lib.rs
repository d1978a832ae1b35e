//! # quicsand-faults
//!
//! Deterministic fault injection for telescope captures.
//!
//! A `/9` darknet receives hostile, protocol-violating traffic as a
//! matter of course: truncated snaplen captures, garbage version
//! fields, replayed frames, reordered batches and skewed clocks
//! (QUICsand §3; aggressive scanners routinely emit malformed probes).
//! The analysis pipeline must *degrade gracefully* under all of it —
//! and the only way to prove that is to generate such traffic on
//! demand, reproducibly.
//!
//! [`FaultPlan`] takes any [`PacketRecord`] stream record by record
//! ([`FaultPlan::corrupt_into`]) and injects a seeded, configurable mix
//! of faults. Every fault is tagged with a
//! [`FaultKind`] that maps onto exactly one quarantine counter of the
//! hardened ingest pipeline
//! ([`quicsand_telescope::QuarantineStats`]), so tests can assert not
//! just "nothing panicked" but *which defense caught each fault*:
//!
//! | [`FaultKind`]       | injected malformation                    | quarantined as |
//! |---------------------|------------------------------------------|----------------|
//! | `Truncate`          | payload cut inside the header            | `truncated` |
//! | `CorruptVersion`    | long-header version := `0xdeadbeef`      | `bad_version` |
//! | `OversizedCid`      | DCID length byte := `0xff` (> 20)        | `bad_cid` |
//! | `ZeroPayload`       | payload := empty                         | `empty_payload` |
//! | `Garbage`           | extra record of random non-QUIC bytes    | `not_quic` |
//! | `Duplicate`         | byte-identical copy appended             | `duplicate` |
//! | `Jitter`            | timestamp −δ, δ ≤ reorder tolerance      | *admitted* |
//! | `Reorder`           | timestamp −δ, tolerance < δ ≤ horizon    | `reordered` |
//! | `ClockSkew`         | timestamp −δ, δ > skew horizon           | `clock_skew` |
//!
//! The plan mirrors the ingest guard's per-source high-water
//! timestamps, so the backwards deltas it picks are computed against
//! exactly the state the guard will hold when the record arrives —
//! which is what makes [`FaultSummary::expected_quarantine`] an exact
//! oracle, not an approximation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use bytes::Bytes;
use quicsand_net::{PacketRecord, Timestamp, Transport};
use quicsand_telescope::{GuardConfig, QuarantineStats};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

/// The kinds of fault the injector can apply to a record stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// Cut a QUIC candidate payload inside the packet header.
    Truncate,
    /// Overwrite a long-header version field with garbage.
    CorruptVersion,
    /// Overwrite the DCID length byte with an out-of-range value.
    OversizedCid,
    /// Replace the payload with a zero-length datagram.
    ZeroPayload,
    /// Insert an extra record of random non-QUIC bytes on port 443.
    Garbage,
    /// Append a byte-identical copy of the record (replay).
    Duplicate,
    /// Nudge the timestamp backwards *within* the reorder tolerance —
    /// the one fault the pipeline must *admit*, not quarantine.
    Jitter,
    /// Move the timestamp backwards past the reorder tolerance but
    /// within the skew horizon.
    Reorder,
    /// Move the timestamp backwards past the skew horizon.
    ClockSkew,
}

impl FaultKind {
    /// All kinds, in weight-vector order.
    pub const ALL: [FaultKind; 9] = [
        FaultKind::Truncate,
        FaultKind::CorruptVersion,
        FaultKind::OversizedCid,
        FaultKind::ZeroPayload,
        FaultKind::Garbage,
        FaultKind::Duplicate,
        FaultKind::Jitter,
        FaultKind::Reorder,
        FaultKind::ClockSkew,
    ];

    /// Stable label (matches the quarantine table labels where a
    /// quarantine kind exists).
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::Truncate => "truncate",
            FaultKind::CorruptVersion => "corrupt-version",
            FaultKind::OversizedCid => "oversized-cid",
            FaultKind::ZeroPayload => "zero-payload",
            FaultKind::Garbage => "garbage",
            FaultKind::Duplicate => "duplicate",
            FaultKind::Jitter => "jitter",
            FaultKind::Reorder => "reorder",
            FaultKind::ClockSkew => "clock-skew",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How often and with which mix faults are injected.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultProfile {
    /// Probability that any given input record is faulted.
    pub rate: f64,
    /// Relative weights per [`FaultKind`], in [`FaultKind::ALL`] order.
    /// All-zero weights disable injection regardless of `rate`.
    pub weights: [u32; 9],
    /// Guard thresholds the timestamp faults are calibrated against.
    /// Must match the pipeline's [`GuardConfig`] for the quarantine
    /// oracle to be exact.
    pub guard: GuardConfig,
}

impl FaultProfile {
    /// No faults at all (the identity plan).
    pub fn none() -> Self {
        FaultProfile {
            rate: 0.0,
            weights: [0; 9],
            guard: GuardConfig::default(),
        }
    }

    /// The standard CI mix: ~5 % of records faulted, every kind
    /// represented.
    pub fn standard() -> Self {
        FaultProfile {
            rate: 0.05,
            weights: [3, 2, 2, 2, 3, 3, 3, 2, 1],
            guard: GuardConfig::default(),
        }
    }

    /// A hostile mix: a quarter of all records faulted.
    pub fn aggressive() -> Self {
        FaultProfile {
            rate: 0.25,
            weights: [4, 3, 3, 3, 4, 4, 3, 3, 2],
            guard: GuardConfig::default(),
        }
    }

    /// A profile injecting only `kind`, at `rate`.
    pub fn only(kind: FaultKind, rate: f64) -> Self {
        let mut weights = [0u32; 9];
        let index = FaultKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL");
        weights[index] = 1;
        FaultProfile {
            rate,
            weights,
            guard: GuardConfig::default(),
        }
    }

    fn total_weight(&self) -> u64 {
        self.weights.iter().map(|w| u64::from(*w)).sum()
    }
}

impl FromStr for FaultProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "none" => Ok(FaultProfile::none()),
            "standard" => Ok(FaultProfile::standard()),
            "aggressive" => Ok(FaultProfile::aggressive()),
            other => Err(format!(
                "unknown fault profile {other:?} (expected none|standard|aggressive)"
            )),
        }
    }
}

/// Per-kind injection counts — the test oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSummary {
    /// Records read from the wrapped stream.
    pub input_records: u64,
    /// Records emitted (inputs + inserted garbage/duplicates).
    pub emitted_records: u64,
    /// Injected fault counts, in [`FaultKind::ALL`] order.
    pub injected: [u64; 9],
}

impl FaultSummary {
    /// Count of faults injected for one kind.
    pub fn count(&self, kind: FaultKind) -> u64 {
        let index = FaultKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL");
        self.injected[index]
    }

    /// Total faults injected, all kinds.
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    /// The exact additional quarantine counters a hardened pipeline
    /// (with the plan's [`GuardConfig`]) must report on the faulted
    /// stream, relative to the same pipeline over the clean stream.
    pub fn expected_quarantine(&self) -> QuarantineStats {
        QuarantineStats {
            truncated: self.count(FaultKind::Truncate),
            bad_version: self.count(FaultKind::CorruptVersion),
            bad_cid: self.count(FaultKind::OversizedCid),
            not_quic: self.count(FaultKind::Garbage),
            empty_payload: self.count(FaultKind::ZeroPayload),
            duplicate: self.count(FaultKind::Duplicate),
            reordered: self.count(FaultKind::Reorder),
            clock_skew: self.count(FaultKind::ClockSkew),
            transport_mismatch: 0,
        }
    }

    /// `(label, count)` rows for CLI/reporting.
    pub fn as_table(&self) -> [(&'static str, u64); 9] {
        let mut rows = [("", 0u64); 9];
        for (slot, (kind, count)) in rows
            .iter_mut()
            .zip(FaultKind::ALL.iter().zip(self.injected))
        {
            *slot = (kind.label(), count);
        }
        rows
    }
}

/// A seeded fault plan: deterministic given `(profile, seed)` and the
/// input stream.
#[derive(Debug)]
pub struct FaultPlan {
    profile: FaultProfile,
    seed: u64,
    rng: ChaCha8Rng,
    /// Mirror of the ingest guard's per-source high-water timestamps
    /// over the *emitted* stream (guard state advances even for
    /// quarantined records, and so does this mirror).
    src_max: HashMap<Ipv4Addr, Timestamp>,
    summary: FaultSummary,
}

impl FaultPlan {
    /// Creates a plan from a profile and seed.
    pub fn new(profile: FaultProfile, seed: u64) -> Self {
        FaultPlan {
            profile,
            seed,
            rng: ChaCha8Rng::seed_from_u64(seed),
            src_max: HashMap::new(),
            summary: FaultSummary::default(),
        }
    }

    /// The seed the plan was built with (for `--fault-seed` replay).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The profile the plan was built with.
    pub fn profile(&self) -> &FaultProfile {
        &self.profile
    }

    /// Injection counts so far.
    pub fn summary(&self) -> &FaultSummary {
        &self.summary
    }

    /// Processes one input record into one or two output records,
    /// possibly mutated. Appends to `out`.
    pub fn corrupt_into(&mut self, record: &PacketRecord, out: &mut Vec<PacketRecord>) {
        self.summary.input_records += 1;
        let total_weight = self.profile.total_weight();
        let faulted = total_weight > 0 && self.rng.gen_bool(self.profile.rate.clamp(0.0, 1.0));
        if !faulted {
            self.emit(record.clone(), out);
            return;
        }
        let kind = self.pick_kind(total_weight);
        let kind = self.applicable_or_fallback(kind, record);
        self.apply(kind, record, out);
    }

    /// Applies the plan to a whole capture.
    pub fn apply_all(&mut self, records: &[PacketRecord]) -> Vec<PacketRecord> {
        let mut out = Vec::with_capacity(records.len() + records.len() / 8);
        for record in records {
            self.corrupt_into(record, &mut out);
        }
        out
    }

    fn emit(&mut self, record: PacketRecord, out: &mut Vec<PacketRecord>) {
        self.note_emitted(&record);
        out.push(record);
    }

    /// Advances the guard-state mirror for an emitted record.
    fn note_emitted(&mut self, record: &PacketRecord) {
        self.summary.emitted_records += 1;
        let slot = self.src_max.entry(record.src).or_insert(record.ts);
        if record.ts > *slot {
            *slot = record.ts;
        }
    }

    fn count(&mut self, kind: FaultKind) {
        let index = FaultKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL");
        self.summary.injected[index] += 1;
    }

    fn pick_kind(&mut self, total_weight: u64) -> FaultKind {
        let mut ticket = self.rng.gen_range(0..total_weight);
        for (kind, weight) in FaultKind::ALL.iter().zip(self.profile.weights) {
            let weight = u64::from(weight);
            if ticket < weight {
                return *kind;
            }
            ticket -= weight;
        }
        unreachable!("ticket below total weight")
    }

    /// The payload of a QUIC-candidate UDP record (exactly one port is
    /// 443 — same disjunction the port filter uses).
    fn quic_candidate_payload(record: &PacketRecord) -> Option<&Bytes> {
        match &record.transport {
            Transport::Udp {
                src_port,
                dst_port,
                payload,
            } if (*src_port == 443) != (*dst_port == 443) => Some(payload),
            _ => None,
        }
    }

    /// Checks whether `kind` can be injected on `record` such that the
    /// quarantine outcome is certain; falls back to [`FaultKind::Duplicate`]
    /// (always applicable, always quarantined) otherwise.
    fn applicable_or_fallback(&self, kind: FaultKind, record: &PacketRecord) -> FaultKind {
        let payload = Self::quic_candidate_payload(record);
        let guard = &self.profile.guard;
        let applicable = match kind {
            // Cutting to ≤ 6 bytes always yields UnexpectedEnd provided
            // the fixed bit survives (a minimal parseable packet needs
            // ≥ 7 bytes in every header form).
            FaultKind::Truncate => payload.is_some_and(|p| p.len() >= 2 && p[0] & 0x40 != 0),
            // Needs a long header (form+fixed bits) and a version field
            // that is not Negotiation (zero), so the packet's structure
            // parses identically and only the version registry lookup
            // fails.
            FaultKind::CorruptVersion => payload
                .is_some_and(|p| p.len() >= 5 && p[0] & 0xc0 == 0xc0 && p[1..5] != [0, 0, 0, 0]),
            // Needs a long header with a DCID length byte to clobber.
            FaultKind::OversizedCid => payload.is_some_and(|p| p.len() >= 6 && p[0] & 0xc0 == 0xc0),
            FaultKind::ZeroPayload => payload.is_some_and(|p| !p.is_empty()),
            FaultKind::Garbage | FaultKind::Duplicate => true,
            FaultKind::Jitter => true,
            // Backwards moves need headroom: the source must have been
            // seen, and its watermark must sit far enough from zero for
            // the delta to exist.
            FaultKind::Reorder => self
                .src_max
                .get(&record.src)
                .is_some_and(|max| max.as_micros() > guard.reorder_tolerance.as_micros() + 1),
            FaultKind::ClockSkew => self
                .src_max
                .get(&record.src)
                .is_some_and(|max| max.as_micros() > guard.skew_horizon.as_micros() + 1),
        };
        if applicable {
            kind
        } else {
            FaultKind::Duplicate
        }
    }

    fn apply(&mut self, kind: FaultKind, record: &PacketRecord, out: &mut Vec<PacketRecord>) {
        let guard = self.profile.guard;
        match kind {
            FaultKind::Truncate => {
                let payload = Self::quic_candidate_payload(record).expect("applicability");
                // Applicability guarantees len >= 2, so the upper bound
                // is always >= 1.
                let cut_max = payload.len().saturating_sub(1).clamp(1, 6);
                let cut = self.rng.gen_range(1..=cut_max);
                let mut mutated = record.clone();
                set_udp_payload(&mut mutated, payload.slice(..cut));
                self.count(kind);
                self.emit(mutated, out);
            }
            FaultKind::CorruptVersion => {
                let payload = Self::quic_candidate_payload(record).expect("applicability");
                let mut bytes = payload.to_vec();
                bytes[1..5].copy_from_slice(&[0xde, 0xad, 0xbe, 0xef]);
                let mut mutated = record.clone();
                set_udp_payload(&mut mutated, Bytes::from(bytes));
                self.count(kind);
                self.emit(mutated, out);
            }
            FaultKind::OversizedCid => {
                let payload = Self::quic_candidate_payload(record).expect("applicability");
                let mut bytes = payload.to_vec();
                bytes[5] = 0xff;
                let mut mutated = record.clone();
                set_udp_payload(&mut mutated, Bytes::from(bytes));
                self.count(kind);
                self.emit(mutated, out);
            }
            FaultKind::ZeroPayload => {
                let mut mutated = record.clone();
                set_udp_payload(&mut mutated, Bytes::new());
                self.count(kind);
                self.emit(mutated, out);
            }
            FaultKind::Garbage => {
                // The original record passes through untouched; a fresh
                // record of structural garbage rides in after it, from
                // the same source and instant so the guard's timestamp
                // checks cannot fire — only the dissector can reject it.
                self.emit(record.clone(), out);
                let len = self.rng.gen_range(30usize..=64);
                let mut bytes = vec![0u8; len];
                self.rng.fill(&mut bytes[..]);
                bytes[0] &= 0x3f; // clear form + fixed bits → never QUIC
                let garbage = PacketRecord::udp(
                    record.ts,
                    record.src,
                    record.dst,
                    40_000,
                    443,
                    Bytes::from(bytes),
                );
                self.count(kind);
                self.emit(garbage, out);
            }
            FaultKind::Duplicate => {
                self.emit(record.clone(), out);
                self.count(kind);
                self.emit(record.clone(), out);
            }
            FaultKind::Jitter => {
                // Backwards nudge that stays within the tolerance *as
                // seen from the source's watermark* (and never takes
                // the clock below zero).
                let max = self.src_max.get(&record.src).copied().unwrap_or(record.ts);
                let lag_already = max.saturating_since(record.ts).as_micros();
                let headroom = guard
                    .reorder_tolerance
                    .as_micros()
                    .saturating_sub(lag_already)
                    .min(record.ts.as_micros());
                let delta = if headroom == 0 {
                    0
                } else {
                    self.rng.gen_range(0..=headroom)
                };
                let mut mutated = record.clone();
                mutated.ts = Timestamp::from_micros(record.ts.as_micros() - delta);
                self.count(kind);
                self.emit(mutated, out);
            }
            FaultKind::Reorder => {
                let max = self.src_max[&record.src];
                let low = guard.reorder_tolerance.as_micros() + 1;
                let high = guard.skew_horizon.as_micros().min(max.as_micros()).max(low);
                let delta = self.rng.gen_range(low..=high);
                let mut mutated = record.clone();
                mutated.ts = Timestamp::from_micros(max.as_micros() - delta);
                self.count(kind);
                self.emit(mutated, out);
            }
            FaultKind::ClockSkew => {
                let max = self.src_max[&record.src];
                let low = guard.skew_horizon.as_micros() + 1;
                let high = (2 * guard.skew_horizon.as_micros())
                    .min(max.as_micros())
                    .max(low);
                let delta = self.rng.gen_range(low..=high);
                let mut mutated = record.clone();
                mutated.ts = Timestamp::from_micros(max.as_micros().saturating_sub(delta));
                self.count(kind);
                self.emit(mutated, out);
            }
        }
    }
}

/// Sets the payload of a UDP record in place.
fn set_udp_payload(record: &mut PacketRecord, bytes: Bytes) {
    if let Transport::Udp { payload, .. } = &mut record.transport {
        *payload = bytes;
    } else {
        unreachable!("payload faults only target UDP records");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_net::TcpFlags;
    use quicsand_traffic::research::research_probe_payload;

    fn capture(n: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                let src = Ipv4Addr::from(0x0a00_0001 + (i % 97) as u32 * 13);
                let dst = Ipv4Addr::new(192, 0, 2, (i % 200) as u8);
                let ts = Timestamp::from_secs(3600 + i);
                match i % 3 {
                    0 | 1 => {
                        PacketRecord::udp(ts, src, dst, 40_000, 443, research_probe_payload(i))
                    }
                    _ => PacketRecord::tcp(ts, src, dst, 443, 5_000, TcpFlags::SYN_ACK),
                }
            })
            .collect()
    }

    #[test]
    fn none_profile_is_identity() {
        let records = capture(200);
        let mut plan = FaultPlan::new(FaultProfile::none(), 7);
        let out = plan.apply_all(&records);
        assert_eq!(out, records);
        assert_eq!(plan.summary().total_injected(), 0);
        assert_eq!(plan.summary().input_records, 200);
        assert_eq!(plan.summary().emitted_records, 200);
    }

    #[test]
    fn same_seed_same_stream_different_seed_differs() {
        let records = capture(500);
        let out_a = FaultPlan::new(FaultProfile::standard(), 42).apply_all(&records);
        let out_b = FaultPlan::new(FaultProfile::standard(), 42).apply_all(&records);
        let out_c = FaultPlan::new(FaultProfile::standard(), 43).apply_all(&records);
        assert_eq!(out_a, out_b, "same seed must reproduce byte-identically");
        assert_ne!(out_a, out_c, "different seed must differ");
    }

    #[test]
    fn summary_accounts_for_emitted_records() {
        let records = capture(1_000);
        let mut plan = FaultPlan::new(FaultProfile::aggressive(), 5);
        let out = plan.apply_all(&records);
        let summary = *plan.summary();
        assert_eq!(summary.input_records, 1_000);
        assert_eq!(summary.emitted_records as usize, out.len());
        let inserted = summary.count(FaultKind::Garbage) + summary.count(FaultKind::Duplicate);
        assert_eq!(out.len() as u64, 1_000 + inserted);
        assert!(summary.total_injected() > 0, "aggressive must inject");
    }

    #[test]
    fn profile_from_str() {
        assert_eq!(
            "none".parse::<FaultProfile>().unwrap(),
            FaultProfile::none()
        );
        assert_eq!(
            "standard".parse::<FaultProfile>().unwrap(),
            FaultProfile::standard()
        );
        assert_eq!(
            "aggressive".parse::<FaultProfile>().unwrap(),
            FaultProfile::aggressive()
        );
        assert!("bogus".parse::<FaultProfile>().is_err());
    }

    #[test]
    fn every_kind_injectable_via_only_profile() {
        let records = capture(2_000);
        for kind in FaultKind::ALL {
            let mut plan = FaultPlan::new(FaultProfile::only(kind, 0.2), 11);
            let _ = plan.apply_all(&records);
            // Inapplicable picks fall back to Duplicate, so the sum of
            // this kind + duplicates must equal total injected.
            let summary = plan.summary();
            assert_eq!(
                summary.count(kind) + summary.count(FaultKind::Duplicate)
                    - if kind == FaultKind::Duplicate {
                        summary.count(kind)
                    } else {
                        0
                    },
                summary.total_injected(),
                "kind {kind} fallback accounting"
            );
            assert!(summary.total_injected() > 0, "kind {kind} never injected");
        }
    }

    #[test]
    fn expected_quarantine_matches_pipeline_exactly() {
        use quicsand_telescope::TelescopePipeline;
        let records = capture(2_000);
        let profile = FaultProfile::aggressive();

        let mut clean = TelescopePipeline::with_guard(profile.guard);
        clean.ingest_all(&records);
        let (_, _, clean_stats) = clean.finish();
        assert_eq!(
            clean_stats.quarantine.total(),
            0,
            "test capture must be quarantine-free when clean"
        );

        let mut plan = FaultPlan::new(profile, 1234);
        let faulted = plan.apply_all(&records);
        let mut pipeline = TelescopePipeline::with_guard(profile.guard);
        pipeline.ingest_all(&faulted);
        let (_, _, stats) = pipeline.finish();
        assert_eq!(
            stats.quarantine,
            plan.summary().expected_quarantine(),
            "quarantine counters must match the injection oracle exactly"
        );
        assert_eq!(stats.total, plan.summary().emitted_records);
    }
}

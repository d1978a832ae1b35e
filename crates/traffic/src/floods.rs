//! Flood planning and generation (Figs. 6–9, 11–13).
//!
//! The planner first builds the *attack plan* — victims, windows, rates
//! and the multi-vector structure — then the generator materializes the
//! telescope-visible packets:
//!
//! * QUIC floods spoof client addresses; the victim's responses to the
//!   spoofed identities inside the /9 are what the telescope captures.
//!   Per §5.2/Fig. 9, attackers rotate a *small* pool of spoofed
//!   addresses but randomize ports aggressively — ports, not addresses,
//!   drive server-side SCID allocation.
//! * TCP/ICMP floods produce classic backscatter (SYN-ACK, RST, ICMP)
//!   and are placed relative to QUIC floods to realize the paper's
//!   51 % concurrent / 40 % sequential / 9 % isolated mix, plus an
//!   independent background population for the Fig. 7 baseline.

use crate::backscatter::BackscatterBuilder;
use crate::config::ScenarioConfig;
use quicsand_intel::{Provider, SyntheticInternet};
use quicsand_net::rng::{lognormal_by_median, poisson, substream};
use quicsand_net::{Duration, IcmpKind, PacketRecord, TcpFlags, Timestamp};
use quicsand_wire::QUIC_PORT;
use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Planned multi-vector role of a QUIC flood.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlannedClass {
    /// Overlapping a common flood.
    Concurrent,
    /// Same victim, disjoint in time.
    Sequential,
    /// Victim never sees a common flood.
    Isolated,
}

/// A planned QUIC flood.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedQuicAttack {
    /// The victim server.
    pub victim: Ipv4Addr,
    /// Operating provider (drives backscatter behaviour).
    pub provider: Provider,
    /// The victim's QUIC version wire value.
    pub version_wire: u32,
    /// Start second (since epoch).
    pub start_secs: u64,
    /// Duration in seconds.
    pub duration_secs: u64,
    /// Telescope-visible probe rate (probes/s landing on spoofed
    /// addresses inside the /9).
    pub visible_probe_rate: f64,
    /// Planned multi-vector class.
    pub class: PlannedClass,
    /// The spoofed client addresses inside the telescope this attack
    /// rotates through.
    pub spoof_pool: Vec<Ipv4Addr>,
}

/// Kinds of common-protocol backscatter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CommonKind {
    /// TCP SYN-ACK (victim of a SYN flood).
    TcpSynAck,
    /// TCP RST.
    TcpRst,
    /// TCP RST-ACK.
    TcpRstAck,
    /// ICMP echo reply (ping flood victim).
    IcmpEchoReply,
    /// ICMP destination unreachable (UDP flood victim).
    IcmpDestUnreachable,
}

/// A planned TCP/ICMP flood.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlannedCommonAttack {
    /// The victim.
    pub victim: Ipv4Addr,
    /// Start second.
    pub start_secs: u64,
    /// Duration in seconds.
    pub duration_secs: u64,
    /// Telescope-visible packet rate (pps).
    pub visible_pps: f64,
    /// Backscatter kind.
    pub kind: CommonKind,
}

/// The complete attack plan (also the scenario ground truth).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackPlan {
    /// QUIC floods.
    pub quic: Vec<PlannedQuicAttack>,
    /// Common floods (multi-vector companions + background).
    pub common: Vec<PlannedCommonAttack>,
    /// The distinct QUIC flood victims.
    pub victims: Vec<Ipv4Addr>,
}

/// Minimum separation between two QUIC floods on the same victim so
/// the 5-minute sessionization never merges them.
const SAME_VICTIM_SEPARATION_SECS: u64 = 660;

/// Builds the attack plan.
pub fn plan(world: &SyntheticInternet, config: &ScenarioConfig) -> AttackPlan {
    let mut rng = substream(config.seed, "attack-plan");
    let horizon = config.duration_secs();

    // --- Attack counts per victim: >half attacked once, heavy tail on
    // the rest (Fig. 6). Victim identities are assigned afterwards so
    // per-provider *attack* shares can be balanced. ---
    let pool_size = config.victim_pool;
    let n_single = ((pool_size as f64) * config.single_attack_victim_share).round() as usize;
    let n_single = n_single.min(pool_size).min(config.quic_attacks as usize);
    let n_multi = pool_size - n_single;
    let remaining = config.quic_attacks - n_single as u64;
    let mut counts = vec![1u64; n_single];
    if n_multi > 0 {
        // Zipf weights over the multi-attack victims.
        let weights: Vec<f64> = (1..=n_multi).map(|k| 1.0 / (k as f64).powf(0.85)).collect();
        let total: f64 = weights.iter().sum();
        let mut assigned = 0u64;
        let mut multi_counts: Vec<u64> = weights
            .iter()
            .map(|w| {
                let c = 1
                    + ((w / total) * remaining.saturating_sub(n_multi as u64) as f64).floor()
                        as u64;
                assigned += c;
                c
            })
            .collect();
        // Distribute the rounding remainder to the head.
        let mut leftover = remaining.saturating_sub(assigned);
        let mut i = 0;
        while leftover > 0 {
            multi_counts[i % n_multi] += 1;
            leftover -= 1;
            i += 1;
        }
        counts.extend(multi_counts);
    } else if remaining > 0 {
        // Degenerate tiny configs: pile the rest on the singles.
        for i in 0..remaining as usize {
            counts[i % n_single] += 1;
        }
    }

    // --- Assign victim identities to count slots so per-provider
    // *attack* shares match the paper (Fig. 9: 58 % Google, 25 %
    // Facebook): hand each slot, heaviest first, to the provider with
    // the most remaining attack budget and draw a fresh server of that
    // provider from the active-scan registry. ---
    let victims: Vec<(Ipv4Addr, Provider)> = {
        let total_attacks: f64 = counts.iter().sum::<u64>() as f64;
        let mut budgets: Vec<(Provider, f64)> = quicsand_intel::topology::PROVIDER_ATTACK_SHARES
            .iter()
            .map(|(p, share)| (*p, share * total_attacks))
            .collect();
        let mut used: std::collections::HashSet<Ipv4Addr> = std::collections::HashSet::new();
        let mut slot_order: Vec<usize> = (0..counts.len()).collect();
        slot_order.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
        let mut assigned: Vec<Option<(Ipv4Addr, Provider)>> = vec![None; counts.len()];
        for slot in slot_order {
            // Prefer the provider with the largest remaining budget
            // whose registry still has unused servers.
            let mut order: Vec<Provider> = budgets.iter().map(|(p, _)| *p).collect();
            order.sort_by(|a, b| {
                let ba = budgets.iter().find(|(p, _)| p == a).expect("known").1;
                let bb = budgets.iter().find(|(p, _)| p == b).expect("known").1;
                bb.partial_cmp(&ba).expect("no NaN")
            });
            let mut chosen = None;
            for provider in order {
                let servers = world.provider_servers(provider);
                if let Some(addr) = servers.iter().find(|a| !used.contains(a)) {
                    chosen = Some((*addr, provider));
                    break;
                }
            }
            let (addr, provider) = chosen.expect("registry has enough servers");
            used.insert(addr);
            for (p, budget) in &mut budgets {
                if *p == provider {
                    *budget -= counts[slot] as f64;
                }
            }
            assigned[slot] = Some((addr, provider));
        }
        assigned
            .into_iter()
            .map(|v| v.expect("every slot assigned"))
            .collect()
    };

    // --- Mark isolated victims: accumulate lightest victims until ~9 %
    // of attacks live on them. ---
    let isolated_target = ((1.0 - config.concurrent_share - config.sequential_share)
        * config.quic_attacks as f64)
        .round() as u64;
    let mut order: Vec<usize> = (0..victims.len()).collect();
    order.sort_by_key(|&i| counts[i]);
    let mut isolated_victims = std::collections::HashSet::new();
    let mut isolated_attacks = 0u64;
    for &i in &order {
        if isolated_attacks >= isolated_target {
            break;
        }
        isolated_victims.insert(victims[i].0);
        isolated_attacks += counts[i];
    }

    // --- Place QUIC attacks. ---
    let mut quic = Vec::with_capacity(config.quic_attacks as usize);
    let mut busy: HashMap<Ipv4Addr, Vec<(u64, u64)>> = HashMap::new();
    let mut non_isolated_assigned: u64 = 0;
    for (vi, &(victim, provider)) in victims.iter().enumerate() {
        let version_wire = world
            .servers
            .lookup(victim)
            .map_or(quicsand_wire::Version::Draft29.to_wire(), |s| {
                s.version_wire
            });
        for _ in 0..counts[vi] {
            let duration = lognormal_by_median(
                &mut rng,
                config.quic_duration_median_secs,
                config.quic_duration_sigma,
            )
            .clamp(75.0, 21_600.0) as u64;
            let start = place_interval(&mut rng, &mut busy, victim, duration, horizon);
            let rate = lognormal_by_median(
                &mut rng,
                config.quic_global_pps_median / 512.0,
                config.quic_global_pps_sigma,
            )
            .clamp(0.25, 20.0);
            let class = if isolated_victims.contains(&victim) {
                PlannedClass::Isolated
            } else {
                // Deterministic quota (Bresenham-style) instead of
                // Bernoulli sampling, so small scenarios hit the
                // configured 51/40 split exactly.
                let p_concurrent =
                    config.concurrent_share / (config.concurrent_share + config.sequential_share);
                let k = non_isolated_assigned;
                non_isolated_assigned += 1;
                let before = (k as f64 * p_concurrent).floor() as u64;
                let after = ((k + 1) as f64 * p_concurrent).floor() as u64;
                if after > before {
                    PlannedClass::Concurrent
                } else {
                    PlannedClass::Sequential
                }
            };
            let pool_size = rng.gen_range(3..=24);
            let spoof_pool = (0..pool_size)
                .map(|_| world.telescope.sample(&mut rng))
                .collect();
            quic.push(PlannedQuicAttack {
                victim,
                provider,
                version_wire,
                start_secs: start,
                duration_secs: duration,
                visible_probe_rate: rate,
                class,
                spoof_pool,
            });
        }
    }
    quic.sort_by_key(|a| a.start_secs);

    // --- Companion common floods for the multi-vector structure. ---
    let mut common = Vec::new();
    let quic_busy = busy.clone();
    for attack in &quic {
        match attack.class {
            PlannedClass::Isolated => {}
            PlannedClass::Concurrent => {
                let (start, duration) = if rng.gen_bool(config.full_overlap_share) {
                    // Fully covering, but capped so it cannot swallow
                    // the victim's neighbouring QUIC floods.
                    let lead = rng.gen_range(10..300u64);
                    let trail = rng.gen_range(10..300u64);
                    (
                        attack.start_secs.saturating_sub(lead),
                        attack.duration_secs + lead + trail,
                    )
                } else {
                    // Partial overlap of the flood's head or tail. The
                    // companion is clamped to ±600 s around the QUIC
                    // flood so it can never bleed into the victim's
                    // neighbouring floods (same-victim separation is
                    // 660 s).
                    let overlap =
                        (attack.duration_secs as f64 * rng.gen_range(0.10f64..0.9)).max(2.0) as u64;
                    let duration = (lognormal_by_median(
                        &mut rng,
                        config.common_duration_median_secs,
                        config.common_duration_sigma,
                    ) as u64)
                        .clamp(120, attack.duration_secs + 600);
                    if rng.gen_bool(0.5) {
                        // Head overlap: common flood ends inside ours.
                        let end = attack.start_secs + overlap;
                        let start = end
                            .saturating_sub(duration)
                            .max(attack.start_secs.saturating_sub(600));
                        (start, end - start)
                    } else {
                        // Tail overlap: common flood starts inside ours.
                        let start = attack.start_secs + attack.duration_secs - overlap;
                        let end =
                            (start + duration).min(attack.start_secs + attack.duration_secs + 600);
                        (start, end - start)
                    }
                };
                common.push(PlannedCommonAttack {
                    victim: attack.victim,
                    start_secs: start,
                    duration_secs: duration,
                    visible_pps: common_rate(&mut rng, config),
                    kind: sample_kind(&mut rng),
                });
            }
            PlannedClass::Sequential => {
                // Disjoint flood at a heavy-tailed gap; retry placement
                // so it does not accidentally overlap any QUIC flood on
                // this victim.
                for _ in 0..20 {
                    let gap_secs = (lognormal_by_median(
                        &mut rng,
                        config.sequential_gap_median_hours * 3_600.0,
                        config.sequential_gap_sigma,
                    ) as u64)
                        .clamp(120, 28 * 86_400);
                    let duration = (lognormal_by_median(
                        &mut rng,
                        config.common_duration_median_secs,
                        config.common_duration_sigma,
                    ) as u64)
                        .clamp(120, 86_400);
                    let before = rng.gen_bool(0.5);
                    let start = if before {
                        attack.start_secs.saturating_sub(gap_secs + duration)
                    } else {
                        attack.start_secs + attack.duration_secs + gap_secs
                    };
                    if start + duration >= horizon {
                        continue;
                    }
                    let overlaps_quic = quic_busy
                        .get(&attack.victim)
                        .is_some_and(|ivs| overlaps_any(ivs, start, duration));
                    if overlaps_quic {
                        continue;
                    }
                    common.push(PlannedCommonAttack {
                        victim: attack.victim,
                        start_secs: start,
                        duration_secs: duration,
                        visible_pps: common_rate(&mut rng, config),
                        kind: sample_kind(&mut rng),
                    });
                    break;
                }
            }
        }
    }

    // --- Background common floods (Fig. 7 sample). ---
    let pool: std::collections::HashSet<Ipv4Addr> = victims.iter().map(|(a, _)| *a).collect();
    for _ in 0..config.common_attacks {
        // Victims: arbitrary servers across provider space, never a
        // QUIC flood victim (keeps the multi-vector classes clean).
        let victim = loop {
            let (addr, _) = world.sample_victim(&mut rng);
            // Perturb the host bits so background victims extend beyond
            // the registry while staying in content space.
            let candidate = Ipv4Addr::from(u32::from(addr) ^ rng.gen_range(0..1u32 << 10));
            if !pool.contains(&candidate) && !world.telescope.contains(candidate) {
                break candidate;
            }
        };
        let duration = (lognormal_by_median(
            &mut rng,
            config.common_duration_median_secs,
            config.common_duration_sigma,
        ) as u64)
            .clamp(120, 5 * 86_400);
        let start = rng.gen_range(0..horizon.saturating_sub(duration).max(1));
        common.push(PlannedCommonAttack {
            victim,
            start_secs: start,
            duration_secs: duration,
            visible_pps: common_rate(&mut rng, config),
            kind: sample_kind(&mut rng),
        });
    }
    common.sort_by_key(|a| a.start_secs);

    AttackPlan {
        quic,
        common,
        victims: victims.iter().map(|(a, _)| *a).collect(),
    }
}

fn common_rate(rng: &mut ChaCha12Rng, config: &ScenarioConfig) -> f64 {
    lognormal_by_median(
        rng,
        config.common_global_pps_median / 512.0,
        config.common_global_pps_sigma,
    )
    .clamp(0.7, 50.0)
}

fn sample_kind(rng: &mut ChaCha12Rng) -> CommonKind {
    match rng.gen_range(0..100) {
        0..=59 => CommonKind::TcpSynAck,
        60..=74 => CommonKind::TcpRst,
        75..=79 => CommonKind::TcpRstAck,
        80..=89 => CommonKind::IcmpEchoReply,
        _ => CommonKind::IcmpDestUnreachable,
    }
}

/// Places a `duration`-second interval for `victim` avoiding overlap
/// (plus separation margin) with the victim's existing intervals.
fn place_interval(
    rng: &mut ChaCha12Rng,
    busy: &mut HashMap<Ipv4Addr, Vec<(u64, u64)>>,
    victim: Ipv4Addr,
    duration: u64,
    horizon: u64,
) -> u64 {
    let intervals = busy.entry(victim).or_default();
    let max_start = horizon.saturating_sub(duration + 1).max(1);
    for _ in 0..200 {
        let start = rng.gen_range(0..max_start);
        let padded_start = start.saturating_sub(SAME_VICTIM_SEPARATION_SECS);
        let padded_duration = duration + 2 * SAME_VICTIM_SEPARATION_SECS;
        if !overlaps_any(intervals, padded_start, padded_duration) {
            intervals.push((start, duration));
            return start;
        }
    }
    // Pathologically busy victim: place anyway (sessions may merge;
    // analyses tolerate it).
    let start = rng.gen_range(0..max_start);
    intervals.push((start, duration));
    start
}

fn overlaps_any(intervals: &[(u64, u64)], start: u64, duration: u64) -> bool {
    let end = start + duration;
    intervals.iter().any(|&(s, d)| start < s + d && s < end)
}

/// Generates the telescope-visible packets of one QUIC flood.
pub fn generate_quic_attack(
    attack: &PlannedQuicAttack,
    attack_seed: u64,
    out: &mut Vec<PacketRecord>,
) {
    let mut rng = substream(attack_seed, "quic-flood");
    let mut builder = BackscatterBuilder::new(attack.provider, attack.version_wire, attack_seed);
    for sec in 0..attack.duration_secs {
        let probes = poisson(&mut rng, attack.visible_probe_rate);
        for _ in 0..probes {
            let base = Timestamp::from_secs(attack.start_secs + sec)
                + Duration::from_micros(rng.gen_range(0..1_000_000));
            let client = attack.spoof_pool[rng.gen_range(0..attack.spoof_pool.len())];
            let client_port: u16 = rng.gen_range(1_024..65_000);
            let response = builder.respond();
            let n = response.datagrams.len();
            for (i, datagram) in response.datagrams.into_iter().enumerate() {
                // Initial+HS and the trailing HS leave back-to-back;
                // the keep-alive fires after a short delay (§6).
                let delay = match i {
                    0 => Duration::ZERO,
                    1 => Duration::from_micros(rng.gen_range(300..2_000)),
                    _ => Duration::from_millis(rng.gen_range(200..900)),
                };
                let _ = n;
                out.push(PacketRecord::udp(
                    base + delay,
                    attack.victim,
                    client,
                    QUIC_PORT,
                    client_port,
                    datagram,
                ));
            }
        }
    }
}

/// Generates the telescope-visible packets of one TCP/ICMP flood.
pub fn generate_common_attack(
    attack: &PlannedCommonAttack,
    attack_seed: u64,
    telescope: &quicsand_net::Ipv4Prefix,
    out: &mut Vec<PacketRecord>,
) {
    let mut rng = substream(attack_seed, "common-flood");
    let service_port = *[80u16, 443, 22, 25, 3389]
        .choose(&mut rng)
        .expect("non-empty");
    for sec in 0..attack.duration_secs {
        let packets = poisson(&mut rng, attack.visible_pps);
        for _ in 0..packets {
            let ts = Timestamp::from_secs(attack.start_secs + sec)
                + Duration::from_micros(rng.gen_range(0..1_000_000));
            let dst = telescope.sample(&mut rng);
            let record = match attack.kind {
                CommonKind::TcpSynAck => PacketRecord::tcp(
                    ts,
                    attack.victim,
                    dst,
                    service_port,
                    rng.gen_range(1_024..65_000),
                    TcpFlags::SYN_ACK,
                ),
                CommonKind::TcpRst => PacketRecord::tcp(
                    ts,
                    attack.victim,
                    dst,
                    service_port,
                    rng.gen_range(1_024..65_000),
                    TcpFlags::RST,
                ),
                CommonKind::TcpRstAck => PacketRecord::tcp(
                    ts,
                    attack.victim,
                    dst,
                    service_port,
                    rng.gen_range(1_024..65_000),
                    TcpFlags::RST_ACK,
                ),
                CommonKind::IcmpEchoReply => {
                    PacketRecord::icmp(ts, attack.victim, dst, IcmpKind::EchoReply)
                }
                CommonKind::IcmpDestUnreachable => {
                    PacketRecord::icmp(ts, attack.victim, dst, IcmpKind::DestUnreachable)
                }
            };
            out.push(record);
        }
    }
}

/// Generates all planned attacks.
pub fn generate(
    world: &SyntheticInternet,
    config: &ScenarioConfig,
    plan: &AttackPlan,
    out: &mut Vec<PacketRecord>,
) {
    for (i, attack) in plan.quic.iter().enumerate() {
        generate_quic_attack(attack, config.seed ^ (0x9_0000 + i as u64), out);
    }
    for (i, attack) in plan.common.iter().enumerate() {
        generate_common_attack(
            attack,
            config.seed ^ (0xA_0000_0000 + i as u64),
            &world.telescope,
            out,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_intel::TopologyConfig;

    fn world() -> SyntheticInternet {
        SyntheticInternet::build(&TopologyConfig::default())
    }

    fn test_plan() -> (SyntheticInternet, ScenarioConfig, AttackPlan) {
        let w = world();
        let config = ScenarioConfig::test();
        let p = plan(&w, &config);
        (w, config, p)
    }

    #[test]
    fn plan_counts_match_config() {
        let (_, config, p) = test_plan();
        assert_eq!(p.quic.len() as u64, config.quic_attacks);
        assert_eq!(p.victims.len(), config.victim_pool);
        // Companions + background.
        assert!(p.common.len() as u64 >= config.common_attacks);
    }

    #[test]
    fn victim_attack_distribution_has_singles_and_tail() {
        let (_, config, p) = test_plan();
        let mut counts: HashMap<Ipv4Addr, u64> = HashMap::new();
        for a in &p.quic {
            *counts.entry(a.victim).or_default() += 1;
        }
        let singles = counts.values().filter(|&&c| c == 1).count();
        assert!(
            singles as f64 >= 0.4 * config.victim_pool as f64,
            "singles {singles} of {}",
            config.victim_pool
        );
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max >= 3, "heavy tail expected, max {max}");
    }

    #[test]
    fn same_victim_quic_attacks_are_separated() {
        let (_, _, p) = test_plan();
        let mut by_victim: HashMap<Ipv4Addr, Vec<(u64, u64)>> = HashMap::new();
        for a in &p.quic {
            by_victim
                .entry(a.victim)
                .or_default()
                .push((a.start_secs, a.duration_secs));
        }
        for intervals in by_victim.values() {
            let mut sorted = intervals.clone();
            sorted.sort_unstable();
            for w in sorted.windows(2) {
                let gap = w[1].0.saturating_sub(w[0].0 + w[0].1);
                assert!(gap >= 300, "same-victim floods too close: gap {gap}s");
            }
        }
    }

    #[test]
    fn isolated_victims_have_no_common_attacks() {
        let (_, _, p) = test_plan();
        let isolated: std::collections::HashSet<_> = p
            .quic
            .iter()
            .filter(|a| a.class == PlannedClass::Isolated)
            .map(|a| a.victim)
            .collect();
        assert!(
            !isolated.is_empty(),
            "test preset should have isolated attacks"
        );
        for c in &p.common {
            assert!(
                !isolated.contains(&c.victim),
                "isolated victim {} received a common flood",
                c.victim
            );
        }
    }

    #[test]
    fn concurrent_attacks_overlap_their_companion() {
        let (_, _, p) = test_plan();
        for a in p
            .quic
            .iter()
            .filter(|a| a.class == PlannedClass::Concurrent)
        {
            let overlaps = p.common.iter().any(|c| {
                c.victim == a.victim
                    && a.start_secs < c.start_secs + c.duration_secs
                    && c.start_secs < a.start_secs + a.duration_secs
            });
            assert!(overlaps, "concurrent flood without overlapping companion");
        }
    }

    #[test]
    fn sequential_attacks_share_victim_but_not_time() {
        let (_, _, p) = test_plan();
        let mut checked = 0;
        for a in p
            .quic
            .iter()
            .filter(|a| a.class == PlannedClass::Sequential)
        {
            let same_victim: Vec<_> = p.common.iter().filter(|c| c.victim == a.victim).collect();
            if same_victim.is_empty() {
                continue; // placement can fail after retries near horizon
            }
            checked += 1;
            for c in same_victim {
                let disjoint = a.start_secs + a.duration_secs <= c.start_secs
                    || c.start_secs + c.duration_secs <= a.start_secs;
                assert!(disjoint, "sequential flood overlaps common flood");
            }
        }
        assert!(checked > 0, "no sequential attacks verified");
    }

    #[test]
    fn class_shares_approximate_config() {
        let w = world();
        let mut config = ScenarioConfig::test();
        config.quic_attacks = 800;
        config.victim_pool = 60;
        let p = plan(&w, &config);
        let total = p.quic.len() as f64;
        let share =
            |class: PlannedClass| p.quic.iter().filter(|a| a.class == class).count() as f64 / total;
        assert!((share(PlannedClass::Concurrent) - 0.51).abs() < 0.08);
        assert!((share(PlannedClass::Sequential) - 0.40).abs() < 0.08);
        assert!((share(PlannedClass::Isolated) - 0.09).abs() < 0.05);
    }

    #[test]
    fn quic_flood_packets_look_like_backscatter() {
        let (_, _, p) = test_plan();
        let attack = &p.quic[0];
        let mut out = Vec::new();
        generate_quic_attack(attack, 1, &mut out);
        assert!(!out.is_empty());
        for r in &out {
            assert_eq!(r.src, attack.victim);
            assert_eq!(r.transport.src_port(), Some(QUIC_PORT));
            assert!(attack.spoof_pool.contains(&r.dst));
            assert!(r.udp_payload().is_some());
        }
        // Dissectable as opaque server responses.
        let d = quicsand_dissect::dissect_udp_payload(out[0].udp_payload().unwrap()).unwrap();
        assert_eq!(d.messages[0].has_client_hello, Some(false));
    }

    #[test]
    fn quic_flood_volume_tracks_rate() {
        let (_, _, p) = test_plan();
        let attack = &p.quic[0];
        let mut out = Vec::new();
        generate_quic_attack(attack, 1, &mut out);
        // Expected probes = rate × duration; datagrams ≈ 2.4 × probes.
        let expected = attack.visible_probe_rate * attack.duration_secs as f64 * 2.4;
        let got = out.len() as f64;
        assert!(
            got > expected * 0.6 && got < expected * 1.4,
            "got {got}, expected ~{expected}"
        );
    }

    #[test]
    fn common_flood_packets_are_classic_backscatter() {
        let (w, _, p) = test_plan();
        let attack = p
            .common
            .iter()
            .find(|c| matches!(c.kind, CommonKind::TcpSynAck))
            .expect("plan contains SYN-ACK floods");
        let mut out = Vec::new();
        generate_common_attack(attack, 5, &w.telescope, &mut out);
        assert!(!out.is_empty());
        for r in &out {
            assert_eq!(r.src, attack.victim);
            assert!(w.telescope.contains(r.dst));
            match &r.transport {
                quicsand_net::Transport::Tcp { flags, .. } => {
                    assert!(flags.is_response());
                }
                other => panic!("unexpected transport {other:?}"),
            }
        }
    }

    #[test]
    fn plan_is_deterministic() {
        let w = world();
        let config = ScenarioConfig::test();
        assert_eq!(plan(&w, &config), plan(&w, &config));
    }

    #[test]
    fn background_commons_avoid_quic_victims_and_telescope() {
        let (w, _, p) = test_plan();
        let pool: std::collections::HashSet<_> = p.victims.iter().collect();
        let quic_victim_commons = p.common.iter().filter(|c| pool.contains(&c.victim)).count();
        // Only companions may target pool victims; background must not.
        // Count companions: concurrent + sequential placements.
        let companions = p
            .quic
            .iter()
            .filter(|a| a.class != PlannedClass::Isolated)
            .count();
        assert!(quic_victim_commons <= companions);
        for c in &p.common {
            assert!(!w.telescope.contains(c.victim));
        }
    }
}

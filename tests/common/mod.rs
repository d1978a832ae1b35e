//! Helpers shared by the integration suites that hold the live engine
//! to the batch pipeline.

use quicsand_dissect::Direction;
use quicsand_live::LiveConfig;
use quicsand_net::{Duration, PacketRecord};
use quicsand_sessions::dos::AttackProtocol;
use quicsand_sessions::{
    classify_multivector, detect_attacks, Attack, MultiVectorClass, Sessionizer,
};
use quicsand_telescope::{Admitted, GuardConfig, TelescopePipeline};

/// One QUIC attack's multi-vector verdict: (class, overlap share, gap).
pub type Verdict = (MultiVectorClass, Option<f64>, Option<Duration>);

/// The offline reference: raw ingest guard → sessionize the Response
/// and baseline channels → threshold detection → multi-vector
/// classification, exactly as the batch analysis does (minus the
/// two-pass research-scanner filter, which is inherently offline).
pub fn batch_reference(
    records: &[PacketRecord],
    guard: GuardConfig,
    config: &LiveConfig,
) -> (Vec<Attack>, Vec<Attack>, Vec<Verdict>) {
    let mut pipeline = TelescopePipeline::with_guard(guard);
    let mut responses = Sessionizer::new(config.session);
    let mut commons = Sessionizer::new(config.session);
    for record in records {
        match pipeline.admit(record) {
            Admitted::Quic(obs) => {
                if obs.direction == Direction::Response {
                    responses.offer(obs.ts, obs.src);
                }
            }
            Admitted::Baseline(record) => commons.offer(record.ts, record.src),
            Admitted::Dropped => {}
        }
    }
    let mut response_sessions = responses.finish();
    let mut common_sessions = commons.finish();
    response_sessions.sort_by_key(|s| (s.start, s.src));
    common_sessions.sort_by_key(|s| (s.start, s.src));
    let quic = detect_attacks(&response_sessions, AttackProtocol::Quic, &config.thresholds);
    let common = detect_attacks(
        &common_sessions,
        AttackProtocol::TcpIcmp,
        &config.thresholds,
    );
    let report = classify_multivector(&quic, &common);
    let verdicts = report
        .attacks
        .iter()
        .map(|c| (c.class, c.overlap_share, c.gap))
        .collect();
    (quic, common, verdicts)
}

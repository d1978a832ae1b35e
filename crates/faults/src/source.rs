//! Seeded source-level fault injection: feeds that die mid-stream.
//!
//! The record-level injectors in the crate root malform *records*; this
//! module malforms the *transport*. A [`FlakyFactory`] wraps any
//! [`SourceFactory`] and makes each opened session fail (an injected
//! `ConnectionReset`) once it crosses the next planned absolute stream
//! position. Fail positions are seeded, sorted, and strictly
//! increasing, so:
//!
//! * every reconnect makes forward progress past the previous death
//!   point (the multiplexer's no-progress abandonment never triggers),
//! * the failure budget is finite — after the last planned position the
//!   feed runs to EOF, and
//! * the whole schedule is a pure function of `(seed, failures, span)`,
//!   reproducible run to run.
//!
//! Because the multiplexer resumes a reopened feed past the records it
//! already delivered, a flaky feed delivers exactly the same record
//! sequence as an unbroken one — the equivalence
//! `tests/multi_source.rs` proves end to end.

use quicsand_net::capture::CaptureError;
use quicsand_net::multi::{DynSource, SourceFactory};
use quicsand_net::{PacketRecord, StreamSource};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// A seeded schedule of absolute stream positions at which a feed dies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlakyPlan {
    points: Vec<u64>,
}

impl FlakyPlan {
    /// Plans `failures` distinct death positions within `1..span`
    /// (positions past the stream's end simply never fire).
    pub fn new(seed: u64, failures: u32, span: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5EED_F10D);
        let mut points = BTreeSet::new();
        let span = span.max(2);
        while points.len() < failures as usize && (points.len() as u64) < span - 1 {
            points.insert(rng.gen_range(1..span));
        }
        FlakyPlan {
            points: points.into_iter().collect(),
        }
    }

    /// The planned death positions, ascending.
    pub fn points(&self) -> &[u64] {
        &self.points
    }
}

/// Wraps a factory so the `k`-th opened session dies at the plan's
/// `k`-th position; sessions beyond the plan run undisturbed.
pub struct FlakyFactory<F> {
    inner: F,
    plan: FlakyPlan,
    opens: usize,
}

impl<F: SourceFactory> FlakyFactory<F> {
    /// Couples `inner` to a failure `plan`.
    pub fn new(inner: F, plan: FlakyPlan) -> Self {
        FlakyFactory {
            inner,
            plan,
            opens: 0,
        }
    }

    /// Sessions opened so far (1 + reconnects observed).
    pub fn opens(&self) -> usize {
        self.opens
    }
}

impl<F: SourceFactory> SourceFactory for FlakyFactory<F> {
    fn open(&mut self) -> Result<DynSource, CaptureError> {
        let fail_at = self.plan.points.get(self.opens).copied();
        self.opens += 1;
        let inner = self.inner.open()?;
        Ok(Box::new(FlakySource {
            inner,
            fail_at,
            position: 0,
        }))
    }
}

/// A session that reports an injected I/O failure when it reaches its
/// planned absolute position, then stays dead: the position no longer
/// advances, so every later pull reports the same failure.
struct FlakySource {
    inner: DynSource,
    fail_at: Option<u64>,
    position: u64,
}

impl StreamSource for FlakySource {
    fn next_record(&mut self) -> Option<Result<PacketRecord, CaptureError>> {
        if self.fail_at == Some(self.position) {
            return Some(Err(CaptureError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "injected source failure",
            ))));
        }
        let next = self.inner.next_record();
        if matches!(next, Some(Ok(_))) {
            self.position += 1;
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_net::multi::{memory_factory, merge_records, SourceSet, SourceSetConfig};
    use quicsand_net::{TcpFlags, Timestamp};
    use std::net::Ipv4Addr;

    fn record(ts: u64) -> PacketRecord {
        PacketRecord::tcp(
            Timestamp::from_micros(ts),
            Ipv4Addr::new(10, 1, (ts >> 8) as u8, ts as u8),
            Ipv4Addr::new(192, 0, 2, 9),
            443,
            6000,
            TcpFlags::SYN_ACK,
        )
    }

    #[test]
    fn plan_is_seeded_sorted_and_strictly_increasing() {
        let plan = FlakyPlan::new(42, 5, 10_000);
        assert_eq!(plan, FlakyPlan::new(42, 5, 10_000));
        assert_ne!(plan, FlakyPlan::new(43, 5, 10_000));
        assert_eq!(plan.points().len(), 5);
        assert!(plan.points().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn flaky_source_dies_at_the_planned_position_then_stays_dead() {
        let records: Vec<_> = (0..100).map(record).collect();
        let plan = FlakyPlan {
            points: vec![7, 30],
        };
        let mut factory = FlakyFactory::new(memory_factory(records), plan);
        let mut session = factory.open().unwrap();
        for _ in 0..7 {
            assert!(matches!(session.next_record(), Some(Ok(_))));
        }
        for _ in 0..3 {
            let error = session.next_record().unwrap().unwrap_err();
            assert!(error.to_string().contains("injected source failure"));
        }
        // The next session dies strictly later: guaranteed progress.
        let mut session = factory.open().unwrap();
        for _ in 0..30 {
            assert!(matches!(session.next_record(), Some(Ok(_))));
        }
        assert!(matches!(session.next_record(), Some(Err(_))));
        // Past the plan, sessions run clean to EOF.
        let mut session = factory.open().unwrap();
        let mut n = 0;
        while let Some(r) = session.next_record() {
            r.unwrap();
            n += 1;
        }
        assert_eq!(n, 100);
        assert_eq!(factory.opens(), 3);
    }

    #[test]
    fn a_chunked_pull_hands_over_the_records_then_the_failure() {
        let records: Vec<_> = (0..100).map(record).collect();
        let plan = FlakyPlan { points: vec![7] };
        let mut session = FlakyFactory::new(memory_factory(records.clone()), plan)
            .open()
            .unwrap();
        assert_eq!(session.pull_chunk(64).unwrap(), records[..7]);
        for _ in 0..2 {
            assert!(session.pull_chunk(64).is_err(), "the failure is not an end");
        }
    }

    #[test]
    fn flaky_feed_delivers_the_unbroken_sequence_through_a_source_set() {
        let all: Vec<_> = (0..400).map(record).collect();
        let splits = vec![
            all.iter().step_by(2).cloned().collect::<Vec<_>>(),
            all.iter().skip(1).step_by(2).cloned().collect::<Vec<_>>(),
        ];
        let reference = merge_records(&splits);
        let plan = FlakyPlan::new(7, 4, splits[0].len() as u64);
        assert!(!plan.points().is_empty());
        let factories: Vec<Box<dyn SourceFactory>> = vec![
            Box::new(FlakyFactory::new(memory_factory(splits[0].clone()), plan)),
            Box::new(memory_factory(splits[1].clone())),
        ];
        let mut set = SourceSet::spawn(factories, &SourceSetConfig::default());
        let mut merged = Vec::new();
        while let Some(r) = set.next_merged() {
            merged.push(r);
        }
        assert_eq!(merged, reference, "failures are invisible to the merge");
        let stats = set.stats();
        assert_eq!(stats[0].reconnects, 4);
        assert_eq!(stats[0].drops, 4);
        assert!(stats[0].eof && !stats[0].dead);
        assert_eq!(stats[1].reconnects, 0);
    }
}

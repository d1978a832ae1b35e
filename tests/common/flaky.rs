//! Seeded source-level fault injection: feeds that die mid-stream.
//!
//! The record-level injectors of `quicsand_faults` malform *records*;
//! this fixture malforms the *transport*. A [`FlakyFactory`] wraps any
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
    pub(crate) points: Vec<u64>,
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
    #[allow(dead_code)] // each including suite uses some of the API
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
    #[allow(dead_code)]
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

//! Multi-source ingestion: N concurrent record feeds merged into one
//! deterministic, watermark-aligned stream.
//!
//! The paper's telescope is a single vantage point, but real
//! deployments fuse many (reactive networks, backscatter feeds, per-PoP
//! taps). [`SourceSet`] drives one producer thread per
//! [`StreamSource`] behind a bounded queue (backpressure: a producer
//! blocks when its queue is full, so a fast feed can never balloon
//! memory while a slow feed catches up) and merges the feeds through an
//! event-time min-heap keyed by `(timestamp, source index)`.
//!
//! **Batched transfer.** Producers hand records over in whole batches
//! (target [`SourceSetConfig::batch_records`], sized like the zero-copy
//! tier's `RecordBatch`) rather than one at a time: one lock round-trip
//! and one wakeup amortize over thousands of records, which is what
//! closes the fan-in gap to the single-source path on small machines.
//! The queue capacity still bounds *records*, not batches — producers
//! cap their batches at the capacity, so `queue_peak <= capacity`
//! holds exactly as it did for per-record hand-off.
//!
//! **Run-based merging.** Since each feed is internally time-sorted,
//! the consumer emits *runs*, not records: after popping the winning
//! feed off the heap it finds — by galloping binary search — the prefix
//! of that feed's head batch ordered strictly before the next competing
//! feed's head in the `(timestamp, source index)` order, and emits the
//! whole prefix with a single heap adjustment. See DESIGN.md §12 for
//! the determinism argument.
//!
//! **Determinism.** The heap holds exactly one head entry per live
//! source, so the next emitted run is a pure function of the per-source
//! head timestamps — thread scheduling, queue depths, batch boundaries,
//! and rate limits can change *when* records become available, never
//! *which order* they merge in. [`merge_records`] is the same function
//! stated synchronously; `SourceSet` over any split of a trace is
//! record-for-record equal to it, which is the contract
//! `tests/multi_source.rs` proves against the live engine.
//!
//! **Watermark alignment.** A record with timestamp `t` is emitted only
//! once every live source has offered a head `>= t` (or terminated), so
//! an out-of-phase feed can never push the sessionizer's watermark past
//! records a lagging feed still holds. Within a single source the usual
//! guard reorder tolerance applies unchanged.
//!
//! **Fault handling.** A source that reports an error (or fails to
//! open) is reopened through its [`SourceFactory`] and fast-forwarded
//! past the records already enqueued — resume-on-reconnect, invisible
//! to the consumer. A source that keeps failing without making progress
//! is abandoned ([`SourceStats::dead`]) and the set continues on the
//! remaining feeds; an instantly-EOF (e.g. empty) source is drained and
//! counted, never fatal.

use crate::capture::CaptureError;
use crate::record::PacketRecord;
use crate::stream::{MemoryStream, StreamSource};
use crate::time::Timestamp;
use crate::zerocopy::DEFAULT_BATCH;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration as StdDuration, Instant};

/// A boxed stream source that can be handed to a producer thread.
pub type DynSource = Box<dyn StreamSource + Send>;

/// Opens (and re-opens) a feed's underlying stream.
///
/// A factory is the unit of reconnect-with-resume: after a source
/// failure the producer calls `open` again and skips the records it
/// already delivered, so a replayable source (file, in-memory vector)
/// resumes exactly where it left off. Any `FnMut` closure returning a
/// [`DynSource`] is a factory.
pub trait SourceFactory: Send {
    /// Opens a fresh session of the stream, starting from its
    /// beginning.
    fn open(&mut self) -> Result<DynSource, CaptureError>;

    /// Human-readable vantage label for this feed, recorded once at
    /// spawn time and surfaced through [`SourceSet::labels`] — the
    /// qlog export tags its trace's vantage point with these.
    fn label(&self) -> String {
        "unnamed".to_string()
    }
}

impl<F> SourceFactory for F
where
    F: FnMut() -> Result<DynSource, CaptureError> + Send,
{
    fn open(&mut self) -> Result<DynSource, CaptureError> {
        self()
    }
}

/// Tuning knobs for a [`SourceSet`].
#[derive(Debug, Clone)]
pub struct SourceSetConfig {
    /// Bounded per-source queue capacity, records (`--source-queue`).
    /// Producers block when their queue is full.
    pub queue_capacity: usize,
    /// Target records per producer batch (`--source-batch`). Batches
    /// are additionally capped at the queue capacity (so a full batch
    /// always fits) and, under pacing, at ~20 ms worth of records (so
    /// arrival shaping stays smooth). Batch boundaries can never change
    /// the merged record order.
    pub batch_records: usize,
    /// Per-source pacing, records per second (`--source-rate`); `None`
    /// replays at full speed. Pacing shapes arrival timing only — it
    /// can never change the merged record order.
    pub rate_limit: Option<u64>,
    /// Consecutive no-progress failures tolerated before a source is
    /// abandoned. A reconnect that advances past the source's previous
    /// high-water mark resets the count.
    pub max_reconnects: u32,
}

impl Default for SourceSetConfig {
    fn default() -> Self {
        SourceSetConfig {
            queue_capacity: 4096,
            batch_records: DEFAULT_BATCH,
            rate_limit: None,
            max_reconnects: 8,
        }
    }
}

/// Per-source telemetry, readable at any time via [`SourceSet::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SourceStats {
    /// Records delivered to the consumer through the merge. After a
    /// [`SourceSet::resume`] this continues from the restored cursor,
    /// so it is an absolute stream position.
    pub delivered: u64,
    /// Records the producer pushed into the queue in this run
    /// (excludes any resume fast-forward).
    pub produced: u64,
    /// Batches the producer pushed into the queue in this run.
    pub batches: u64,
    /// Reconnect attempts made after a failure.
    pub reconnects: u64,
    /// Failed sessions skipped over (corrupt record hit or open error).
    pub drops: u64,
    /// The source ran dry cleanly.
    pub eof: bool,
    /// The source was abandoned after `max_reconnects` consecutive
    /// failures without forward progress.
    pub dead: bool,
    /// Records currently buffered (queued batches plus the partially
    /// consumed merge head batch).
    pub queue_depth: usize,
    /// Highest queue occupancy observed, records; never exceeds the
    /// configured capacity.
    pub queue_peak: usize,
}

/// How a feed's producer ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FeedEnd {
    /// Source ran dry.
    Eof,
    /// Abandoned after repeated no-progress failures.
    Dead,
}

#[derive(Debug)]
struct FeedState {
    /// Whole batches in flight; `queued` tracks their record total,
    /// which is what the capacity bounds.
    queue: VecDeque<Vec<PacketRecord>>,
    queued: usize,
    terminal: Option<FeedEnd>,
    /// Consumer gone: producers stop pushing and exit.
    closed: bool,
    produced: u64,
    batches: u64,
    reconnects: u64,
    drops: u64,
    peak: usize,
}

/// One bounded MPSC-of-one queue between a producer thread and the
/// merging consumer, with both-ways blocking (backpressure on the
/// producer, watermark wait on the consumer). The unit of transfer is
/// a whole record batch; the capacity is still counted in records.
#[derive(Debug)]
struct FeedShared {
    capacity: usize,
    state: Mutex<FeedState>,
    not_full: Condvar,
    not_empty: Condvar,
}

impl FeedShared {
    fn new(capacity: usize) -> Self {
        FeedShared {
            capacity: capacity.max(1),
            state: Mutex::new(FeedState {
                queue: VecDeque::new(),
                queued: 0,
                terminal: None,
                closed: false,
                produced: 0,
                batches: 0,
                reconnects: 0,
                drops: 0,
                peak: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
        }
    }

    /// Producer side: blocks while the whole batch does not fit under
    /// the record capacity. Returns `false` when the consumer has gone
    /// away. Batches are non-empty and never exceed the capacity (the
    /// producer caps them), so progress is always possible and the
    /// observed peak never exceeds the capacity.
    fn push_batch(&self, batch: Vec<PacketRecord>) -> bool {
        debug_assert!(!batch.is_empty(), "producers never push empty batches");
        debug_assert!(batch.len() <= self.capacity, "batches are capacity-capped");
        let mut state = self.state.lock().expect("feed lock");
        while state.queued + batch.len() > self.capacity && !state.closed {
            state = self.not_full.wait(state).expect("feed lock");
        }
        if state.closed {
            return false;
        }
        state.queued += batch.len();
        state.produced += batch.len() as u64;
        state.batches += 1;
        state.peak = state.peak.max(state.queued);
        state.queue.push_back(batch);
        self.not_empty.notify_one();
        true
    }

    /// Consumer side: blocks until a batch is available or the feed
    /// has terminated (then `None`, permanently). Returned batches are
    /// never empty.
    fn pop_batch(&self) -> Option<Vec<PacketRecord>> {
        let mut state = self.state.lock().expect("feed lock");
        loop {
            if let Some(batch) = state.queue.pop_front() {
                state.queued -= batch.len();
                self.not_full.notify_one();
                return Some(batch);
            }
            if state.terminal.is_some() {
                return None;
            }
            state = self.not_empty.wait(state).expect("feed lock");
        }
    }

    fn finish(&self, end: FeedEnd) {
        let mut state = self.state.lock().expect("feed lock");
        if state.terminal.is_none() {
            state.terminal = Some(end);
        }
        self.not_empty.notify_all();
    }

    /// Consumer shutdown: wakes and releases the producer.
    fn close(&self) {
        let mut state = self.state.lock().expect("feed lock");
        state.closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }

    fn is_closed(&self) -> bool {
        self.state.lock().expect("feed lock").closed
    }

    fn add_reconnect(&self) {
        self.state.lock().expect("feed lock").reconnects += 1;
    }

    fn add_drop(&self) {
        self.state.lock().expect("feed lock").drops += 1;
    }

    fn stats(&self) -> SourceStats {
        let state = self.state.lock().expect("feed lock");
        SourceStats {
            delivered: 0, // filled in by SourceSet
            produced: state.produced,
            batches: state.batches,
            reconnects: state.reconnects,
            drops: state.drops,
            eof: state.terminal == Some(FeedEnd::Eof),
            dead: state.terminal == Some(FeedEnd::Dead),
            queue_depth: state.queued,
            queue_peak: state.peak,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct ProducerConfig {
    batch_records: usize,
    rate_limit: Option<u64>,
    max_reconnects: u32,
}

/// Sleeps until `pushed` records are due under `rate`, in short slices
/// so a consumer shutdown is noticed promptly.
fn pace(shared: &FeedShared, started: Instant, pushed: u64, rate: u64) {
    let target = StdDuration::from_secs_f64(pushed as f64 / rate.max(1) as f64);
    loop {
        let elapsed = started.elapsed();
        if elapsed >= target || shared.is_closed() {
            return;
        }
        std::thread::sleep((target - elapsed).min(StdDuration::from_millis(20)));
    }
}

/// Pushes the accumulated batch, pacing first when a rate limit is
/// set. Advances the cursor by the records handed over. Returns
/// `false` when the consumer has gone away.
fn flush_batch(
    shared: &FeedShared,
    batch: &mut Vec<PacketRecord>,
    batch_cap: usize,
    cursor: &mut u64,
    resume_from: u64,
    started: Option<Instant>,
    rate_limit: Option<u64>,
) -> bool {
    if batch.is_empty() {
        return true;
    }
    if let (Some(rate), Some(started)) = (rate_limit, started) {
        pace(shared, started, *cursor - resume_from, rate);
        if shared.is_closed() {
            return false;
        }
    }
    let pushed = batch.len() as u64;
    if !shared.push_batch(std::mem::replace(batch, Vec::with_capacity(batch_cap))) {
        return false;
    }
    *cursor += pushed;
    true
}

/// The per-source producer loop: open → fast-forward to the cursor →
/// accumulate a batch → pace → push, reconnecting on failure and
/// abandoning the source after `max_reconnects` consecutive failures
/// without forward progress.
///
/// Unpaced producers (`rate_limit: None`) do **zero** wall-clock work:
/// no `Instant::now()` is ever taken, per record or per batch. Under a
/// rate limit the clock is read once per batch flush, never per record.
fn run_producer(
    mut factory: Box<dyn SourceFactory>,
    shared: &FeedShared,
    resume_from: u64,
    config: ProducerConfig,
) {
    let started = config.rate_limit.map(|_| Instant::now());
    // A full batch must always fit under the queue's record capacity;
    // under pacing, batches shrink to ~20 ms of records so the shaped
    // arrival stays smooth instead of arriving in rate/limit bursts.
    let pace_cap = config
        .rate_limit
        .map_or(usize::MAX, |rate| (rate / 50).max(1) as usize);
    let batch_cap = config.batch_records.min(pace_cap).clamp(1, shared.capacity);
    // Absolute stream position of the next record to push; starts at
    // the restored cursor and only ever grows.
    let mut cursor = resume_from;
    // Highest absolute position any session has reached. A session that
    // pushes past it made real progress, which resets the failure
    // budget — a flaky-but-advancing source is never abandoned.
    let mut best = resume_from;
    let mut failures: u32 = 0;
    let mut batch: Vec<PacketRecord> = Vec::with_capacity(batch_cap);
    loop {
        if shared.is_closed() {
            return;
        }
        if let Ok(mut source) = factory.open() {
            let mut failed_session = false;
            let mut pos: u64 = 0;
            // The reopened stream starts from its beginning: skip what
            // was already delivered.
            while pos < cursor {
                match source.next_record() {
                    Some(Ok(_)) => pos += 1,
                    Some(Err(_)) => {
                        failed_session = true;
                        break;
                    }
                    None => {
                        // The stream shrank below the cursor; nothing
                        // further can be delivered without duplicating.
                        shared.finish(FeedEnd::Eof);
                        return;
                    }
                }
            }
            while !failed_session {
                match source.next_record() {
                    Some(Ok(record)) => {
                        batch.push(record);
                        pos += 1;
                        if batch.len() >= batch_cap {
                            if !flush_batch(
                                shared,
                                &mut batch,
                                batch_cap,
                                &mut cursor,
                                resume_from,
                                started,
                                config.rate_limit,
                            ) {
                                return;
                            }
                            if pos > best {
                                best = pos;
                                failures = 0;
                            }
                        }
                    }
                    Some(Err(_)) => failed_session = true,
                    None => {
                        if !flush_batch(
                            shared,
                            &mut batch,
                            batch_cap,
                            &mut cursor,
                            resume_from,
                            started,
                            config.rate_limit,
                        ) {
                            return;
                        }
                        shared.finish(FeedEnd::Eof);
                        return;
                    }
                }
            }
            // Records read before the failure were delivered by the
            // stream; hand them over so the reconnect skip-count stays
            // exact and nothing is re-read.
            if !flush_batch(
                shared,
                &mut batch,
                batch_cap,
                &mut cursor,
                resume_from,
                started,
                config.rate_limit,
            ) {
                return;
            }
            if pos > best {
                best = pos;
                failures = 0;
            }
        }
        shared.add_drop();
        failures += 1;
        if failures > config.max_reconnects {
            shared.finish(FeedEnd::Dead);
            return;
        }
        shared.add_reconnect();
    }
}

/// Length of the emittable run: the prefix of `slice` (the winning
/// feed `index`'s head batch) ordered strictly before the strongest
/// competing head `(cts, cidx)` in the `(timestamp, source index)`
/// total order. Galloping search: runs are often short when feeds
/// interleave tightly, but can span the whole batch when time ranges
/// are disjoint, so probe exponentially and binary-search the final
/// interval — O(log run), not O(log batch).
fn run_len(slice: &[PacketRecord], index: usize, cts: Timestamp, cidx: usize) -> usize {
    let wins = |r: &PacketRecord| r.ts < cts || (r.ts == cts && index < cidx);
    debug_assert!(wins(&slice[0]), "the popped heap winner must win");
    let n = slice.len();
    let mut bound = 1usize;
    while bound < n && wins(&slice[bound]) {
        bound *= 2;
    }
    let lo = bound / 2 + 1;
    let hi = bound.min(n);
    lo + slice[lo..hi].partition_point(wins)
}

/// N concurrent sources merged into one deterministic record stream.
///
/// Construction spawns one producer thread per source; dropping the set
/// releases and joins them. The set itself implements [`StreamSource`],
/// so it plugs into anything a single source feeds — notably the live
/// engine, which consumes it via `pull_chunk` unchanged (and gets whole
/// runs per heap adjustment, not single records).
#[derive(Debug)]
pub struct SourceSet {
    feeds: Vec<Arc<FeedShared>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// The head batch pulled from each feed but not yet emitted; the
    /// iterator's next element is the feed's merge head.
    heads: Vec<std::vec::IntoIter<PacketRecord>>,
    /// Min-heap over `(head timestamp, source index)`.
    heap: BinaryHeap<Reverse<(Timestamp, usize)>>,
    delivered: Vec<u64>,
    labels: Vec<String>,
    primed: bool,
}

impl SourceSet {
    /// Spawns a set reading every source from its beginning.
    pub fn spawn(factories: Vec<Box<dyn SourceFactory>>, config: &SourceSetConfig) -> SourceSet {
        let cursors = vec![0; factories.len()];
        SourceSet::resume(factories, config, &cursors)
    }

    /// Spawns a set resuming each source past its checkpoint cursor
    /// (records already consumed in a previous run are skipped, not
    /// re-delivered).
    ///
    /// # Panics
    /// When `factories` and `cursors` disagree in length.
    pub fn resume(
        factories: Vec<Box<dyn SourceFactory>>,
        config: &SourceSetConfig,
        cursors: &[u64],
    ) -> SourceSet {
        assert_eq!(
            factories.len(),
            cursors.len(),
            "one resume cursor per source"
        );
        let n = factories.len();
        let mut feeds = Vec::with_capacity(n);
        let mut handles = Vec::with_capacity(n);
        let mut labels = Vec::with_capacity(n);
        for (index, factory) in factories.into_iter().enumerate() {
            labels.push(factory.label());
            let shared = Arc::new(FeedShared::new(config.queue_capacity));
            let producer = ProducerConfig {
                batch_records: config.batch_records.max(1),
                rate_limit: config.rate_limit,
                max_reconnects: config.max_reconnects,
            };
            let feed = Arc::clone(&shared);
            let resume_from = cursors[index];
            handles.push(
                std::thread::Builder::new()
                    .name(format!("qs-source-{index}"))
                    .spawn(move || run_producer(factory, &feed, resume_from, producer))
                    .expect("spawn source producer"),
            );
            feeds.push(shared);
        }
        SourceSet {
            feeds,
            handles,
            heads: (0..n).map(|_| Vec::new().into_iter()).collect(),
            heap: BinaryHeap::with_capacity(n),
            delivered: cursors.to_vec(),
            labels,
            primed: false,
        }
    }

    /// Per-source vantage labels, captured from the factories at spawn
    /// time (one per feed, index-aligned with [`SourceSet::stats`]).
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// Blocks for feed `index`'s next head batch (or its termination)
    /// and re-enters it into the heap.
    fn refill(&mut self, index: usize) {
        if let Some(batch) = self.feeds[index].pop_batch() {
            let iter = batch.into_iter();
            let ts = iter.as_slice()[0].ts;
            self.heads[index] = iter;
            self.heap.push(Reverse((ts, index)));
        }
    }

    /// Waits for the first head batch of every feed (or its
    /// termination) so the merge starts watermark-complete.
    fn prime(&mut self) {
        if self.primed {
            return;
        }
        self.primed = true;
        for index in 0..self.feeds.len() {
            self.refill(index);
        }
    }

    /// Emits up to `max` records into `out` in merged event-time
    /// order, one *run* per heap adjustment: the winning feed's whole
    /// emittable prefix moves in one go. Blocks until every live
    /// source has a head to compare; stops early only when all sources
    /// are exhausted.
    fn merge_into(&mut self, out: &mut Vec<PacketRecord>, max: usize) {
        self.prime();
        while out.len() < max {
            let Some(Reverse((_, index))) = self.heap.pop() else {
                return;
            };
            let competitor = self.heap.peek().map(|&Reverse(pair)| pair);
            let head = &mut self.heads[index];
            let slice = head.as_slice();
            let run = match competitor {
                None => slice.len(),
                Some((cts, cidx)) => run_len(slice, index, cts, cidx),
            };
            let take = run.min(max - out.len());
            out.extend(head.by_ref().take(take));
            self.delivered[index] += take as u64;
            if self.heads[index].as_slice().is_empty() {
                self.refill(index);
            } else {
                let ts = self.heads[index].as_slice()[0].ts;
                self.heap.push(Reverse((ts, index)));
            }
        }
    }

    /// Pulls the next record in merged event-time order, blocking until
    /// every live source has a head to compare. `None` once all sources
    /// are exhausted.
    pub fn next_merged(&mut self) -> Option<PacketRecord> {
        let mut one = Vec::with_capacity(1);
        self.merge_into(&mut one, 1);
        one.pop()
    }

    /// Per-source resume cursors (absolute records delivered), the
    /// payload of a live checkpoint. Records still buffered in a
    /// head batch are *not* counted — only what the consumer actually
    /// pulled — so a checkpoint taken mid-batch restores exactly.
    pub fn cursors(&self) -> Vec<u64> {
        self.delivered.clone()
    }

    /// Total records delivered across all sources — equals the records
    /// the consumer has pulled from the merge.
    pub fn delivered_total(&self) -> u64 {
        self.delivered.iter().sum()
    }

    /// Number of sources in the set.
    pub fn len(&self) -> usize {
        self.feeds.len()
    }

    /// Whether the set has no sources at all.
    pub fn is_empty(&self) -> bool {
        self.feeds.is_empty()
    }

    /// Point-in-time per-source telemetry.
    pub fn stats(&self) -> Vec<SourceStats> {
        self.feeds
            .iter()
            .enumerate()
            .map(|(index, feed)| {
                let mut stats = feed.stats();
                stats.delivered = self.delivered[index];
                // A held head batch left the queue but was not fully
                // emitted yet; count the remainder as buffered so
                // records are conserved.
                stats.queue_depth += self.heads[index].as_slice().len();
                stats
            })
            .collect()
    }
}

impl StreamSource for SourceSet {
    fn next_record(&mut self) -> Option<Result<PacketRecord, CaptureError>> {
        // Source errors are handled inside the producers (reconnect or
        // abandon), so the merged stream itself never yields `Err`.
        self.next_merged().map(Ok)
    }

    fn pull_chunk(&mut self, max: usize) -> Result<Vec<PacketRecord>, CaptureError> {
        // Run-at-a-time emission instead of the default per-record
        // loop: this is the fast path the live engine pumps.
        let mut chunk = Vec::with_capacity(max.min(DEFAULT_BATCH * 4));
        self.merge_into(&mut chunk, max);
        Ok(chunk)
    }
}

impl Drop for SourceSet {
    fn drop(&mut self) {
        for feed in &self.feeds {
            feed.close();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// The synchronous reference merge: the exact `(timestamp, source
/// index)` min-heap [`SourceSet`] runs, stated as a pure function. The
/// multi-source contract is that a `SourceSet` over `sources` delivers
/// precisely this sequence, whatever its batch boundaries.
pub fn merge_records(sources: &[Vec<PacketRecord>]) -> Vec<PacketRecord> {
    let mut cursors = vec![0usize; sources.len()];
    let mut heap: BinaryHeap<Reverse<(Timestamp, usize)>> = sources
        .iter()
        .enumerate()
        .filter_map(|(index, records)| records.first().map(|r| Reverse((r.ts, index))))
        .collect();
    let mut merged = Vec::with_capacity(sources.iter().map(Vec::len).sum());
    while let Some(Reverse((_, index))) = heap.pop() {
        let record = sources[index][cursors[index]].clone();
        cursors[index] += 1;
        if let Some(next) = sources[index].get(cursors[index]) {
            heap.push(Reverse((next.ts, index)));
        }
        merged.push(record);
    }
    merged
}

/// A factory replaying an in-memory record vector (each open clones the
/// backing records, so reconnect-with-resume replays from the start).
/// Labelled `memory`.
#[derive(Debug, Clone)]
pub struct MemoryFactory {
    records: Vec<PacketRecord>,
}

impl SourceFactory for MemoryFactory {
    fn open(&mut self) -> Result<DynSource, CaptureError> {
        Ok(Box::new(MemoryStream::new(self.records.clone())) as DynSource)
    }

    fn label(&self) -> String {
        "memory".to_string()
    }
}

/// Builds a [`MemoryFactory`] over `records`.
pub fn memory_factory(records: Vec<PacketRecord>) -> MemoryFactory {
    MemoryFactory { records }
}

/// A factory reading a `.qscp` capture file through the zero-copy
/// batched decoder. Labelled with the capture path.
///
/// A zero-byte file is treated as an instantly-EOF feed rather than a
/// truncated capture: a vantage point that recorded nothing must drain
/// cleanly inside a multi-source set instead of aborting the run.
#[derive(Debug, Clone)]
pub struct CaptureFileFactory {
    path: PathBuf,
}

impl SourceFactory for CaptureFileFactory {
    fn open(&mut self) -> Result<DynSource, CaptureError> {
        let meta = std::fs::metadata(&self.path)?;
        if meta.is_file() && meta.len() == 0 {
            return Ok(Box::new(MemoryStream::new(Vec::new())) as DynSource);
        }
        Ok(Box::new(crate::zerocopy::ZeroCopyCaptureReader::from_path(
            &self.path,
        )?) as DynSource)
    }

    fn label(&self) -> String {
        self.path.display().to_string()
    }
}

/// Builds a [`CaptureFileFactory`] over the capture at `path`.
pub fn capture_file_factory(path: impl Into<PathBuf>) -> CaptureFileFactory {
    CaptureFileFactory { path: path.into() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TcpFlags;
    use std::net::Ipv4Addr;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn record(ts: u64) -> PacketRecord {
        PacketRecord::tcp(
            Timestamp::from_micros(ts),
            Ipv4Addr::new(10, 0, (ts >> 8) as u8, ts as u8),
            Ipv4Addr::new(192, 0, 2, 1),
            443,
            5000,
            TcpFlags::SYN_ACK,
        )
    }

    fn boxed(factory: impl SourceFactory + 'static) -> Box<dyn SourceFactory> {
        Box::new(factory)
    }

    fn drain(set: &mut SourceSet) -> Vec<PacketRecord> {
        let mut out = Vec::new();
        while let Some(r) = set.next_merged() {
            out.push(r);
        }
        out
    }

    #[test]
    fn merges_in_event_time_order() {
        let a: Vec<_> = [1, 4, 7, 10].iter().map(|&t| record(t)).collect();
        let b: Vec<_> = [2, 3, 8].iter().map(|&t| record(t)).collect();
        let c: Vec<_> = [5, 6, 9].iter().map(|&t| record(t)).collect();
        let splits = vec![a, b, c];
        let reference = merge_records(&splits);
        let mut ts: Vec<u64> = reference.iter().map(|r| r.ts.0).collect();
        ts.sort_unstable();
        assert_eq!(ts, (1..=10).collect::<Vec<_>>());

        let factories = splits
            .iter()
            .map(|s| boxed(memory_factory(s.clone())))
            .collect();
        let mut set = SourceSet::spawn(factories, &SourceSetConfig::default());
        assert_eq!(set.len(), 3);
        assert_eq!(drain(&mut set), reference);
        assert_eq!(set.cursors(), vec![4, 3, 3]);
        let stats = set.stats();
        assert!(stats.iter().all(|s| s.eof && !s.dead));
        assert_eq!(stats.iter().map(|s| s.produced).sum::<u64>(), 10);
        // Each feed fits in one batch at the default target.
        assert!(stats.iter().all(|s| s.batches == 1), "{stats:?}");
    }

    #[test]
    fn equal_timestamps_break_ties_by_source_index() {
        let a: Vec<_> = [5, 5].iter().map(|&t| record(t)).collect();
        let b: Vec<_> = [5].iter().map(|&t| record(t)).collect();
        let merged = merge_records(&[a.clone(), b.clone()]);
        // Source 0 wins ties while it has a head, then source 1.
        assert_eq!(merged, vec![a[0].clone(), a[1].clone(), b[0].clone()]);
    }

    #[test]
    fn run_cutoff_respects_the_tie_rule() {
        let slice: Vec<_> = [1, 2, 3, 3, 4].iter().map(|&t| record(t)).collect();
        // Competitor at ts=3: a lower-indexed winner emits through its
        // own ts=3 records; a higher-indexed winner stops before them.
        assert_eq!(run_len(&slice, 0, Timestamp::from_micros(3), 1), 4);
        assert_eq!(run_len(&slice, 2, Timestamp::from_micros(3), 1), 2);
        // Competitor far in the future: the whole batch is one run.
        assert_eq!(run_len(&slice, 2, Timestamp::from_micros(99), 1), 5);
    }

    #[test]
    fn batch_boundaries_never_change_the_merge() {
        let a: Vec<_> = (0..200).map(|t| record(t * 3)).collect();
        let b: Vec<_> = (0..200).map(|t| record(t * 3 + 1)).collect();
        let splits = vec![a, b];
        let reference = merge_records(&splits);
        for batch_records in [1usize, 2, 7, 4096] {
            let factories = splits
                .iter()
                .map(|s| boxed(memory_factory(s.clone())))
                .collect();
            let config = SourceSetConfig {
                batch_records,
                ..SourceSetConfig::default()
            };
            let mut set = SourceSet::spawn(factories, &config);
            assert_eq!(drain(&mut set), reference, "batch={batch_records}");
        }
    }

    #[test]
    fn tiny_queue_bounds_peak_depth() {
        let records: Vec<_> = (0..500).map(record).collect();
        let factories = vec![boxed(memory_factory(records))];
        let config = SourceSetConfig {
            queue_capacity: 3,
            ..SourceSetConfig::default()
        };
        let mut set = SourceSet::spawn(factories, &config);
        assert_eq!(drain(&mut set).len(), 500);
        let stats = &set.stats()[0];
        assert!(stats.queue_peak <= 3, "peak {}", stats.queue_peak);
        assert_eq!(stats.delivered, 500);
    }

    #[test]
    fn empty_source_is_drained_not_fatal() {
        let records: Vec<_> = (0..20).map(record).collect();
        let factories = vec![
            boxed(memory_factory(records.clone())),
            boxed(memory_factory(Vec::new())),
        ];
        let mut set = SourceSet::spawn(factories, &SourceSetConfig::default());
        assert_eq!(drain(&mut set), records);
        let stats = set.stats();
        assert!(stats[1].eof);
        assert_eq!(stats[1].delivered, 0);
        assert_eq!(stats[1].batches, 0);
    }

    #[test]
    fn failed_opens_retry_then_succeed() {
        let records: Vec<_> = (0..10).map(record).collect();
        let attempts = Arc::new(AtomicU32::new(0));
        let counter = Arc::clone(&attempts);
        let backing = records.clone();
        let flaky = move || -> Result<DynSource, CaptureError> {
            if counter.fetch_add(1, Ordering::SeqCst) < 2 {
                return Err(CaptureError::Io(std::io::Error::new(
                    std::io::ErrorKind::ConnectionRefused,
                    "not up yet",
                )));
            }
            Ok(Box::new(MemoryStream::new(backing.clone())) as DynSource)
        };
        let mut set = SourceSet::spawn(vec![boxed(flaky)], &SourceSetConfig::default());
        assert_eq!(drain(&mut set), records);
        let stats = &set.stats()[0];
        assert_eq!(stats.reconnects, 2);
        assert_eq!(stats.drops, 2);
        assert!(stats.eof && !stats.dead);
    }

    #[test]
    fn forever_failing_source_is_abandoned_and_set_continues() {
        let records: Vec<_> = (0..10).map(record).collect();
        let always_down = move || -> Result<DynSource, CaptureError> {
            Err(CaptureError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "permanently down",
            )))
        };
        let config = SourceSetConfig {
            max_reconnects: 2,
            ..SourceSetConfig::default()
        };
        let factories = vec![boxed(memory_factory(records.clone())), boxed(always_down)];
        let mut set = SourceSet::spawn(factories, &config);
        assert_eq!(drain(&mut set), records);
        let stats = set.stats();
        assert!(stats[1].dead, "{stats:?}");
        assert_eq!(stats[1].reconnects, 2);
        assert_eq!(stats[1].drops, 3);
    }

    #[test]
    fn resume_skips_already_delivered_records() {
        let records: Vec<_> = (0..30).map(record).collect();
        let factories = vec![boxed(memory_factory(records.clone()))];
        let mut set = SourceSet::resume(factories, &SourceSetConfig::default(), &[12]);
        assert_eq!(drain(&mut set), records[12..].to_vec());
        assert_eq!(set.cursors(), vec![30]);
    }

    #[test]
    fn resume_past_the_end_is_clean_eof() {
        let records: Vec<_> = (0..5).map(record).collect();
        let factories = vec![boxed(memory_factory(records))];
        let mut set = SourceSet::resume(factories, &SourceSetConfig::default(), &[99]);
        assert!(set.next_merged().is_none());
        assert!(set.stats()[0].eof);
    }

    #[test]
    fn cursors_exclude_records_held_in_the_head_batch() {
        // Pull a prefix that ends mid-batch: the cursor must count only
        // the emitted records, and the held remainder must show up as
        // buffered depth — the invariant checkpoints rest on.
        let records: Vec<_> = (0..100).map(record).collect();
        let factories = vec![boxed(memory_factory(records.clone()))];
        let mut set = SourceSet::spawn(factories, &SourceSetConfig::default());
        let chunk = set.pull_chunk(37).unwrap();
        assert_eq!(chunk, records[..37].to_vec());
        assert_eq!(set.cursors(), vec![37]);
        let stats = &set.stats()[0];
        assert_eq!(stats.delivered, 37);
        assert_eq!(stats.queue_depth, 63, "held remainder stays buffered");
    }

    #[test]
    fn dropping_a_set_mid_stream_releases_producers() {
        let records: Vec<_> = (0..10_000).map(record).collect();
        let factories = vec![
            boxed(memory_factory(records.clone())),
            boxed(memory_factory(records)),
        ];
        let config = SourceSetConfig {
            queue_capacity: 8,
            ..SourceSetConfig::default()
        };
        let mut set = SourceSet::spawn(factories, &config);
        for _ in 0..50 {
            set.next_merged().unwrap();
        }
        drop(set); // must not hang on the blocked producers
    }

    #[test]
    fn rate_limit_paces_without_changing_the_merge() {
        let records: Vec<_> = (0..40).map(record).collect();
        let splits = vec![
            records.iter().step_by(2).cloned().collect::<Vec<_>>(),
            records.iter().skip(1).step_by(2).cloned().collect(),
        ];
        let reference = merge_records(&splits);
        let factories = splits
            .iter()
            .map(|s| boxed(memory_factory(s.clone())))
            .collect();
        let config = SourceSetConfig {
            rate_limit: Some(2_000),
            ..SourceSetConfig::default()
        };
        let mut set = SourceSet::spawn(factories, &config);
        assert_eq!(drain(&mut set), reference);
    }

    #[test]
    fn source_set_is_a_stream_source() {
        let records: Vec<_> = (0..25).map(record).collect();
        let factories = vec![boxed(memory_factory(records.clone()))];
        let mut set = SourceSet::spawn(factories, &SourceSetConfig::default());
        let chunk = set.pull_chunk(7).unwrap();
        assert_eq!(chunk, records[..7].to_vec());
    }

    #[test]
    fn labels_are_captured_per_feed_at_spawn() {
        let records: Vec<_> = (0..5).map(record).collect();
        let path = std::path::PathBuf::from("/tmp/vantage-a.qscp");
        let factories: Vec<Box<dyn SourceFactory>> = vec![
            boxed(memory_factory(records)),
            boxed(capture_file_factory(&path)),
            boxed(|| -> Result<DynSource, CaptureError> {
                Ok(Box::new(MemoryStream::new(Vec::new())) as DynSource)
            }),
        ];
        let set = SourceSet::spawn(factories, &SourceSetConfig::default());
        assert_eq!(
            set.labels(),
            [
                "memory".to_string(),
                path.display().to_string(),
                "unnamed".to_string()
            ]
        );
    }

    #[test]
    fn capture_file_factory_treats_empty_file_as_eof() {
        let path = std::env::temp_dir().join(format!(
            "qs-multi-empty-{}-{:?}.qscp",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::write(&path, b"").unwrap();
        let mut factory = capture_file_factory(&path);
        let mut source = factory.open().expect("empty capture tolerated");
        assert!(source.next_record().is_none());
        std::fs::remove_file(&path).ok();
    }
}

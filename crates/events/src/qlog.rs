//! qlog JSON-SEQ export (RFC 7464 framing, qlog 0.4 shape).
//!
//! One file is one run: a header record describing the trace (with one
//! vantage entry per ingest feed), then one record per event —
//! `{"time", "name", "data"}` with millisecond times relative to the
//! simulation epoch. Every record is framed as
//! `0x1E <json> 0x0A` per RFC 7464, which is what qlog's `JSON-SEQ`
//! format and its streaming readers expect: a crashed run still leaves
//! every completed record parseable.

use crate::{Event, EventMeta, Subscriber};
use quicsand_net::Timestamp;
use serde::{Compound, Serialize, Serializer, Value};
use std::io::Write;
use std::sync::{Arc, Mutex};

/// RFC 7464 record separator.
pub const RECORD_SEPARATOR: u8 = 0x1E;

/// The qlog version this writer emits.
pub const QLOG_VERSION: &str = "0.4";

/// A shared in-memory sink for tests and golden snapshots.
#[derive(Debug, Clone, Default)]
pub struct SharedBuffer(Arc<Mutex<Vec<u8>>>);

impl SharedBuffer {
    /// The bytes written so far.
    pub fn contents(&self) -> Vec<u8> {
        self.0.lock().expect("buffer lock").clone()
    }
}

impl Write for SharedBuffer {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Serializes pipeline events as qlog JSON-SEQ.
///
/// Construction writes the header record immediately, so a run that
/// emits zero events still leaves a valid (header-only) qlog file —
/// and an unwritable path fails at construction, before any ingest
/// work happens. I/O errors during the run are latched and surfaced by
/// [`QlogWriter::finish`], so the hot emission path never panics.
pub struct QlogWriter {
    out: Box<dyn Write + Send>,
    events_written: u64,
    bytes_written: u64,
    error: Option<String>,
}

impl std::fmt::Debug for QlogWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QlogWriter")
            .field("events_written", &self.events_written)
            .field("bytes_written", &self.bytes_written)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl QlogWriter {
    /// Wraps an arbitrary sink and writes the header record. `vantage`
    /// carries one label per ingest feed (file paths for captures).
    pub fn new(
        out: Box<dyn Write + Send>,
        title: &str,
        vantage: &[String],
    ) -> Result<Self, String> {
        let mut writer = QlogWriter {
            out,
            events_written: 0,
            bytes_written: 0,
            error: None,
        };
        let header = header_value(title, vantage);
        writer.write_record(&header)?;
        Ok(writer)
    }

    /// Creates (truncates) `path` and writes the header record —
    /// failing here, up front, if the path is unwritable.
    pub fn create(path: &str, title: &str, vantage: &[String]) -> Result<Self, String> {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("events-out {path}: cannot create qlog file: {e}"))?;
        Self::new(Box::new(std::io::BufWriter::new(file)), title, vantage)
    }

    /// A writer over a shared in-memory buffer (tests, goldens).
    pub fn to_buffer(title: &str, vantage: &[String]) -> Result<(Self, SharedBuffer), String> {
        let buffer = SharedBuffer::default();
        let writer = Self::new(Box::new(buffer.clone()), title, vantage)?;
        Ok((writer, buffer))
    }

    fn write_record<T: Serialize>(&mut self, value: &T) -> Result<(), String> {
        let json = serde_json::to_string(value).map_err(|e| format!("qlog encode: {e}"))?;
        let write = |out: &mut dyn Write| -> std::io::Result<()> {
            out.write_all(&[RECORD_SEPARATOR])?;
            out.write_all(json.as_bytes())?;
            out.write_all(b"\n")
        };
        write(self.out.as_mut()).map_err(|e| format!("qlog write: {e}"))?;
        self.bytes_written += json.len() as u64 + 2;
        Ok(())
    }

    /// Appends one record outside the typed event taxonomy — the
    /// forensic slice writer uses this for its `quicsand:slice_*`
    /// records. The name must stay in the `quicsand:` namespace for the
    /// file to validate. Errors are latched exactly like an event's.
    pub fn raw_record(&mut self, at: Timestamp, name: &str, data: &impl Serialize) {
        self.append(&EventRecord {
            at,
            name,
            data,
            record_index: None,
        });
    }

    /// Appends one record. Errors are latched for
    /// [`QlogWriter::finish`] rather than propagated per record.
    fn append<T: Serialize>(&mut self, record: &EventRecord<'_, T>) {
        if self.error.is_some() {
            return;
        }
        match self.write_record(record) {
            Ok(()) => self.events_written += 1,
            Err(e) => self.error = Some(e),
        }
    }

    /// Events written so far (header excluded).
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Bytes written so far (framing included).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written
    }

    /// Flushes and returns `(events, bytes)` written, or the first
    /// latched I/O error.
    pub fn finish(mut self) -> Result<(u64, u64), String> {
        if let Some(error) = self.error.take() {
            return Err(error);
        }
        self.out.flush().map_err(|e| format!("qlog flush: {e}"))?;
        Ok((self.events_written, self.bytes_written))
    }
}

impl Subscriber for QlogWriter {
    fn on(&mut self, meta: EventMeta, event: Event) {
        self.append(&EventRecord {
            at: event.at(),
            name: event.name(),
            data: &event,
            record_index: meta.record_index,
        });
    }
}

/// One `{"time", "name", "data"[, "record_index"]}` event record, its
/// payload written straight from its type; `record_index` is left out
/// when there is none.
struct EventRecord<'a, T> {
    at: Timestamp,
    name: &'a str,
    data: &'a T,
    record_index: Option<u64>,
}

impl<T: Serialize> Serialize for EventRecord<'_, T> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let fields = 3 + usize::from(self.record_index.is_some());
        let mut record = serializer.serialize_map(fields)?;
        record.entry("time", &(self.at.as_micros() as f64 / 1_000.0))?;
        record.entry("name", self.name)?;
        record.entry("data", self.data)?;
        if let Some(index) = &self.record_index {
            record.entry("record_index", index)?;
        }
        record.end()
    }
}

/// The qlog header record: version, framing format, and one trace with
/// per-feed vantage metadata.
fn header_value(title: &str, vantage: &[String]) -> Value {
    let vantage_point = Value::Map(vec![
        (
            "name".to_string(),
            Value::Str("quicsand-telescope".to_string()),
        ),
        ("type".to_string(), Value::Str("network".to_string())),
        (
            "feeds".to_string(),
            Value::Seq(vantage.iter().map(|v| Value::Str(v.clone())).collect()),
        ),
    ]);
    let common_fields = Value::Map(vec![
        (
            "time_format".to_string(),
            Value::Str("relative".to_string()),
        ),
        ("reference_time".to_string(), Value::F64(0.0)),
    ]);
    let trace = Value::Map(vec![
        ("vantage_point".to_string(), vantage_point),
        ("common_fields".to_string(), common_fields),
    ]);
    Value::Map(vec![
        (
            "qlog_version".to_string(),
            Value::Str(QLOG_VERSION.to_string()),
        ),
        (
            "qlog_format".to_string(),
            Value::Str("JSON-SEQ".to_string()),
        ),
        ("title".to_string(), Value::Str(title.to_string())),
        ("trace".to_string(), trace),
    ])
}

/// Parses an RFC 7464 JSON-SEQ byte stream into its records.
///
/// Strict on framing: the stream must start with a record separator,
/// every record must end with a line feed, and every record body must
/// be one valid JSON value.
pub fn parse_json_seq(bytes: &[u8]) -> Result<Vec<Value>, String> {
    if bytes.is_empty() {
        return Err("empty stream (a valid qlog file has at least the header record)".into());
    }
    if bytes[0] != RECORD_SEPARATOR {
        return Err(format!(
            "stream does not start with the RFC 7464 record separator (0x1E), got 0x{:02X}",
            bytes[0]
        ));
    }
    let mut records = Vec::new();
    for (i, chunk) in bytes.split(|&b| b == RECORD_SEPARATOR).enumerate() {
        if i == 0 {
            // The split's leading empty piece before the first separator.
            if !chunk.is_empty() {
                return Err("bytes before the first record separator".into());
            }
            continue;
        }
        let Some(body) = chunk.strip_suffix(b"\n") else {
            return Err(format!("record {i} is not terminated by a line feed"));
        };
        let text =
            std::str::from_utf8(body).map_err(|e| format!("record {i} is not valid UTF-8: {e}"))?;
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("record {i} is not valid JSON: {e}"))?;
        records.push(value);
    }
    Ok(records)
}

/// Summary of a validated qlog JSON-SEQ file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QlogSummary {
    /// Total records including the header.
    pub records: usize,
    /// Event records (header excluded).
    pub events: usize,
}

/// Validates framing and qlog shape: RFC 7464 records, a well-formed
/// header first, and `time` + `name` members on every event record.
pub fn validate_qlog(bytes: &[u8]) -> Result<QlogSummary, String> {
    let records = parse_qlog(bytes)?;
    Ok(QlogSummary {
        records: records.len(),
        events: records.len() - 1,
    })
}

/// Parses a qlog JSON-SEQ file into its records, validated as
/// [`validate_qlog`] does, header first.
pub fn parse_qlog(bytes: &[u8]) -> Result<Vec<Value>, String> {
    let records = parse_json_seq(bytes)?;
    let Some(header) = records.first() else {
        return Err("no header record".into());
    };
    match header.get("qlog_version") {
        Some(Value::Str(v)) if v == QLOG_VERSION => {}
        other => {
            return Err(format!(
                "header qlog_version is not {QLOG_VERSION:?}: {other:?}"
            ))
        }
    }
    match header.get("qlog_format") {
        Some(Value::Str(v)) if v == "JSON-SEQ" => {}
        other => return Err(format!("header qlog_format is not \"JSON-SEQ\": {other:?}")),
    }
    if header
        .get("trace")
        .and_then(|t| t.get("vantage_point"))
        .is_none()
    {
        return Err("header trace carries no vantage_point".into());
    }
    for (i, record) in records.iter().enumerate().skip(1) {
        if !matches!(record.get("time"), Some(Value::F64(_) | Value::U64(_))) {
            return Err(format!("event record {i} has no numeric time"));
        }
        match record.get("name") {
            Some(Value::Str(name)) if name.starts_with("quicsand:") => {}
            other => {
                return Err(format!(
                    "event record {i} has no quicsand-namespaced name: {other:?}"
                ))
            }
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SessionOpened, WireRejected};
    use quicsand_net::Timestamp;
    use std::net::Ipv4Addr;

    fn feeds() -> Vec<String> {
        vec!["a.qscp".to_string(), "b.qscp".to_string()]
    }

    #[test]
    fn zero_event_run_yields_a_valid_header_only_file() {
        let (writer, buffer) = QlogWriter::to_buffer("empty run", &feeds()).expect("writer");
        let (events, bytes) = writer.finish().expect("finish");
        assert_eq!(events, 0);
        let contents = buffer.contents();
        assert_eq!(bytes as usize, contents.len());
        let summary = validate_qlog(&contents).expect("valid");
        assert_eq!(
            summary,
            QlogSummary {
                records: 1,
                events: 0
            }
        );
    }

    #[test]
    fn events_round_trip_through_framing() {
        let (mut writer, buffer) = QlogWriter::to_buffer("run", &feeds()).expect("writer");
        writer.on(
            EventMeta::record(5),
            Event::SessionOpened(SessionOpened {
                at: Timestamp::from_secs(3),
                src: Ipv4Addr::new(10, 0, 0, 1),
                channel: "quic".into(),
            }),
        );
        writer.on(
            EventMeta::record(6),
            Event::WireRejected(WireRejected {
                at: Timestamp::from_secs(4),
                reason: "truncated".into(),
            }),
        );
        let (events, _) = writer.finish().expect("finish");
        assert_eq!(events, 2);

        let contents = buffer.contents();
        let summary = validate_qlog(&contents).expect("valid");
        assert_eq!(summary.events, 2);
        let records = parse_json_seq(&contents).expect("parse");
        assert_eq!(
            records[1].get("name"),
            Some(&Value::Str("quicsand:session_opened".to_string()))
        );
        assert_eq!(records[1].get("record_index"), Some(&Value::U64(5)));
        let data = records[1].get("data").expect("data");
        assert_eq!(data.get("channel"), Some(&Value::Str("quic".to_string())));
        // Header carries the per-feed vantage labels.
        let feeds_value = records[0]
            .get("trace")
            .and_then(|t| t.get("vantage_point"))
            .and_then(|v| v.get("feeds"))
            .expect("feeds");
        assert_eq!(feeds_value.as_seq().map(<[Value]>::len), Some(2));
    }

    #[test]
    fn a_writer_fed_through_option_writes_the_same_bytes() {
        let events = [
            (EventMeta::lifecycle(), "quic"),
            (EventMeta::record(9), "tcp_icmp"),
        ]
        .map(|(meta, channel)| {
            let event = Event::SessionOpened(SessionOpened {
                at: Timestamp::from_micros(2_500),
                src: Ipv4Addr::new(10, 0, 0, 7),
                channel: channel.into(),
            });
            (meta, event)
        });
        let (mut direct, direct_bytes) = QlogWriter::to_buffer("run", &feeds()).expect("writer");
        let (wrapped, wrapped_bytes) = QlogWriter::to_buffer("run", &feeds()).expect("writer");
        let mut wrapped = Some(wrapped);
        for (meta, event) in events {
            direct.on(meta, event.clone());
            wrapped.on(meta, event);
        }
        let direct = direct.finish().expect("finish");
        let wrapped = wrapped.expect("some").finish().expect("finish");
        assert_eq!(direct, (2, direct_bytes.contents().len() as u64));
        assert_eq!(wrapped, direct);
        assert_eq!(wrapped_bytes.contents(), direct_bytes.contents());
    }

    #[test]
    fn framing_violations_are_rejected() {
        assert!(parse_json_seq(b"").is_err());
        assert!(parse_json_seq(b"{}\n").is_err(), "missing separator");
        assert!(
            parse_json_seq(&[RECORD_SEPARATOR, b'{', b'}']).is_err(),
            "missing trailing LF"
        );
        assert!(
            parse_json_seq(&[RECORD_SEPARATOR, b'n', b'o', b'\n']).is_err(),
            "invalid JSON body"
        );
        let mut good = vec![RECORD_SEPARATOR];
        good.extend_from_slice(b"{\"a\":1}\n");
        assert_eq!(parse_json_seq(&good).expect("parses").len(), 1);
        // Valid JSON-SEQ but not qlog: no header members.
        assert!(validate_qlog(&good).is_err());
    }

    #[test]
    fn a_record_of_hostile_nesting_is_an_error_not_a_stack_overflow() {
        let mut deep = vec![RECORD_SEPARATOR];
        deep.resize(1_000_000, b'[');
        deep.push(b'\n');
        let error = parse_json_seq(&deep).expect_err("a megabyte of open brackets");
        assert!(error.contains("record 1 is not valid JSON"), "{error}");
        assert!(error.contains("nesting deeper than 128"), "{error}");
    }
}

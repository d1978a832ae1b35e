//! # quicsand-net
//!
//! Deterministic network-simulation substrate for the QUICsand
//! reproduction.
//!
//! The paper's measurement apparatus is a passive /9 telescope plus a
//! local testbed. Both reproductions stand on this crate:
//!
//! * [`time`] — microsecond timestamps and durations in virtual time;
//!   every simulation is fully deterministic and wall-clock independent.
//! * [`ip`] — IPv4 prefixes, subnet arithmetic and address sampling
//!   (the `/9` telescope covers 1/512 of the address space; spoofed
//!   floods land in it with exactly that probability).
//! * [`record`] — layer-3/4 packet records, the unit the telescope
//!   stores and the analyses consume (pcap stand-in).
//! * [`capture`] — a length-prefixed binary capture format with
//!   streaming reader/writer, so scenarios can be persisted and replayed.
//! * [`l3`] — IPv4/UDP/TCP/ICMP header serialization with checksums,
//!   so records can be lowered to real wire bytes.
//! * [`pcap`] — classic libpcap export (LINKTYPE_RAW), opening every
//!   capture in Wireshark — the paper's §4.1 dissection tool.
//! * [`rng`] — seed-splitting helpers so every subsystem gets an
//!   independent, reproducible ChaCha stream.
//! * [`stream`] — pull-based [`stream::StreamSource`] adapters that
//!   feed the live detection engine from a capture replay or an
//!   in-memory scenario.
//! * [`zerocopy`] — arena-backed batched capture decoding: records
//!   decoded against one file-sized buffer, one bounds check per record,
//!   UDP payloads handed out as zero-copy views (the ingest hot path).
//! * [`multi`] — N concurrent sources behind bounded backpressure
//!   queues, merged into one deterministic watermark-aligned stream
//!   ([`multi::SourceSet`]) with reconnect-with-resume on failure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capture;
pub mod ip;
pub mod l3;
pub mod multi;
pub mod pcap;
pub mod record;
pub mod rng;
pub mod stream;
pub mod time;
pub mod zerocopy;

pub use ip::Ipv4Prefix;
pub use multi::{
    capture_file_factory, memory_factory, merge_records, DynSource, SourceFactory, SourceSet,
    SourceSetConfig, SourceStats,
};
pub use record::{IcmpKind, PacketRecord, TcpFlags, Transport};
pub use stream::{MemoryStream, StreamSource};
pub use time::{Duration, Timestamp};
pub use zerocopy::{RecordBatch, ZeroCopyCaptureReader};

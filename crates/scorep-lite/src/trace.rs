//! OTF2-style binary traces.
//!
//! Score-P writes application traces in the Open Trace Format 2: a stream
//! of chronologically-ordered enter/leave records with attached metric
//! values (Section IV-A: "performance metrics and energy values are
//! recorded only at entry and exit of a region"). This module implements a
//! compact big-endian binary encoding with a writer/reader pair plus the
//! region-definition table, faithful in spirit to OTF2's
//! definitions-plus-events layout.

use simnode::papi::{CounterValues, PapiCounter};

use crate::region::{RegionId, RegionRegistry};

/// Trace format magic ("OTF2-lite").
const MAGIC: u32 = 0x0721_F21E;
/// Format version.
const VERSION: u16 = 1;

const TAG_ENTER: u8 = 1;
const TAG_LEAVE: u8 = 2;

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// Region entry at `t_ns` nanoseconds since trace start.
    Enter {
        /// Region entered.
        region: RegionId,
        /// Timestamp, ns.
        t_ns: u64,
    },
    /// Region exit with the metrics sampled over the instance.
    Leave {
        /// Region left.
        region: RegionId,
        /// Timestamp, ns.
        t_ns: u64,
        /// Node energy consumed by the instance (HDEEM metric plugin), J.
        node_energy_j: f64,
        /// PAPI counters for the instance, if counter recording was on.
        counters: Option<CounterValues>,
    },
}

impl TraceEvent {
    /// Timestamp of the event.
    pub fn t_ns(&self) -> u64 {
        match self {
            TraceEvent::Enter { t_ns, .. } | TraceEvent::Leave { t_ns, .. } => *t_ns,
        }
    }
}

/// An in-memory trace: definitions plus an event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct Otf2Trace {
    /// Region definitions.
    pub registry: RegionRegistry,
    /// Chronological events.
    pub events: Vec<TraceEvent>,
}

/// Streaming trace writer.
#[derive(Debug, Default)]
pub struct TraceWriter {
    registry: RegionRegistry,
    events: Vec<TraceEvent>,
    last_t_ns: u64,
}

impl TraceWriter {
    /// New empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern a region name.
    ///
    /// # Panics
    /// Panics if the name is longer than 65535 bytes (the binary format
    /// stores a name's length in 16 bits).
    pub fn define_region(&mut self, name: &str) -> RegionId {
        assert!(
            name.len() <= u16::MAX as usize,
            "region name of {} bytes exceeds the 65535-byte limit",
            name.len()
        );
        self.registry.intern(name)
    }

    /// Append an enter record.
    ///
    /// # Panics
    /// Panics if timestamps go backwards (OTF2 requires chronological
    /// order).
    pub fn enter(&mut self, region: RegionId, t_ns: u64) {
        assert!(t_ns >= self.last_t_ns, "non-chronological enter at {t_ns}");
        self.last_t_ns = t_ns;
        self.events.push(TraceEvent::Enter { region, t_ns });
    }

    /// Append a leave record with metrics.
    ///
    /// # Panics
    /// Panics if timestamps go backwards.
    pub fn leave(
        &mut self,
        region: RegionId,
        t_ns: u64,
        node_energy_j: f64,
        counters: Option<CounterValues>,
    ) {
        assert!(t_ns >= self.last_t_ns, "non-chronological leave at {t_ns}");
        self.last_t_ns = t_ns;
        self.events.push(TraceEvent::Leave {
            region,
            t_ns,
            node_energy_j,
            counters,
        });
    }

    /// Number of events recorded so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Finish writing, producing the in-memory trace.
    pub fn finish(self) -> Otf2Trace {
        Otf2Trace {
            registry: self.registry,
            events: self.events,
        }
    }
}

impl Otf2Trace {
    /// Serialise to the binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.events.len() * 32);
        buf.extend_from_slice(&MAGIC.to_be_bytes());
        buf.extend_from_slice(&VERSION.to_be_bytes());
        // Definitions: region table.
        buf.extend_from_slice(&(self.registry.len() as u32).to_be_bytes());
        for (_, name, _) in self.registry.iter() {
            let b = name.as_bytes();
            buf.extend_from_slice(&(b.len() as u16).to_be_bytes());
            buf.extend_from_slice(b);
        }
        // Events.
        buf.extend_from_slice(&(self.events.len() as u64).to_be_bytes());
        for ev in &self.events {
            match ev {
                TraceEvent::Enter { region, t_ns } => {
                    buf.push(TAG_ENTER);
                    buf.extend_from_slice(&region.0.to_be_bytes());
                    buf.extend_from_slice(&t_ns.to_be_bytes());
                }
                TraceEvent::Leave {
                    region,
                    t_ns,
                    node_energy_j,
                    counters,
                } => {
                    buf.push(TAG_LEAVE);
                    buf.extend_from_slice(&region.0.to_be_bytes());
                    buf.extend_from_slice(&t_ns.to_be_bytes());
                    buf.extend_from_slice(&node_energy_j.to_be_bytes());
                    match counters {
                        Some(c) => {
                            buf.push(1);
                            for &v in c.as_slice() {
                                buf.extend_from_slice(&v.to_be_bytes());
                            }
                        }
                        None => buf.push(0),
                    }
                }
            }
        }
        buf
    }
}

/// Errors from trace deserialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Wrong magic number — not an OTF2-lite trace.
    BadMagic,
    /// Unsupported version.
    BadVersion(u16),
    /// Stream ended unexpectedly.
    Truncated,
    /// Unknown record tag.
    BadTag(u8),
    /// Region name was not valid UTF-8.
    BadName,
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::BadMagic => write!(f, "bad trace magic"),
            TraceError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::Truncated => write!(f, "truncated trace"),
            TraceError::BadTag(t) => write!(f, "unknown record tag {t}"),
            TraceError::BadName => write!(f, "region name not UTF-8"),
        }
    }
}

impl std::error::Error for TraceError {}

/// Big-endian reader over a borrowed buffer. Every read checks that
/// enough bytes remain, so a short buffer is [`TraceError::Truncated`].
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TraceError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(TraceError::Truncated)?;
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], TraceError> {
        let (head, rest) = self
            .0
            .split_first_chunk::<N>()
            .ok_or(TraceError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, TraceError> {
        self.array().map(u8::from_be_bytes)
    }

    fn u16(&mut self) -> Result<u16, TraceError> {
        self.array().map(u16::from_be_bytes)
    }

    fn u32(&mut self) -> Result<u32, TraceError> {
        self.array().map(u32::from_be_bytes)
    }

    fn u64(&mut self) -> Result<u64, TraceError> {
        self.array().map(u64::from_be_bytes)
    }

    fn f64(&mut self) -> Result<f64, TraceError> {
        self.array().map(f64::from_be_bytes)
    }
}

/// Trace deserialiser.
#[derive(Debug)]
pub struct TraceReader;

impl TraceReader {
    /// Parse a binary trace.
    pub fn read(data: &[u8]) -> Result<Otf2Trace, TraceError> {
        use TraceError::*;
        // A buffer too short for the whole header is truncated, whatever
        // its first bytes say.
        if data.len() < 6 {
            return Err(Truncated);
        }
        let mut data = Cursor(data);
        if data.u32()? != MAGIC {
            return Err(BadMagic);
        }
        let version = data.u16()?;
        if version != VERSION {
            return Err(BadVersion(version));
        }
        let nregions = data.u32()?;
        let mut registry = RegionRegistry::new();
        for _ in 0..nregions {
            let len = data.u16()? as usize;
            let name = std::str::from_utf8(data.take(len)?).map_err(|_| BadName)?;
            registry.intern(name);
        }
        let nevents = data.u64()?;
        // Every record is at least 13 bytes (an enter), which bounds what a
        // corrupt count can make us allocate.
        let mut events = Vec::with_capacity(nevents.min(data.0.len() as u64 / 13) as usize);
        for _ in 0..nevents {
            match data.u8()? {
                TAG_ENTER => {
                    let region = RegionId(data.u32()?);
                    let t_ns = data.u64()?;
                    events.push(TraceEvent::Enter { region, t_ns });
                }
                TAG_LEAVE => {
                    let region = RegionId(data.u32()?);
                    let t_ns = data.u64()?;
                    let node_energy_j = data.f64()?;
                    let counters = match data.u8()? {
                        0 => None,
                        _ => {
                            let mut c = CounterValues::zeros();
                            for &counter in PapiCounter::all() {
                                c.set(counter, data.f64()?);
                            }
                            Some(c)
                        }
                    };
                    events.push(TraceEvent::Leave {
                        region,
                        t_ns,
                        node_energy_j,
                        counters,
                    });
                }
                t => return Err(BadTag(t)),
            }
        }
        Ok(Otf2Trace { registry, events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace(with_counters: bool) -> Otf2Trace {
        let mut w = TraceWriter::new();
        let phase = w.define_region("PHASE");
        let a = w.define_region("regionA");
        w.enter(phase, 0);
        w.enter(a, 10);
        let counters = with_counters.then(|| {
            let mut c = CounterValues::zeros();
            c.set(PapiCounter::TotIns, 123.0);
            c.set(PapiCounter::LdIns, 45.0);
            c
        });
        w.leave(a, 1_000_000, 55.5, counters);
        w.leave(phase, 1_100_000, 60.0, None);
        w.finish()
    }

    #[test]
    fn round_trip_without_counters() {
        let t = sample_trace(false);
        let back = TraceReader::read(&t.to_bytes()).expect("parse");
        assert_eq!(t, back);
    }

    #[test]
    fn round_trip_with_counters() {
        let t = sample_trace(true);
        let back = TraceReader::read(&t.to_bytes()).expect("parse");
        assert_eq!(t, back);
        if let TraceEvent::Leave {
            counters: Some(c), ..
        } = &back.events[2]
        {
            assert_eq!(c.get(PapiCounter::TotIns), 123.0);
        } else {
            panic!("expected leave with counters");
        }
    }

    #[test]
    fn chronological_order_enforced() {
        let mut w = TraceWriter::new();
        let r = w.define_region("x");
        w.enter(r, 100);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            w.enter(r, 50);
        }));
        assert!(result.is_err(), "backwards timestamp must panic");
    }

    #[test]
    fn longest_region_name_round_trips() {
        let mut w = TraceWriter::new();
        let r = w.define_region(&"n".repeat(u16::MAX as usize));
        w.enter(r, 0);
        w.leave(r, 10, 1.0, None);
        let t = w.finish();
        assert_eq!(TraceReader::read(&t.to_bytes()), Ok(t));
    }

    #[test]
    #[should_panic(expected = "exceeds the 65535-byte limit")]
    fn overlong_region_name_panics_at_definition() {
        TraceWriter::new().define_region(&"n".repeat(u16::MAX as usize + 1));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample_trace(false).to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(TraceReader::read(&bytes), Err(TraceError::BadMagic));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = sample_trace(true).to_bytes();
        for len in 0..bytes.len() {
            assert_eq!(
                TraceReader::read(&bytes[..len]),
                Err(TraceError::Truncated),
                "prefix of {len} of {} bytes",
                bytes.len()
            );
        }
    }

    #[test]
    fn byte_format_is_golden() {
        // FNV-1a of the encodings pins the byte format: traces written by
        // an earlier build must still read.
        let hash = |t: Otf2Trace| kernels::Fnv1a::new().update(&t.to_bytes()).finish();
        assert_eq!(hash(sample_trace(true)), 0x59ff_85b2_4ee0_08b3);
        assert_eq!(hash(sample_trace(false)), 0xd8fa_a01e_2b71_0100);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = TraceWriter::new().finish();
        let back = TraceReader::read(&t.to_bytes()).expect("parse");
        assert!(back.events.is_empty());
        assert!(back.registry.is_empty());
    }

    #[test]
    fn error_display() {
        assert!(format!("{}", TraceError::BadVersion(9)).contains('9'));
        assert!(format!("{}", TraceError::BadTag(7)).contains('7'));
    }
}

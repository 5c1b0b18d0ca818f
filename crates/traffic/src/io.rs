//! Trace file I/O.
//!
//! The paper's workflow is trace-file centric: the full-system simulator
//! writes per-core traffic records, the network simulator replays them.
//! This module gives traces two durable representations:
//!
//! * **JSON** — self-describing, diffable, slow; for small traces and
//!   debugging.
//! * **DZTR binary** — a compact little-endian record format for real
//!   campaigns (16 bytes/packet + header), ~20× smaller than JSON.
//!
//! Both round-trip exactly (see the property tests).

use std::io::{self, Read, Write};
use std::path::Path;

use dozznoc_types::{CoreId, Packet, PacketId, PacketKind, SimTime};

use crate::trace::Trace;

/// Magic bytes of the binary trace format.
pub const DZTR_MAGIC: [u8; 4] = *b"DZTR";
/// Current binary format version.
pub const DZTR_VERSION: u16 = 1;

/// Errors while reading a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Not a DZTR file, or a corrupt/truncated one.
    Format(String),
    /// JSON parse failure.
    Json(String),
}

impl core::fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceIoError::Format(m) => write!(f, "bad trace file: {m}"),
            TraceIoError::Json(m) => write!(f, "bad trace json: {m}"),
        }
    }
}

impl std::error::Error for TraceIoError {}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

/// Serialize a trace as pretty JSON.
pub fn to_json(trace: &Trace) -> String {
    serde_json::to_string_pretty(trace).expect("traces always serialize")
}

/// Reject what [`Trace::new`] asserts against: an implausible core
/// count, or a record whose source or destination is out of range or
/// whose source is its own destination. Both codecs check here before
/// building the trace, so a bad file is an error, never a panic.
fn check_records(num_cores: usize, packets: &[Packet]) -> Result<(), TraceIoError> {
    if num_cores == 0 || num_cores > usize::from(u16::MAX) {
        return Err(TraceIoError::Format(format!(
            "implausible core count {num_cores}"
        )));
    }
    for p in packets {
        let (src, dst) = (p.src.idx(), p.dst.idx());
        if src >= num_cores || dst >= num_cores || src == dst {
            return Err(TraceIoError::Format(format!(
                "invalid record: src {src}, dst {dst}, cores {num_cores}"
            )));
        }
    }
    Ok(())
}

/// Parse a trace from JSON, re-validating the invariants.
pub fn from_json(json: &str) -> Result<Trace, TraceIoError> {
    let raw: Trace = serde_json::from_str(json).map_err(|e| TraceIoError::Json(e.to_string()))?;
    check_records(raw.num_cores, raw.packets())?;
    // Rebuild through the constructor (sorting, id density) so
    // hand-edited files can't smuggle unsorted records in.
    Ok(Trace::new(
        raw.name.clone(),
        raw.num_cores,
        raw.packets().to_vec(),
    ))
}

/// Write the binary DZTR representation.
///
/// Layout (little-endian):
/// ```text
/// magic "DZTR" | u16 version | u16 name_len | name bytes
/// u32 num_cores | u64 packet count
/// per packet: u64 inject_ticks | u16 src | u16 dst | u8 kind | 3 pad
/// ```
pub fn write_binary<W: Write>(trace: &Trace, w: &mut W) -> io::Result<()> {
    w.write_all(&DZTR_MAGIC)?;
    w.write_all(&DZTR_VERSION.to_le_bytes())?;
    let name = trace.name.as_bytes();
    let name_len = u16::try_from(name.len()).unwrap_or(u16::MAX);
    w.write_all(&name_len.to_le_bytes())?;
    w.write_all(&name[..name_len as usize])?;
    w.write_all(&(trace.num_cores as u32).to_le_bytes())?;
    w.write_all(&(trace.len() as u64).to_le_bytes())?;
    for p in trace.packets() {
        w.write_all(&p.inject_time.ticks().to_le_bytes())?;
        w.write_all(&p.src.0.to_le_bytes())?;
        w.write_all(&p.dst.0.to_le_bytes())?;
        let kind = match p.kind {
            PacketKind::Request => 0u8,
            PacketKind::Response => 1u8,
        };
        w.write_all(&[kind, 0, 0, 0])?;
    }
    Ok(())
}

/// Read a binary DZTR trace.
pub fn read_binary<R: Read>(r: &mut R) -> Result<Trace, TraceIoError> {
    fn take<const N: usize>(r: &mut impl Read) -> Result<[u8; N], TraceIoError> {
        let mut buf = [0u8; N];
        r.read_exact(&mut buf)?;
        Ok(buf)
    }
    let magic: [u8; 4] = take(r)?;
    if magic != DZTR_MAGIC {
        return Err(TraceIoError::Format("missing DZTR magic".into()));
    }
    let version = u16::from_le_bytes(take(r)?);
    if version != DZTR_VERSION {
        return Err(TraceIoError::Format(format!(
            "unsupported version {version}"
        )));
    }
    let name_len = u16::from_le_bytes(take(r)?) as usize;
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = String::from_utf8(name)
        .map_err(|_| TraceIoError::Format("trace name is not UTF-8".into()))?;
    let num_cores = u32::from_le_bytes(take(r)?) as usize;
    let count = u64::from_le_bytes(take(r)?);
    let mut packets = Vec::with_capacity(count.min(1 << 24) as usize);
    for _ in 0..count {
        let ticks = u64::from_le_bytes(take(r)?);
        let src = u16::from_le_bytes(take(r)?);
        let dst = u16::from_le_bytes(take(r)?);
        let tail: [u8; 4] = take(r)?;
        let kind = match tail[0] {
            0 => PacketKind::Request,
            1 => PacketKind::Response,
            k => return Err(TraceIoError::Format(format!("unknown packet kind {k}"))),
        };
        packets.push(Packet {
            id: PacketId(0),
            src: CoreId(src),
            dst: CoreId(dst),
            kind,
            inject_time: SimTime::from_ticks(ticks),
        });
    }
    check_records(num_cores, &packets)?;
    Ok(Trace::new(name, num_cores, packets))
}

/// Save a trace to a path; the extension picks the codec
/// (`.json` → JSON, anything else → DZTR binary).
pub fn save(trace: &Trace, path: &Path) -> Result<(), TraceIoError> {
    let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
    if path.extension().is_some_and(|e| e == "json") {
        file.write_all(to_json(trace).as_bytes())?;
    } else {
        write_binary(trace, &mut file)?;
    }
    file.flush()?;
    Ok(())
}

/// Load a trace from a path; the extension picks the codec.
pub fn load(path: &Path) -> Result<Trace, TraceIoError> {
    if path.extension().is_some_and(|e| e == "json") {
        let raw = std::fs::read_to_string(path)?;
        from_json(&raw)
    } else {
        let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
        read_binary(&mut file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::packet;

    fn sample() -> Trace {
        Trace::new(
            "io-sample",
            8,
            vec![
                packet(0, 3, PacketKind::Request, 5.0),
                packet(2, 7, PacketKind::Response, 1.0),
                packet(4, 1, PacketKind::Request, 9.5),
            ],
        )
    }

    #[test]
    fn json_round_trip() {
        let t = sample();
        let back = from_json(&to_json(&t)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_round_trip() {
        let t = sample();
        let mut buf = Vec::new();
        write_binary(&t, &mut buf).unwrap();
        let back = read_binary(&mut buf.as_slice()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn binary_is_compact() {
        let t = sample();
        let mut bin = Vec::new();
        write_binary(&t, &mut bin).unwrap();
        let json = to_json(&t);
        assert!(
            bin.len() * 4 < json.len(),
            "{} vs {}",
            bin.len(),
            json.len()
        );
        // Header + 16 bytes per packet.
        assert_eq!(bin.len(), 4 + 2 + 2 + t.name.len() + 4 + 8 + 16 * t.len());
    }

    #[test]
    fn corrupt_magic_rejected() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf[0] = b'X';
        let err = read_binary(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, TraceIoError::Format(_)), "{err}");
    }

    #[test]
    fn truncated_file_rejected() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(read_binary(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn bad_record_rejected() {
        let mut buf = Vec::new();
        write_binary(&sample(), &mut buf).unwrap();
        // Corrupt the kind byte of the first record (offset: header + 12).
        let header = 4 + 2 + 2 + "io-sample".len() + 4 + 8;
        buf[header + 12] = 9;
        let err = read_binary(&mut buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("unknown packet kind"), "{err}");
    }

    #[test]
    fn file_round_trip_both_codecs() {
        let dir = std::env::temp_dir();
        let t = sample();
        for ext in ["json", "dztr"] {
            let path = dir.join(format!("dozznoc-io-test.{ext}"));
            save(&t, &path).unwrap();
            let back = load(&path).unwrap();
            assert_eq!(back, t, "{ext}");
            std::fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn json_revalidates_invariants() {
        // The loader rebuilds through the trace constructor: a
        // hand-edited JSON with scrambled packet order comes back in
        // time order.
        let t = sample();
        let mut json: serde_json::Value = serde_json::from_str(&to_json(&t)).unwrap();
        let arr = json.get_mut("packets").unwrap().as_array_mut().unwrap();
        arr.reverse();
        let back = from_json(&json.to_string()).unwrap();
        let times: Vec<u64> = back
            .packets()
            .iter()
            .map(|p| p.inject_time.ticks())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn invalid_records_are_format_errors_in_both_codecs() {
        // (src, dst) of the first record: self-addressed, then a
        // destination past the trace's 8 cores.
        for (src, dst) in [(3u16, 3u16), (0, 8)] {
            let mut json: serde_json::Value = serde_json::from_str(&to_json(&sample())).unwrap();
            let packets = json.get_mut("packets").unwrap().as_array_mut().unwrap();
            *packets[0].get_mut("src").unwrap() = serde_json::json!(src);
            *packets[0].get_mut("dst").unwrap() = serde_json::json!(dst);
            let err = from_json(&json.to_string()).unwrap_err();
            assert!(
                matches!(err, TraceIoError::Format(_)),
                "json {src}->{dst}: {err}"
            );

            let mut buf = Vec::new();
            write_binary(&sample(), &mut buf).unwrap();
            let header = 4 + 2 + 2 + "io-sample".len() + 4 + 8;
            buf[header + 8..header + 10].copy_from_slice(&src.to_le_bytes());
            buf[header + 10..header + 12].copy_from_slice(&dst.to_le_bytes());
            let err = read_binary(&mut buf.as_slice()).unwrap_err();
            assert!(
                matches!(err, TraceIoError::Format(_)),
                "dztr {src}->{dst}: {err}"
            );
        }
    }
}

//! Trace file I/O.
//!
//! The paper's workflow is trace-file centric: the full-system simulator
//! writes per-core traffic records, the network simulator replays them.
//! Traces are stored as self-describing JSON, which round-trips exactly
//! and is re-validated on load: a bad record is a [`TraceIoError`],
//! never a panic.

use std::io::{self, Write};
use std::path::Path;

use dozznoc_types::Packet;

use crate::trace::Trace;

/// Errors while reading a trace file.
#[derive(Debug)]
pub enum TraceIoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A record or header that no trace can hold.
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
/// whose source is its own destination. Checked before building the
/// trace, so a bad file is an error, never a panic.
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

/// Save a trace to a path as JSON.
pub fn save(trace: &Trace, path: &Path) -> Result<(), TraceIoError> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    file.write_all(to_json(trace).as_bytes())?;
    file.flush()?;
    Ok(())
}

/// Load a JSON trace from a path. The vendored JSON parser re-validates
/// the rest of the input for every string character, so load time grows
/// with the square of the file size (a 370 KB trace takes ~0.6 s).
pub fn load(path: &Path) -> Result<Trace, TraceIoError> {
    from_json(&std::fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::packet;
    use dozznoc_types::PacketKind;

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
    fn file_round_trip() {
        let path = std::env::temp_dir().join("dozznoc-io-test.json");
        let t = sample();
        save(&t, &path).unwrap();
        assert_eq!(load(&path).unwrap(), t);
        std::fs::remove_file(&path).ok();
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
    fn invalid_records_are_format_errors() {
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
                "{src}->{dst}: {err}"
            );
        }
    }
}

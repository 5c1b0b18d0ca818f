//! Per-cell resource measurement for the campaign engine.
//!
//! `EngineOptions::measure` attaches decision-grade numbers to every
//! engine cell (the repository benchmark, `dozz-bench`, reads them):
//! wall-clock, CPU time actually burned by the worker thread, and the
//! process's peak resident set. Wall-clock comes from
//! [`std::time::Instant`]; the other two are read from Linux `/proc`
//! (there is no libc dependency in this workspace, and `std` exposes
//! neither thread CPU clocks nor rusage). On non-Linux hosts the
//! readers degrade to zero rather than failing: the engine still runs,
//! the harness just reports what it can measure.
//!
//! Granularity caveats, so nobody over-reads the numbers:
//!
//! * **Thread CPU** (`/proc/thread-self/stat` utime+stime) ticks at
//!   `USER_HZ` (100 Hz on every mainstream Linux), so per-cell CPU is
//!   quantized to 10 ms. Sum it across the cells of a bench run before
//!   drawing conclusions; single short cells round to zero.
//! * **Peak RSS** (`VmHWM` in `/proc/self/status`) is a *process-wide*
//!   high-water mark, not a per-cell delta. A cell's reading is "the
//!   largest the process had been by the time this cell finished".

#![allow(
    clippy::disallowed_types,
    reason = "the measurement region reads wall/CPU clocks by design; readings flow into \
              reports only, never back into simulation state"
)]

use std::time::Instant;

/// Clock ticks per second for `/proc/*/stat` CPU fields. `USER_HZ` is
/// fixed at 100 on Linux regardless of the kernel's scheduler tick; the
/// kernel scales utime/stime to this unit for /proc.
const PROC_CLK_TCK: u64 = 100;

/// Resource usage of one executed engine cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellMeasure {
    /// Wall-clock time for the cell body (cache probe + simulation),
    /// nanoseconds.
    pub wall_ns: u64,
    /// CPU time the worker thread burned on the cell, nanoseconds.
    /// Quantized to 10 ms on Linux; 0 where unreadable.
    pub cpu_ns: u64,
    /// Process peak resident set (`VmHWM`) when the cell completed,
    /// bytes. 0 where unreadable.
    pub max_rss_bytes: u64,
}

/// A started per-cell measurement; [`CellStopwatch::stop`] yields the
/// [`CellMeasure`].
#[derive(Debug)]
pub struct CellStopwatch {
    wall: Instant,
    cpu_start_ns: u64,
}

impl CellStopwatch {
    /// Start measuring the current thread.
    pub fn start() -> CellStopwatch {
        CellStopwatch {
            wall: Instant::now(),
            cpu_start_ns: thread_cpu_ns(),
        }
    }

    /// Finish: wall/CPU deltas plus the current peak-RSS reading.
    pub fn stop(self) -> CellMeasure {
        CellMeasure {
            wall_ns: u64::try_from(self.wall.elapsed().as_nanos()).unwrap_or(u64::MAX),
            cpu_ns: thread_cpu_ns().saturating_sub(self.cpu_start_ns),
            max_rss_bytes: max_rss_bytes(),
        }
    }
}

/// CPU time (user + system) consumed by the *calling thread*,
/// nanoseconds since thread start. 0 where `/proc` is unavailable.
pub fn thread_cpu_ns() -> u64 {
    stat_cpu_ticks("/proc/thread-self/stat")
        .map(|t| t.saturating_mul(1_000_000_000 / PROC_CLK_TCK))
        .unwrap_or(0)
}

/// CPU time (user + system) consumed by the whole process, nanoseconds
/// since process start. 0 where `/proc` is unavailable.
pub fn process_cpu_ns() -> u64 {
    stat_cpu_ticks("/proc/self/stat")
        .map(|t| t.saturating_mul(1_000_000_000 / PROC_CLK_TCK))
        .unwrap_or(0)
}

/// The process's peak resident set size in bytes (`VmHWM`), or 0 where
/// unreadable.
pub fn max_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb.saturating_mul(1024);
        }
    }
    0
}

/// Sum of utime+stime clock ticks from a `/proc/*/stat` file, or `None`
/// when the file is unreadable or malformed.
fn stat_cpu_ticks(path: &str) -> Option<u64> {
    let stat = std::fs::read_to_string(path).ok()?;
    parse_stat_cpu_ticks(&stat)
}

/// Parse utime (field 14) + stime (field 15) from stat-file contents.
/// The comm field (2) may itself contain spaces and parentheses, so
/// fields are counted from after the *last* closing paren.
fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime/stime are fields 14/15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime.saturating_add(stime))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_handles_spaced_comm() {
        // comm with spaces and a nested paren, as real kernels emit.
        let stat = "1234 (tokio (worker) 1) R 1 1 1 0 -1 4194304 100 0 0 0 \
                    42 7 0 0 20 0 1 0 100 1000000 50 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(49));
    }

    #[test]
    fn stat_parser_rejects_garbage() {
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) R 2 3"), None);
    }

    #[test]
    fn stopwatch_measures_something() {
        let sw = CellStopwatch::start();
        // Burn a little CPU so wall definitely advances.
        let mut acc = 0u64;
        for i in 0..200_000u64 {
            acc = acc.wrapping_add(i.wrapping_mul(2654435761));
        }
        assert!(acc != 1, "keep the loop alive");
        let m = sw.stop();
        assert!(m.wall_ns > 0);
        // cpu_ns/max_rss are 0 off-Linux; on Linux rss must be nonzero.
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(m.max_rss_bytes > 0);
        }
    }

    #[test]
    fn process_cpu_is_monotonic() {
        let a = process_cpu_ns();
        let b = process_cpu_ns();
        assert!(b >= a);
    }
}

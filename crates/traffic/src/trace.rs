//! Trace container: the paper's record format plus compression.
//!
//! "When a packet is injected into the network, the source, destination,
//! type (request/response) and injection time are all saved as a single
//! entry" (§IV-A). A [`Trace`] is a time-sorted vector of such entries
//! (as [`Packet`]s), with helpers for the statistics the calibration and
//! the feature extractor care about.

use serde::{Deserialize, Serialize};

use dozznoc_types::{CoreId, Packet, PacketId, PacketKind, SimTime, TickDelta};

/// A time-sorted sequence of packets to inject.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Trace {
    /// Human-readable origin (benchmark name, pattern name…).
    pub name: String,
    /// Number of cores the trace addresses.
    pub num_cores: usize,
    packets: Vec<Packet>,
}

impl Trace {
    /// Build a trace from packets, sorting by injection time and
    /// re-assigning dense packet ids in time order.
    pub fn new(name: impl Into<String>, num_cores: usize, mut packets: Vec<Packet>) -> Self {
        packets.sort_by_key(|p| (p.inject_time, p.src, p.dst));
        for (i, p) in packets.iter_mut().enumerate() {
            p.id = PacketId(i as u64);
            assert!(p.src.idx() < num_cores, "source core out of range");
            assert!(p.dst.idx() < num_cores, "destination core out of range");
            assert_ne!(p.src, p.dst, "self-addressed packet");
        }
        Trace {
            name: name.into(),
            num_cores,
            packets,
        }
    }

    /// The packets, ascending by injection time.
    pub fn packets(&self) -> &[Packet] {
        &self.packets
    }

    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// True when the trace injects nothing.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Injection time of the last packet (the trace horizon).
    pub fn horizon(&self) -> SimTime {
        self.packets.last().map_or(SimTime::ZERO, |p| p.inject_time)
    }

    /// Time-compress the trace by an integer `factor`: every injection
    /// time is divided by it, multiplying the offered load. This is the
    /// "compressed traces" configuration of Fig. 8(b).
    #[must_use]
    pub fn compress(&self, factor: u64) -> Trace {
        assert!(factor >= 1, "compression factor must be ≥ 1");
        self.rescale(1, factor)
    }

    /// Rescale every injection time by `num/den`, changing the offered
    /// load by `den/num` (e.g. `rescale(2, 3)` compresses time to ⅔,
    /// raising load 1.5×). Fractional compression lets the harness place
    /// "compressed" runs near — not hopelessly past — saturation.
    #[must_use]
    pub fn rescale(&self, num: u64, den: u64) -> Trace {
        assert!(num >= 1 && den >= 1, "rescale needs positive ratio");
        if num == den {
            return self.clone();
        }
        let packets = self
            .packets
            .iter()
            .map(|p| Packet {
                inject_time: SimTime::from_ticks(p.inject_time.ticks() * num / den),
                ..*p
            })
            .collect();
        Trace::new(
            format!("{}-x{:.2}", self.name, den as f64 / num as f64),
            self.num_cores,
            packets,
        )
    }

    /// Stable 64-bit FNV-1a content digest of the trace: name, core
    /// count, and every packet record (injection tick, source,
    /// destination, kind) in time order.
    ///
    /// The digest is a pure function of trace *content* — two traces
    /// built from the same generator inputs (benchmark, seed, duration,
    /// load scale) digest identically across processes and platforms,
    /// which is what lets the run cache key simulations on it. It is
    /// not cryptographic; the cache re-validates the trace name on
    /// every hit.
    pub fn digest(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        let mut eat = |byte: u8| {
            h ^= u64::from(byte);
            h = h.wrapping_mul(FNV_PRIME);
        };
        for b in self.name.bytes() {
            eat(b);
        }
        let mut eat_u64 = |v: u64| {
            for b in v.to_le_bytes() {
                eat(b);
            }
        };
        eat_u64(self.num_cores as u64);
        eat_u64(self.packets.len() as u64);
        for p in &self.packets {
            eat_u64(p.inject_time.ticks());
            eat_u64(p.src.idx() as u64);
            eat_u64(p.dst.idx() as u64);
            eat_u64(match p.kind {
                PacketKind::Request => 0,
                PacketKind::Response => 1,
            });
        }
        h
    }

    /// Summary statistics used for calibration checks.
    pub fn stats(&self) -> TraceStats {
        let horizon = self.horizon();
        let mut flits = 0u64;
        let mut requests = 0u64;
        let mut per_core_sent = vec![0u64; self.num_cores];
        for p in &self.packets {
            flits += p.flit_count() as u64;
            if p.kind == PacketKind::Request {
                requests += 1;
            }
            per_core_sent[p.src.idx()] += 1;
        }
        let duration_ns = horizon.as_ns().max(1e-9);
        let active_cores = per_core_sent.iter().filter(|&&c| c > 0).count();
        TraceStats {
            packets: self.packets.len() as u64,
            flits,
            requests,
            responses: self.packets.len() as u64 - requests,
            duration: SimTime::ZERO.delta(horizon),
            flits_per_ns: flits as f64 / duration_ns,
            active_cores,
        }
    }
}

/// Aggregate statistics of a trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceStats {
    /// Total packets.
    pub packets: u64,
    /// Total flits once serialized.
    pub flits: u64,
    /// Request packets.
    pub requests: u64,
    /// Response packets.
    pub responses: u64,
    /// Injection horizon.
    pub duration: TickDelta,
    /// Offered load in flits per nanosecond across the whole chip.
    pub flits_per_ns: f64,
    /// Cores that inject at least once.
    pub active_cores: usize,
}

/// Convenience constructor for tests and examples.
pub fn packet(src: u16, dst: u16, kind: PacketKind, inject_ns: f64) -> Packet {
    Packet {
        id: PacketId(0),
        src: CoreId(src),
        dst: CoreId(dst),
        kind,
        inject_time: SimTime::from_ns_ceil(inject_ns),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::new(
            "t",
            4,
            vec![
                packet(1, 2, PacketKind::Response, 30.0),
                packet(0, 1, PacketKind::Request, 10.0),
                packet(2, 3, PacketKind::Request, 20.0),
            ],
        )
    }

    #[test]
    fn packets_sorted_and_reindexed() {
        let t = sample();
        let times: Vec<f64> = t.packets().iter().map(|p| p.inject_time.as_ns()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
        for (i, p) in t.packets().iter().enumerate() {
            assert_eq!(p.id.0, i as u64);
        }
    }

    #[test]
    fn horizon_is_last_injection() {
        let t = sample();
        assert!((t.horizon().as_ns() - 30.0).abs() < 0.1);
        assert_eq!(Trace::new("e", 4, vec![]).horizon(), SimTime::ZERO);
    }

    #[test]
    fn compression_divides_times() {
        let t = sample();
        let c = t.compress(2);
        assert_eq!(c.len(), t.len());
        for (a, b) in t.packets().iter().zip(c.packets()) {
            assert_eq!(b.inject_time.ticks(), a.inject_time.ticks() / 2);
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.kind, b.kind);
        }
        assert!(c.name.ends_with("-x2.00"), "{}", c.name);
    }

    #[test]
    fn compression_raises_offered_load() {
        let t = sample();
        let c = t.compress(4);
        assert!(c.stats().flits_per_ns > t.stats().flits_per_ns * 3.0);
    }

    #[test]
    fn stats_count_kinds_and_flits() {
        let s = sample().stats();
        assert_eq!(s.packets, 3);
        assert_eq!(s.requests, 2);
        assert_eq!(s.responses, 1);
        // 2 requests × 1 flit + 1 response × 5 flits.
        assert_eq!(s.flits, 7);
        assert_eq!(s.active_cores, 3);
    }

    #[test]
    fn digest_is_stable_and_content_addressed() {
        let t = sample();
        // Same content → same digest, every time.
        assert_eq!(t.digest(), sample().digest());
        // Any field change moves the digest: name, load scale, records.
        let renamed = Trace::new("other", 4, t.packets().to_vec());
        assert_ne!(t.digest(), renamed.digest());
        assert_ne!(t.digest(), t.compress(2).digest());
        let fewer = Trace::new("t", 4, t.packets()[..2].to_vec());
        assert_ne!(t.digest(), fewer.digest());
        // Kind matters even when the timing is identical.
        let mut flipped = t.packets().to_vec();
        flipped[0].kind = PacketKind::Response;
        assert_ne!(t.digest(), Trace::new("t", 4, flipped).digest());
    }

    #[test]
    #[should_panic(expected = "self-addressed")]
    fn self_addressed_rejected() {
        Trace::new("bad", 4, vec![packet(1, 1, PacketKind::Request, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_core_rejected() {
        Trace::new("bad", 2, vec![packet(0, 5, PacketKind::Request, 0.0)]);
    }
}

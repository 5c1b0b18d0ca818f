//! Property tests for the foundational types.

use proptest::prelude::*;

use dozznoc_types::{CoreId, ACTIVE_MODES, TICKS_PER_NS};
use dozznoc_types::{
    DomainCycles, FlitKind, Mode, Packet, PacketId, PacketKind, SimTime, TickDelta,
};

proptest! {
    /// ns → ticks conversion never under-estimates a delay, and the
    /// error is below one tick.
    #[test]
    fn from_ns_ceil_is_pessimistic_but_tight(ns in 0.0f64..1e6) {
        let d = TickDelta::from_ns_ceil(ns);
        prop_assert!(d.as_ns() >= ns - 1e-9);
        prop_assert!(d.as_ns() < ns + 1.0 / TICKS_PER_NS as f64 + 1e-9);
    }

    /// Cycle conversion round trip: converting a whole number of cycles
    /// into ticks and back is exact for every mode.
    #[test]
    fn cycles_ticks_round_trip(cycles in 0u64..100_000, mode_idx in 0usize..5) {
        let m = ACTIVE_MODES[mode_idx];
        let ticks = DomainCycles::new(cycles).to_ticks(m.divisor());
        prop_assert_eq!(DomainCycles::from_ticks_ceil(ticks, m.divisor()).count(), cycles);
        prop_assert_eq!(ticks.as_cycles_ceil(m.divisor()), cycles);
    }

    /// after/since are inverse operations for arbitrary times.
    #[test]
    fn after_since_inverse(start in 0u64..u64::MAX / 4, delta in 0u64..u64::MAX / 4) {
        let t = SimTime::from_ticks(start);
        let d = TickDelta::from_ticks(delta);
        prop_assert_eq!(t.after(d).since(t), d);
    }

    /// Mode index round trip holds for every byte.
    #[test]
    fn mode_index_round_trip(index in any::<u8>()) {
        match Mode::from_index(index) {
            Some(m) => prop_assert_eq!(m.index(), index),
            None => prop_assert!(!(3..=7).contains(&index)),
        }
    }

    /// Packet flit serialization: exactly one head-class and one
    /// tail-class flit, sequence numbers dense, count matches the kind.
    #[test]
    fn packet_flits_well_formed(id in any::<u64>(), src in 0u16..64, dst in 0u16..64,
                                is_req in any::<bool>(), t in 0u64..1_000_000) {
        prop_assume!(src != dst);
        let p = Packet {
            id: PacketId(id),
            src: CoreId(src),
            dst: CoreId(dst),
            kind: if is_req { PacketKind::Request } else { PacketKind::Response },
            inject_time: SimTime::from_ticks(t),
        };
        let flits: Vec<_> = p.flits().collect();
        prop_assert_eq!(flits.len(), usize::from(p.flit_count()));
        prop_assert_eq!(flits.iter().filter(|f| f.kind.is_head()).count(), 1);
        prop_assert_eq!(flits.iter().filter(|f| f.kind.is_tail()).count(), 1);
        for (i, f) in flits.iter().enumerate() {
            prop_assert_eq!(f.seq as usize, i);
            prop_assert_eq!(f.packet, p.id);
        }
        // Head first, tail last.
        prop_assert!(flits.first().unwrap().kind.is_head());
        prop_assert!(flits.last().unwrap().kind.is_tail());
    }

    /// FlitKind::for_position covers every position of packets up to 16
    /// flits with a consistent head/tail structure.
    #[test]
    fn flit_kind_positions(n in 1u16..16) {
        for seq in 0..n {
            let k = FlitKind::for_position(seq, n);
            prop_assert_eq!(k.is_head(), seq == 0);
            prop_assert_eq!(k.is_tail(), seq + 1 == n);
        }
    }
}

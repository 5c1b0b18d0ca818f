//! The next-event schedule: one deadline per router, earliest first.

/// A tournament tree over one deadline per router. Leaf `i` holds
/// router `i`'s tick; every internal node names the earlier of its two
/// children's routers, ties going to the lower index, so the root names
/// the earliest `(tick, router)` pair — all routers due on one tick come
/// out in router-index order. Re-keying a router replays only its
/// leaf-to-root path, so the queue never holds stale entries and stays
/// `O(log n)` per update however often sleeping routers are woken.
#[derive(Debug, Clone)]
pub(crate) struct EventQueue {
    /// Deadline per leaf; padding leaves past the last router hold
    /// `u64::MAX` and never win.
    ticks: Vec<u64>,
    /// Winner per node, 1-based heap layout: node `k` has children `2k`
    /// and `2k + 1`; the leaves are `leaves..2 · leaves`.
    winner: Vec<u32>,
    /// Leaf count: the router count rounded up to a power of two.
    leaves: usize,
}

impl EventQueue {
    /// A queue of `n` routers, every deadline at `tick`.
    pub(crate) fn new(n: usize, tick: u64) -> Self {
        let leaves = n.max(1).next_power_of_two();
        let mut ticks = vec![u64::MAX; leaves];
        ticks[..n].fill(tick);
        let mut winner = vec![0u32; 2 * leaves];
        for (leaf, w) in winner[leaves..].iter_mut().enumerate() {
            *w = u32::try_from(leaf).expect("router count fits u32");
        }
        let mut q = EventQueue {
            ticks,
            winner,
            leaves,
        };
        for node in (1..leaves).rev() {
            q.winner[node] = q.play(node);
        }
        q
    }

    /// The winner of internal `node`'s two children.
    #[inline]
    fn play(&self, node: usize) -> u32 {
        let (l, r) = (self.winner[2 * node], self.winner[2 * node + 1]);
        // Every router under the left child has a lower index, so a tie
        // goes left.
        if self.ticks[r as usize] < self.ticks[l as usize] {
            r
        } else {
            l
        }
    }

    /// The earliest `(tick, router)`.
    #[inline]
    pub(crate) fn peek(&self) -> (u64, usize) {
        let w = self.winner[1] as usize;
        (self.ticks[w], w)
    }

    /// Router `i`'s deadline as the queue holds it.
    #[inline]
    pub(crate) fn tick(&self, i: usize) -> u64 {
        self.ticks[i]
    }

    /// Re-key router `i` to `tick`.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, tick: u64) {
        self.ticks[i] = tick;
        let mut node = (self.leaves + i) / 2;
        while node >= 1 {
            self.winner[node] = self.play(node);
            node /= 2;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ties_pop_in_router_index_order() {
        let mut q = EventQueue::new(5, 0);
        let mut order = Vec::new();
        for _ in 0..5 {
            let (t, i) = q.peek();
            assert_eq!(t, 0);
            order.push(i);
            q.set(i, 10);
        }
        assert_eq!(order, [0, 1, 2, 3, 4]);
        assert_eq!(q.peek(), (10, 0));
    }

    #[test]
    fn earliest_deadline_wins_and_rekeys_both_ways() {
        let mut q = EventQueue::new(64, 100);
        q.set(37, 40);
        q.set(12, 40);
        assert_eq!(q.peek(), (40, 12));
        q.set(12, 500); // a sleep moves a deadline later
        assert_eq!(q.peek(), (40, 37));
        q.set(63, 7); // a wake moves one earlier
        assert_eq!(q.peek(), (7, 63));
        assert_eq!(q.tick(12), 500);
    }

    #[test]
    fn single_router_and_padding_leaves() {
        let mut q = EventQueue::new(1, 3);
        assert_eq!(q.peek(), (3, 0));
        q.set(0, 9);
        assert_eq!(q.peek(), (9, 0));
        // 5 routers pad to 8 leaves; the padding never wins.
        let mut q = EventQueue::new(5, u64::MAX - 1);
        assert_eq!(q.peek(), (u64::MAX - 1, 0));
        q.set(4, 1);
        assert_eq!(q.peek(), (1, 4));
    }
}

//! Crossbar interconnect between SMs and memory partitions.
//!
//! Two independent networks (request and reply), each modelled as a fixed
//! pipe latency plus bounded per-destination ejection queues with a
//! bandwidth cap on ejection. Under bursty miss traffic the ejection
//! queues back up and effective latency grows super-linearly — the
//! congestion effect §I measures (62% stall cycles for nearest-neighbour).
//!
//! Internally a network is a vector of per-destination [`Link`]s (from
//! the unified port layer, [`crate::port`]) with no shared mutable state
//! between links: each link carries its own preallocated pipe ring,
//! bounded eject [`crate::port::Port`], stall counter and wake bound.
//! The cycle loop in [`crate::gpu`] steps and drains each link next to
//! the component that consumes it.

pub use crate::port::Link;
use crate::port::PortSnapshot;
use crate::types::{AccessKind, Addr, Cycle, KernelId, SmId};

/// A memory request travelling SM → partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemRequest {
    /// Target line address.
    pub line: Addr,
    /// Demand load, store, or prefetch.
    pub kind: AccessKind,
    /// Originating SM (route for the reply).
    pub sm: SmId,
    /// Kernel context (tenant) that produced the request — carried end
    /// to end so L2/DRAM contention is attributable per tenant.
    pub kernel: KernelId,
}

/// A fill reply travelling partition → SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReply {
    /// Filled line address.
    pub line: Addr,
    /// Destination SM.
    pub sm: SmId,
    /// The request that triggered this fill was a prefetch (routed on
    /// the low-priority virtual channel).
    pub is_prefetch: bool,
}

/// One-direction crossbar network: per-destination pipes of constant
/// latency feeding bounded per-destination ejection queues. Distinct
/// destinations do not block each other (separate crossbar outputs); a
/// hot destination backs up only its own pipe.
#[derive(Debug)]
pub struct Network<T> {
    links: Vec<Link<T>>,
    latency: u32,
    eject_depth: usize,
    eject_bw: u32,
}

impl<T> Network<T> {
    /// Network with `destinations` endpoints. `pipe_capacity` preallocates
    /// each link's in-flight ring (sized from the producers' aggregate
    /// in-flight bound so steady state never allocates; the ring grows —
    /// and counts it — if the bound is exceeded).
    pub fn new(
        destinations: usize,
        latency: u32,
        eject_depth: usize,
        eject_bw: u32,
        pipe_capacity: usize,
    ) -> Self {
        Network {
            links: (0..destinations)
                .map(|_| Link::new(eject_depth, pipe_capacity))
                .collect(),
            latency,
            eject_depth,
            eject_bw,
        }
    }

    /// Per-destination ejection-queue depth (credit count).
    #[inline]
    pub fn eject_depth(&self) -> usize {
        self.eject_depth
    }

    /// Inject a message at `now`; it becomes visible at the destination
    /// after the pipe latency (plus any ejection queueing).
    pub fn send(&mut self, now: Cycle, dst: usize, msg: T) {
        debug_assert!(dst < self.links.len());
        let at = now + self.latency as Cycle;
        self.links[dst].send(at, msg);
    }

    /// Move arrived messages into ejection queues (respecting depth).
    /// Call once per cycle before [`Self::pop`].
    pub fn step(&mut self, now: Cycle) {
        for link in &mut self.links {
            link.step(now);
        }
    }

    /// Exclusive access to every link, so the cycle loop can step and
    /// drain destination `d`'s link right before its consumer runs.
    #[inline]
    pub fn links_mut(&mut self) -> &mut [Link<T>] {
        &mut self.links
    }

    /// Take up to the per-cycle ejection bandwidth of messages for `dst`.
    /// Callers invoke this once per destination per cycle.
    pub fn pop(&mut self, dst: usize) -> EjectIter<'_, T> {
        EjectIter {
            link: &mut self.links[dst],
            left: self.eject_bw,
        }
    }

    /// Peek whether `dst` has a deliverable message.
    pub fn has_pending(&self, dst: usize) -> bool {
        self.links[dst].has_pending()
    }

    /// Peek at the next deliverable message for `dst` without consuming.
    pub fn peek(&self, dst: usize) -> Option<&T> {
        self.links[dst].peek()
    }

    /// Take a single message for `dst` if one is deliverable. Callers
    /// that must check a consumer-side condition (e.g. partition input
    /// space) before consuming use this with their own bandwidth count.
    pub fn pop_one(&mut self, dst: usize) -> Option<T> {
        self.links[dst].pop_one()
    }

    /// Total messages anywhere in the network.
    pub fn in_flight(&self) -> usize {
        self.links.iter().map(Link::in_flight).sum()
    }

    /// Total stall events summed over every link.
    pub fn stall_events(&self) -> u64 {
        self.links.iter().map(|l| l.stall_events).sum()
    }

    /// Occupancy/stall counters aggregated over every link (max of high
    /// waters, sum of stalls and grows). Host-side reporting only — not
    /// part of the bit-identity contract.
    pub fn snapshot(&self) -> PortSnapshot {
        let mut s = PortSnapshot::default();
        for link in &self.links {
            s.absorb(link.snapshot());
        }
        s
    }
}

/// Draining iterator bounded by ejection bandwidth.
pub struct EjectIter<'a, T> {
    link: &'a mut Link<T>,
    left: u32,
}

impl<T> Iterator for EjectIter<'_, T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        self.link.pop_one()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_arrives_after_latency() {
        let mut n: Network<u32> = Network::new(2, 10, 4, 1, 8);
        n.send(0, 1, 42);
        for now in 0..10 {
            n.step(now);
            assert!(!n.has_pending(1), "too early at {now}");
        }
        n.step(10);
        assert_eq!(n.pop(1).collect::<Vec<_>>(), vec![42]);
    }

    #[test]
    fn ejection_bandwidth_is_capped() {
        let mut n: Network<u32> = Network::new(1, 0, 8, 2, 8);
        for i in 0..5 {
            n.send(0, 0, i);
        }
        n.step(0);
        assert_eq!(n.pop(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(n.pop(0).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(n.pop(0).collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn full_ejection_queue_blocks_only_its_own_pipe() {
        let mut n: Network<u32> = Network::new(2, 0, 2, 1, 8);
        // Overfill destination 0, and send one message to destination 1.
        for i in 0..3 {
            n.send(0, 0, i);
        }
        n.send(0, 1, 99);
        n.step(0);
        // Crossbar outputs are independent: dst 1 is deliverable even
        // though dst 0's queue is full and its pipe backed up.
        assert!(n.has_pending(1));
        assert!(n.stall_events() > 0);
        assert_eq!(n.in_flight(), 4);
        // Drain dst 0 (bandwidth 1 ⇒ one message per pop), then its
        // blocked message advances into the freed slot.
        assert_eq!(n.pop(0).collect::<Vec<_>>(), vec![0]);
        n.step(1);
        assert_eq!(n.pop(0).collect::<Vec<_>>(), vec![1]);
        n.step(2);
        assert_eq!(n.pop(0).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn order_is_preserved_per_destination() {
        let mut n: Network<u32> = Network::new(1, 3, 16, 16, 16);
        for i in 0..10 {
            n.send(i as Cycle, 0, i);
        }
        for now in 0..20 {
            n.step(now);
        }
        assert_eq!(n.pop(0).collect::<Vec<_>>(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn arrivals_wait_for_latency_and_credits() {
        let mut n: Network<u32> = Network::new(2, 5, 1, 1, 4);
        n.send(0, 0, 1);
        n.send(0, 0, 2);
        n.send(3, 1, 3);
        // Nothing arrives before the latency elapses.
        n.step(4);
        assert!(!n.has_pending(0));
        n.step(5);
        assert!(n.has_pending(0));
        // dst 0's second message arrived but its 1-deep queue is full.
        assert_eq!(n.stall_events(), 1);
        // dst 1's message arrives at 8.
        assert!(!n.has_pending(1));
        assert_eq!(n.pop_one(0), Some(1));
        n.step(5);
        assert_eq!(n.pop_one(0), Some(2), "freed slot unblocks the head");
        n.step(8);
        assert_eq!(n.pop_one(1), Some(3));
    }

    #[test]
    fn blocked_head_stalls_once_per_cycle_until_drained() {
        let mut n: Network<u32> = Network::new(2, 5, 1, 1, 4);
        n.send(0, 0, 1); // arrives at 5
        n.send(0, 0, 2); // arrives at 5, will block behind the first
        n.step(5);
        assert_eq!(n.pop_one(0), Some(1));
        n.step(5); // message 2 takes the freed credit: dst 0 full again
        n.send(5, 0, 3); // arrives at 10 behind a creditless queue
        n.send(7, 1, 4); // arrives at 12 on a free link
        // With no consumer pops, dst 0's head arrives at 10 and blocks
        // for cycles 10 and 11 of the window 6..12.
        let before = n.stall_events();
        for now in 6..12 {
            n.step(now);
        }
        assert_eq!(n.stall_events() - before, 2);
    }

    #[test]
    fn ejected_count_stays_consistent_across_drain_paths() {
        let mut n: Network<u32> = Network::new(2, 0, 4, 2, 8);
        for i in 0..4 {
            n.send(0, (i % 2) as usize, i);
        }
        n.step(0);
        assert_eq!(n.in_flight(), 4);
        assert!(n.has_pending(0) && n.has_pending(1));
        let _ = n.pop(0).collect::<Vec<_>>(); // iterator path
        assert_eq!(n.in_flight(), 2);
        let _ = n.pop_one(1); // single-pop path
        assert_eq!(n.in_flight(), 1);
        let _ = n.pop_one(1);
        assert!(!n.has_pending(1));
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn in_flight_counts_pipe_and_eject() {
        let mut n: Network<u32> = Network::new(1, 5, 4, 1, 4);
        n.send(0, 0, 1);
        n.send(0, 0, 2);
        assert_eq!(n.in_flight(), 2);
        for now in 0..=5 {
            n.step(now);
        }
        assert_eq!(n.in_flight(), 2); // now in eject queue
        let _ = n.pop(0).next();
        assert_eq!(n.in_flight(), 1);
    }

    #[test]
    fn per_link_stepping_matches_whole_network_stepping() {
        // Stepping links individually through `links_mut` (as the cycle
        // loop does) must behave exactly like `Network::step`.
        let mut whole: Network<u32> = Network::new(3, 2, 2, 1, 8);
        let mut sharded: Network<u32> = Network::new(3, 2, 2, 1, 8);
        for i in 0..9u32 {
            whole.send(0, (i % 3) as usize, i);
            sharded.send(0, (i % 3) as usize, i);
        }
        for now in 0..8 {
            whole.step(now);
            for link in sharded.links_mut() {
                link.step(now);
            }
            for d in 0..3 {
                assert_eq!(whole.peek(d), sharded.peek(d), "dst {d} at {now}");
                assert_eq!(whole.pop_one(d), sharded.links_mut()[d].pop_one());
            }
        }
        assert_eq!(whole.stall_events(), sharded.stall_events());
        assert_eq!(whole.in_flight(), sharded.in_flight());
    }

    #[test]
    fn snapshot_aggregates_links() {
        let mut n: Network<u32> = Network::new(2, 0, 1, 1, 2);
        for i in 0..3 {
            n.send(0, 0, i);
        }
        n.step(0);
        let s = n.snapshot();
        assert!(s.high_water >= 2, "pipe held 3 before stepping");
        assert!(s.credit_stalls > 0, "blocked head counts an eject stall");
        assert!(s.grows > 0, "pipe capacity 2 overflowed");
    }
}

//! The free-slot index: one segment tree over hosts that answers every
//! shipped placement policy in O(log hosts).
//!
//! A host's leaf holds its `used` slot count while the host is serving
//! and has a free slot; otherwise the leaf is empty. Every node keeps
//! three summaries of its subtree, each naming the lowest-index host
//! among those that tie:
//!
//! * `min` — the lowest `(used, host)`;
//! * `max` — the highest `used`;
//! * `min_done` — the lowest `(used, host)` among campaign-completed
//!   hosts only.
//!
//! The policies read it as follows:
//!
//! * first-fit takes the leftmost non-empty leaf;
//! * best-fit takes the root's `max`;
//! * anti-affinity takes the smaller of the `min` outside (imminent
//!   window ∪ peer-spacing interval) and the `min_done` inside the window
//!   but outside the peer interval. When both are empty it falls back to
//!   the `min` outside the peer interval alone.
//!
//! That is exactly the host, and the tie order, the linear scans in
//! [`placement`](crate::placement) pick; `tests/placement_props.rs` and a
//! debug-build cross-check on every fleet placement hold the two
//! together. [`PlacementStore`](crate::store::PlacementStore) owns the
//! index and refreshes a host's leaf whenever its slots, phase or
//! completion change.

use crate::placement::{Constraints, Decision, PlacementKind};

/// `min`/`min_done` of an empty subtree.
const NO_MIN: u64 = u64::MAX;
/// `max` of an empty subtree.
const NO_MAX: u64 = 0;

/// One node's three subtree summaries, as packed `(used, host)` keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    /// `used << 32 | host`: the plain minimum is the lowest `(used, host)`.
    min: u64,
    /// `(used + 1) << 32 | !host`: the plain maximum is the highest
    /// `used`, ties to the lowest host; never 0 for a real leaf.
    max: u64,
    /// As `min`, over completed hosts only.
    min_done: u64,
}

impl Node {
    const EMPTY: Node = Node {
        min: NO_MIN,
        max: NO_MAX,
        min_done: NO_MIN,
    };

    fn leaf(host: u32, used: u32, completed: bool) -> Node {
        let min = (u64::from(used) << 32) | u64::from(host);
        Node {
            min,
            max: ((u64::from(used) + 1) << 32) | u64::from(!host),
            min_done: if completed { min } else { NO_MIN },
        }
    }

    fn merge(a: Node, b: Node) -> Node {
        Node {
            min: a.min.min(b.min),
            max: a.max.max(b.max),
            min_done: a.min_done.min(b.min_done),
        }
    }
}

/// The host a `min`/`min_done` key names, if any.
fn min_host(key: u64) -> Option<u32> {
    (key != NO_MIN).then_some(key as u32)
}

/// A half-open host range `[lo, hi)`; empty when `lo >= hi`.
type Span = (u64, u64);

/// The parts of `span` left of and right of `cut`.
fn outside(span: Span, cut: Span) -> [Span; 2] {
    [(span.0, span.1.min(cut.0)), (span.0.max(cut.1), span.1)]
}

/// The free-slot segment tree (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct FreeSlotIndex {
    hosts: u32,
    /// Leaf count: `hosts` rounded up to a power of two.
    leaves: usize,
    /// Heap-ordered nodes: the root at 1, node `i`'s children at `2i` and
    /// `2i + 1`, host `h`'s leaf at `leaves + h`.
    nodes: Vec<Node>,
}

impl FreeSlotIndex {
    /// An index over `hosts` hosts; `leaf(h)` is host `h`'s initial
    /// `(used, completed)`, or `None` when it cannot take a VM.
    pub fn new(hosts: u32, leaf: impl Fn(u32) -> Option<(u32, bool)>) -> Self {
        let leaves = (hosts as usize).next_power_of_two();
        let mut nodes = vec![Node::EMPTY; 2 * leaves];
        for h in 0..hosts {
            if let Some((used, completed)) = leaf(h) {
                nodes[leaves + h as usize] = Node::leaf(h, used, completed);
            }
        }
        for i in (1..leaves).rev() {
            nodes[i] = Node::merge(nodes[2 * i], nodes[2 * i + 1]);
        }
        FreeSlotIndex {
            hosts,
            leaves,
            nodes,
        }
    }

    /// Sets host `h`'s leaf: `Some((used, completed))` while it can take a
    /// VM, `None` otherwise. O(log hosts).
    pub fn set(&mut self, h: u32, leaf: Option<(u32, bool)>) {
        let mut i = self.leaves + h as usize;
        self.nodes[i] = leaf.map_or(Node::EMPTY, |(used, done)| Node::leaf(h, used, done));
        while i > 1 {
            i /= 2;
            self.nodes[i] = Node::merge(self.nodes[2 * i], self.nodes[2 * i + 1]);
        }
    }

    /// The host `kind` picks under `c`, with the modelled probe count of
    /// its reference linear scan.
    pub fn choose(&self, kind: PlacementKind, c: &Constraints) -> Decision {
        let (host, fell_back) = match kind {
            PlacementKind::FirstFit => (self.leftmost(), false),
            PlacementKind::BestFit => (self.fullest(), false),
            PlacementKind::AntiAffinity => self.spread(c),
        };
        Decision::modelled(kind, self.hosts, host, fell_back)
    }

    /// The lowest-index host with a free slot.
    fn leftmost(&self) -> Option<u32> {
        let mut i = 1;
        if self.nodes[i].min == NO_MIN {
            return None;
        }
        while i < self.leaves {
            i *= 2;
            if self.nodes[i].min == NO_MIN {
                i += 1;
            }
        }
        Some((i - self.leaves) as u32)
    }

    /// The fullest host with a free slot, ties to the lowest index.
    fn fullest(&self) -> Option<u32> {
        let max = self.nodes[1].max;
        (max != NO_MAX).then_some(!(max as u32))
    }

    /// Anti-affinity's least-loaded host and whether it needed the
    /// window-ignoring fallback.
    fn spread(&self, c: &Constraints) -> (Option<u32>, bool) {
        let all = (0, u64::from(self.hosts));
        let clamp = |x: u64| x.min(all.1);
        let peer = c.peer_host.map_or((0, 0), |p| {
            let s = u64::from(c.pair_spacing.max(1));
            let p = u64::from(p);
            (clamp((p + 1).saturating_sub(s)), clamp(p + s))
        });
        let window = if c.window > 0 {
            let cursor = u64::from(c.cursor);
            (clamp(cursor), clamp(cursor + u64::from(c.window)))
        } else {
            (0, 0)
        };
        let mut best = NO_MIN;
        for part in outside(all, window) {
            for span in outside(part, peer) {
                best = best.min(self.range_min(span, |n| n.min));
            }
        }
        for span in outside(window, peer) {
            best = best.min(self.range_min(span, |n| n.min_done));
        }
        if best != NO_MIN {
            return (min_host(best), false);
        }
        let fallback = outside(all, peer)
            .into_iter()
            .map(|span| self.range_min(span, |n| n.min))
            .min()
            .unwrap_or(NO_MIN);
        (min_host(fallback), true)
    }

    /// The smallest `key` over the leaves in `span`.
    fn range_min(&self, (lo, hi): Span, key: fn(&Node) -> u64) -> u64 {
        let (mut l, mut r) = (lo as usize + self.leaves, hi as usize + self.leaves);
        let mut acc = NO_MIN;
        while l < r {
            if l & 1 == 1 {
                acc = acc.min(key(&self.nodes[l]));
                l += 1;
            }
            if r & 1 == 1 {
                r -= 1;
                acc = acc.min(key(&self.nodes[r]));
            }
            l /= 2;
            r /= 2;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The property tests in `tests/placement_props.rs` start at one
    /// host; a fleet of none must answer too.
    #[test]
    fn empty_fleet_places_nothing() {
        let idx = FreeSlotIndex::new(0, |_| None);
        let c = Constraints {
            cursor: 0,
            window: 1,
            peer_host: None,
            pair_spacing: 1,
        };
        for kind in PlacementKind::ALL {
            assert_eq!(idx.choose(kind, &c).host, None, "{kind}");
        }
    }
}

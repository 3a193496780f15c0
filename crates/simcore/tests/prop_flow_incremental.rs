//! Differential property test: incremental re-rating against the full
//! max-min-fair solve.
//!
//! The flow network re-solves only the connected component touched by a
//! mutation; `set_force_full_rerate(true)` disables that and recomputes
//! every rate from scratch on each change. Driving two networks — one
//! incremental, one forced-full — through an identical randomized
//! mutation history (adds, cancels, hedged duplicates, capacity
//! changes, freezes, time advances) must produce *bitwise identical*
//! rates and the same completion order at every step, because the
//! incremental path is advertised as an optimization with zero
//! observable effect.

use proptest::prelude::*;
use simcore::flow::{FlowId, FlowNet, LinkId};
use simcore::time::SimTime;

/// One step of shared mutation history. Selectors are reduced modulo
/// the live population at apply time.
#[derive(Debug, Clone)]
enum Op {
    /// Start a flow of `bytes` over a path of link selectors.
    Add(f64, Vec<usize>),
    /// Launch a duplicate of a previously added flow (what a hedged
    /// transfer does: same bytes, same path, racing copy).
    Hedge(usize),
    /// Cancel a live flow.
    Cancel(usize),
    /// Change a link's capacity mid-run.
    SetCap(usize, f64),
    /// Stall a live flow (gray-failure stuck-transfer modeling).
    Freeze(usize),
    /// Resume a stalled flow.
    Unfreeze(usize),
    /// Advance simulated time, completing whatever finishes.
    Advance(u64),
}

fn arb_path(nlinks: usize) -> impl Strategy<Value = Vec<usize>> {
    prop::collection::btree_set(0..nlinks, 1..=nlinks.min(3))
        .prop_map(|s| s.into_iter().collect::<Vec<_>>())
}

fn arb_op(nlinks: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1.0f64..100_000.0, arb_path(nlinks)).prop_map(|(b, p)| Op::Add(b, p)),
        (0usize..64).prop_map(Op::Hedge),
        (0usize..64).prop_map(Op::Cancel),
        (0usize..64, 0.5f64..2000.0).prop_map(|(l, c)| Op::SetCap(l, c)),
        (0usize..64).prop_map(Op::Freeze),
        (0usize..64).prop_map(Op::Unfreeze),
        (1u64..500_000_000).prop_map(Op::Advance),
    ]
}

/// A network plus the bookkeeping the test needs to replay history.
struct Net {
    net: FlowNet,
    links: Vec<LinkId>,
    live: Vec<FlowId>,
    /// `(bytes, path)` of every add, so hedges can duplicate them.
    added: Vec<(f64, Vec<usize>)>,
    completed: Vec<FlowId>,
    now: SimTime,
}

impl Net {
    fn build(caps: &[f64], force_full: bool) -> Net {
        let mut net = FlowNet::new();
        net.set_force_full_rerate(force_full);
        let links = caps.iter().map(|&c| net.add_link(c)).collect();
        Net {
            net,
            links,
            live: Vec::new(),
            added: Vec::new(),
            completed: Vec::new(),
            now: SimTime::ZERO,
        }
    }

    fn add(&mut self, bytes: f64, path: &[usize]) {
        let p: Vec<LinkId> = path.iter().map(|&i| self.links[i]).collect();
        let id = self.net.add_flow(bytes, &p);
        self.live.push(id);
        self.added.push((bytes, path.to_vec()));
        self.reap();
    }

    fn apply(&mut self, op: &Op) {
        match op {
            Op::Add(bytes, path) => self.add(*bytes, path),
            Op::Hedge(sel) => {
                if !self.added.is_empty() {
                    let (bytes, path) = self.added[sel % self.added.len()].clone();
                    self.add(bytes, &path);
                }
            }
            Op::Cancel(sel) => {
                if !self.live.is_empty() {
                    let id = self.live.remove(sel % self.live.len());
                    assert!(self.net.cancel_flow(id));
                }
            }
            Op::SetCap(sel, cap) => {
                let link = self.links[sel % self.links.len()];
                self.net.set_link_capacity(link, *cap);
            }
            Op::Freeze(sel) => {
                if !self.live.is_empty() {
                    let id = self.live[sel % self.live.len()];
                    self.net.freeze_flow(id);
                }
            }
            Op::Unfreeze(sel) => {
                if !self.live.is_empty() {
                    let id = self.live[sel % self.live.len()];
                    self.net.unfreeze_flow(id);
                }
            }
            Op::Advance(dt) => {
                self.now = SimTime::from_nanos(self.now.as_nanos().saturating_add(*dt));
                self.net.advance(self.now);
                self.reap();
            }
        }
    }

    /// Collects completions (adds can complete zero-byte flows too) and
    /// drops them from the live set, preserving order.
    fn reap(&mut self) {
        for id in self.net.take_completed() {
            self.completed.push(id);
            if let Some(i) = self.live.iter().position(|&l| l == id) {
                self.live.remove(i);
            }
        }
    }
}

proptest! {
    /// The incremental solver is observationally equal to the full
    /// solver: same flow ids, bitwise-equal rates after every mutation,
    /// and the same completions in the same order.
    #[test]
    fn incremental_rerating_matches_full_solve(
        caps in prop::collection::vec(1.0f64..1000.0, 1..6),
        ops in prop::collection::vec(arb_op(8), 1..120),
    ) {
        let mut fast = Net::build(&caps, false);
        let mut slow = Net::build(&caps, true);
        for (step, op) in ops.iter().enumerate() {
            // Map link selectors into range for this topology.
            let op = match op {
                Op::Add(b, p) => Op::Add(*b, p.iter().map(|i| i % caps.len()).collect()),
                other => other.clone(),
            };
            fast.apply(&op);
            slow.apply(&op);
            prop_assert_eq!(&fast.live, &slow.live, "live sets diverged at step {}", step);
            prop_assert_eq!(
                &fast.completed, &slow.completed,
                "completion order diverged at step {}", step
            );
            for &id in &fast.live {
                let a = fast.net.flow_rate(id);
                let b = slow.net.flow_rate(id);
                prop_assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "rate of {:?} diverged at step {}: {:?} vs {:?}",
                    id, step, a, b
                );
                let ra = fast.net.flow_remaining(id);
                let rb = slow.net.flow_remaining(id);
                prop_assert_eq!(ra.map(f64::to_bits), rb.map(f64::to_bits));
            }
        }
        // Drain both to completion: identical completion tails.
        let mut guard = 0;
        loop {
            let ta = fast.net.next_completion_time(fast.now);
            let tb = slow.net.next_completion_time(slow.now);
            prop_assert_eq!(ta, tb, "next completion time diverged");
            let Some(t) = ta else { break };
            fast.now = t;
            slow.now = t;
            fast.net.advance(t);
            slow.net.advance(t);
            fast.reap();
            slow.reap();
            guard += 1;
            prop_assert!(guard < 2000, "no convergence");
        }
        prop_assert_eq!(&fast.completed, &slow.completed);
        prop_assert_eq!(fast.net.active_flows(), slow.net.active_flows());
    }
}

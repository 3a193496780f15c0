//! Property test of the flow driver's `link_share` counter tracks.
//!
//! Perfetto draws a link's `link_share` samples as a step function: each
//! sample holds until the next one. The driver publishes a sample only
//! when a link's `(rate_bps, flows)` changes, and a zero sample when the
//! link goes idle. So after every handler, the step function rebuilt
//! from the log (the last sample of each link, `(0.0, 0)` when there is
//! none) must equal the network's current link loads, and no sample may
//! repeat its link's previous one.
//!
//! A `FlowDriver` inside a `Sim` with a logging probe runs random
//! histories on a four-link network: flow starts (zero-byte flows and
//! flows sharing links among them), cancels of running, finished and
//! frozen flows, capacity changes, and stuck arms, which freeze the next
//! flow across a link and unfreeze it later. Bytes, capacities and
//! instants come from small grids, so completions, unfreezes and
//! scheduled operations often fall on the same nanosecond.

use std::cell::RefCell;

use proptest::prelude::*;
use simcore::probe::EventLog;
use simcore::{
    cancel_flow, set_link_capacity, start_flow, Ctx, FlowDriver, FlowId, FlowNet, HasFlowDriver,
    LinkId, Probe, ProbeEvent, Sim, SimDur, SimTime,
};

const LINKS: usize = 4;

/// A link's sample as the log shows it: `(rate_bps bits, flows)`.
type Sample = (u64, usize);

/// The sample of a link that carries no flow.
const IDLE: Sample = (0, 0);

/// One scheduled operation.
#[derive(Debug, Clone)]
enum Op {
    /// Start a flow of `bytes` over a set of links.
    Start(f64, Vec<usize>),
    /// Cancel a flow started earlier (the selector is taken modulo the
    /// flows started so far); it may have finished already.
    Cancel(usize),
    /// Change a link's capacity.
    SetCap(usize, f64),
    /// Freeze the next flow started across a link for `ms`.
    Stuck(usize, u64),
}

/// Grids of bytes, capacities (bytes/sec) and stall times (ms): small
/// round values make completions land on shared instants.
const BYTES: [f64; 5] = [0.0, 25.0, 50.0, 100.0, 200.0];
const CAPS: [f64; 4] = [50.0, 100.0, 200.0, 400.0];
const STALLS_MS: [u64; 3] = [125, 250, 500];

fn arb_op() -> impl Strategy<Value = Op> {
    let start = || {
        (0..BYTES.len(), prop::collection::btree_set(0..LINKS, 1..=3))
            .prop_map(|(b, p)| Op::Start(BYTES[b], p.into_iter().collect()))
    };
    // Starts are listed twice: half of all operations start a flow.
    prop_oneof![
        start(),
        start(),
        (0usize..64).prop_map(Op::Cancel),
        (0..LINKS, 0..CAPS.len()).prop_map(|(l, c)| Op::SetCap(l, CAPS[c])),
        (0..LINKS, 0..STALLS_MS.len()).prop_map(|(l, s)| Op::Stuck(l, STALLS_MS[s])),
    ]
}

struct World {
    driver: FlowDriver<World>,
    links: Vec<LinkId>,
    started: Vec<FlowId>,
}

impl HasFlowDriver for World {
    fn flow_driver(&mut self) -> &mut FlowDriver<World> {
        &mut self.driver
    }
}

fn apply(w: &mut World, ctx: &mut Ctx<World>, op: &Op) {
    match op {
        Op::Start(bytes, path) => {
            let path: Vec<LinkId> = path.iter().map(|&i| w.links[i]).collect();
            let id = start_flow(w, ctx, *bytes, &path, |_, _, _| {}, 0);
            w.started.push(id);
        }
        Op::Cancel(sel) => {
            if !w.started.is_empty() {
                let id = w.started[sel % w.started.len()];
                cancel_flow(w, ctx, id);
            }
        }
        Op::SetCap(link, cap) => {
            let link = w.links[*link];
            set_link_capacity(w, ctx, link, *cap);
        }
        Op::Stuck(link, ms) => {
            let link = w.links[*link];
            w.driver.arm_stuck(link, SimDur::from_millis(*ms));
        }
    }
}

/// Folds the samples logged since `seen` into `shown`, failing on a
/// repeat, then compares `shown` with the network's link loads.
fn check(
    net: &FlowNet,
    log: &RefCell<EventLog>,
    seen: &mut usize,
    shown: &mut [Sample],
) -> Result<(), String> {
    let log = log.borrow();
    for e in &log.events[*seen..] {
        if let ProbeEvent::LinkShare {
            link,
            rate_bps,
            flows,
        } = e.what
        {
            let sample = (rate_bps.to_bits(), flows);
            if shown[link] == sample {
                return Err(format!(
                    "link {link} repeats its sample ({rate_bps}, {flows}) at {:?}",
                    e.at
                ));
            }
            shown[link] = sample;
        }
    }
    *seen = log.events.len();
    let mut loads = vec![IDLE; LINKS];
    for (link, rate_bps, flows) in net.link_loads() {
        loads[link] = (rate_bps.to_bits(), flows);
    }
    if shown != loads {
        return Err(format!("tracks {shown:?} != link loads {loads:?}"));
    }
    Ok(())
}

proptest! {
    #[test]
    fn link_share_tracks_follow_the_link_loads_without_repeats(
        caps in prop::collection::vec(0..CAPS.len(), LINKS),
        ops in prop::collection::vec((0u64..16, arb_op()), 1..48),
    ) {
        let mut net = FlowNet::new();
        let links = caps.iter().map(|&c| net.add_link(CAPS[c])).collect();
        let mut driver = FlowDriver::with_net(net);
        let (probe, log) = Probe::logging();
        driver.probe = probe;
        let mut sim = Sim::new(World { driver, links, started: Vec::new() });
        // Operations run every 125 ms, several to an instant.
        for (slot, op) in ops.clone() {
            sim.schedule_at(
                SimTime::from_nanos(slot * 125_000_000),
                Box::new(move |w: &mut World, ctx| apply(w, ctx, &op)),
            );
        }
        let mut seen = 0;
        let mut shown = vec![IDLE; LINKS];
        let mut handlers = 0;
        while sim.step() {
            handlers += 1;
            if let Err(e) = check(&sim.state().driver.net, &log, &mut seen, &mut shown) {
                panic!("after handler {handlers}: {e}\ncaps {caps:?}\nops {ops:?}");
            }
        }
        prop_assert_eq!(sim.state().driver.net.active_flows(), 0);
        prop_assert!(shown.iter().all(|&s| s == IDLE), "a track ended busy");
    }
}

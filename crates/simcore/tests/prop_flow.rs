//! Property tests for the max-min-fair fluid-flow network.

use proptest::prelude::*;
use simcore::flow::{FlowNet, LinkId};
use simcore::time::SimTime;

/// Random topology: link capacities plus flows over random paths.
fn arb_net() -> impl Strategy<Value = (Vec<f64>, Vec<(f64, Vec<usize>)>)> {
    let links = prop::collection::vec(1.0f64..1000.0, 1..6);
    links.prop_flat_map(|caps| {
        let n = caps.len();
        let flows = prop::collection::vec(
            (
                1.0f64..10_000.0,
                prop::collection::btree_set(0..n, 1..=n.min(3)),
            )
                .prop_map(|(b, path)| (b, path.into_iter().collect::<Vec<_>>())),
            1..8,
        );
        (Just(caps), flows)
    })
}

proptest! {
    #[test]
    fn rates_respect_capacities_and_work_conserve((caps, flows) in arb_net()) {
        let mut net = FlowNet::new();
        let link_ids: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
        let mut ids = Vec::new();
        for (bytes, path) in &flows {
            let p: Vec<LinkId> = path.iter().map(|&i| link_ids[i]).collect();
            ids.push((net.add_flow(*bytes, &p), path.clone()));
        }
        // Per-link sum of rates must not exceed capacity.
        for (li, &cap) in caps.iter().enumerate() {
            let sum: f64 = ids
                .iter()
                .filter(|(_, path)| path.contains(&li))
                .filter_map(|(id, _)| net.flow_rate(*id))
                .sum();
            prop_assert!(sum <= cap * (1.0 + 1e-6), "link {li}: {sum} > {cap}");
        }
        // Every active flow makes progress.
        for (id, _) in &ids {
            if let Some(r) = net.flow_rate(*id) {
                prop_assert!(r > 0.0, "starved flow");
            }
        }
        // Work conservation: every active flow crosses at least one
        // saturated link (max-min definition).
        for (id, path) in &ids {
            if net.flow_rate(*id).is_none() {
                continue;
            }
            let crosses_saturated = path.iter().any(|&li| {
                let sum: f64 = ids
                    .iter()
                    .filter(|(_, p)| p.contains(&li))
                    .filter_map(|(f, _)| net.flow_rate(*f))
                    .sum();
                sum >= caps[li] * (1.0 - 1e-6)
            });
            prop_assert!(crosses_saturated, "flow not bottlenecked anywhere");
        }
    }

    #[test]
    fn all_flows_eventually_complete((caps, flows) in arb_net()) {
        let mut net = FlowNet::new();
        let link_ids: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
        let n_flows = flows.len();
        for (bytes, path) in &flows {
            let p: Vec<LinkId> = path.iter().map(|&i| link_ids[i]).collect();
            net.add_flow(*bytes, &p);
        }
        let mut done = net.take_completed().len();
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while let Some(t) = net.next_completion_time(now) {
            now = t;
            net.advance(now);
            done += net.take_completed().len();
            guard += 1;
            prop_assert!(guard < 1000, "no convergence");
        }
        prop_assert_eq!(done, n_flows);
        prop_assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn progress_is_monotone_in_time(
        (caps, flows) in arb_net(),
        checkpoints in prop::collection::vec(1u64..1_000_000_000, 1..5),
    ) {
        let mut net = FlowNet::new();
        let link_ids: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
        let mut ids = Vec::new();
        for (bytes, path) in &flows {
            let p: Vec<LinkId> = path.iter().map(|&i| link_ids[i]).collect();
            ids.push(net.add_flow(*bytes, &p));
        }
        let mut sorted = checkpoints.clone();
        sorted.sort_unstable();
        let mut prev: Vec<f64> = ids
            .iter()
            .map(|id| net.flow_remaining(*id).unwrap_or(0.0))
            .collect();
        for t in sorted {
            net.advance(SimTime::from_nanos(t));
            let cur: Vec<f64> = ids
                .iter()
                .map(|id| net.flow_remaining(*id).unwrap_or(0.0))
                .collect();
            for (p, c) in prev.iter().zip(&cur) {
                prop_assert!(c <= &(p + 1e-6), "remaining grew: {p} -> {c}");
            }
            prev = cur;
        }
    }
}

proptest! {
    #[test]
    fn shares_respect_capacity_across_midrun_capacity_changes(
        (caps, flows) in arb_net(),
        changes in prop::collection::vec((0usize..6, 1.0f64..1000.0, 1u64..1_000_000_000), 1..5),
    ) {
        let mut net = FlowNet::new();
        let link_ids: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
        let mut ids = Vec::new();
        for (bytes, path) in &flows {
            let p: Vec<LinkId> = path.iter().map(|&i| link_ids[i]).collect();
            ids.push((net.add_flow(*bytes, &p), path.clone()));
        }
        let mut sorted = changes.clone();
        sorted.sort_by_key(|&(_, _, t)| t);
        for (li, cap, t) in sorted {
            let li = li % caps.len();
            net.advance(SimTime::from_nanos(t));
            net.set_link_capacity(link_ids[li], cap);
            // After every change, per-link share sums still respect the
            // *current* capacity of every link.
            for (i, &link) in link_ids.iter().enumerate() {
                let sum: f64 = ids
                    .iter()
                    .filter(|(_, path)| path.contains(&i))
                    .filter_map(|(id, _)| net.flow_rate(*id))
                    .sum();
                let cur = net.link_capacity(link);
                prop_assert!(sum <= cur * (1.0 + 1e-6), "link {i}: {sum} > {cur}");
            }
        }
    }

    #[test]
    fn flow_conservation_bytes_delivered_equal_bytes_carried(
        (caps, flows) in arb_net(),
    ) {
        // Every byte a flow finishes with was carried across each link
        // on its path, and nothing else touched those links.
        let mut net = FlowNet::new();
        let link_ids: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
        let mut expected = vec![0.0f64; caps.len()];
        for (bytes, path) in &flows {
            let p: Vec<LinkId> = path.iter().map(|&i| link_ids[i]).collect();
            net.add_flow(*bytes, &p);
            for &i in path {
                expected[i] += *bytes;
            }
        }
        let mut now = SimTime::ZERO;
        let mut guard = 0;
        while let Some(t) = net.next_completion_time(now) {
            now = t;
            net.advance(now);
            net.take_completed();
            guard += 1;
            prop_assert!(guard < 1000, "no convergence");
        }
        for (i, &link) in link_ids.iter().enumerate() {
            let carried = net.link_carried_bytes(link);
            prop_assert!(
                (carried - expected[i]).abs() <= expected[i].max(1.0) * 1e-6,
                "link {i}: carried {carried}, expected {}",
                expected[i]
            );
        }
    }

    #[test]
    fn cancelling_a_competitor_never_shrinks_the_minimum_share(
        (caps, flows) in arb_net(),
        victim in 0usize..8,
    ) {
        // Removing a flow relaxes every constraint, so the max-min
        // objective — the minimum share across surviving flows — can
        // only grow. (Individual shares are NOT monotone: freed
        // capacity on one link can let a flow expand into, and shrink
        // peers on, another link.)
        if flows.len() < 2 {
            return;
        }
        let mut net = FlowNet::new();
        let link_ids: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
        let mut ids = Vec::new();
        for (bytes, path) in &flows {
            let p: Vec<LinkId> = path.iter().map(|&i| link_ids[i]).collect();
            ids.push(net.add_flow(*bytes, &p));
        }
        let victim = ids[victim % ids.len()];
        let before: Vec<(simcore::flow::FlowId, f64)> = ids
            .iter()
            .filter(|&&id| id != victim)
            .filter_map(|&id| net.flow_rate(id).map(|r| (id, r)))
            .collect();
        prop_assert!(net.cancel_flow(victim));
        prop_assert!(!net.cancel_flow(victim), "double cancel must fail");
        let old_min = before
            .iter()
            .map(|&(_, r)| r)
            .fold(f64::INFINITY, f64::min);
        let mut new_min = f64::INFINITY;
        for (id, _) in &before {
            let new = net.flow_rate(*id).expect("survivor vanished");
            new_min = new_min.min(new);
        }
        prop_assert!(
            new_min >= old_min * (1.0 - 1e-6),
            "minimum share shrank: {old_min} -> {new_min}"
        );
    }
}

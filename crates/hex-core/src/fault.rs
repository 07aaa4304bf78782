//! The fault model of Section 3.2.
//!
//! The simulation framework (Section 4.1, item 4) declares links "correct,
//! Byzantine (choose output constant 0 resp. 1 corresponding to no resp.
//! fast triggering), or fail-silent (output constant 0); declaring a node
//! Byzantine or fail-silent is equivalent to doing so for each of its
//! outgoing links". [`FaultPlan`] captures exactly that, and
//! [`place_condition1`] implements the evaluation's placement rule:
//! f nodes uniformly at random, rejection-sampled until **Condition 1**
//! (fault separation: no node has more than one faulty in-neighbor) holds.

use std::collections::BTreeMap;

use hex_des::{Duration, SimRng, Time};

use crate::graph::{LinkId, NodeId, PulseGraph};

/// Behaviour of a single directed link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkBehavior {
    /// Normal: delivers each trigger message within the delay range.
    Correct,
    /// Output stuck at 0: never delivers anything (fail-silent link / broken
    /// wire).
    StuckZero,
    /// Output stuck at 1: the receiver's memory flag (re-)sets as soon as it
    /// is cleared — the "fast triggering" Byzantine behaviour.
    StuckOne,
}

/// A faulty node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFault {
    /// Byzantine: each outgoing link independently stuck at 0 or 1, drawn at
    /// simulation start and fixed for the run (the evaluation's model).
    Byzantine,
    /// Fail-silent (crash): all outgoing links stuck at 0.
    FailSilent,
}

/// The complete fault assignment of a run: per-node faults plus optional
/// per-link overrides (broken wires between otherwise-correct nodes).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    node_faults: BTreeMap<NodeId, NodeFault>,
    link_overrides: BTreeMap<LinkId, LinkBehavior>,
}

impl FaultPlan {
    /// The fault-free plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Mark a node faulty.
    pub fn with_node(mut self, node: NodeId, fault: NodeFault) -> Self {
        self.node_faults.insert(node, fault);
        self
    }

    /// Mark several nodes with the same fault kind.
    pub fn with_nodes(mut self, nodes: &[NodeId], fault: NodeFault) -> Self {
        for &n in nodes {
            self.node_faults.insert(n, fault);
        }
        self
    }

    /// Override a single link's behaviour (stronger than node faults).
    pub fn with_link(mut self, link: LinkId, behavior: LinkBehavior) -> Self {
        self.link_overrides.insert(link, behavior);
        self
    }

    /// The set of faulty node ids, ascending.
    pub fn faulty_nodes(&self) -> Vec<NodeId> {
        self.node_faults.keys().copied().collect()
    }

    /// Number of faulty nodes (the paper's `f`).
    pub fn fault_count(&self) -> usize {
        self.node_faults.len()
    }

    /// The fault of `node`, if any.
    pub fn node_fault(&self, node: NodeId) -> Option<NodeFault> {
        self.node_faults.get(&node).copied()
    }

    /// True iff `node` is declared faulty.
    pub fn is_faulty(&self, node: NodeId) -> bool {
        self.node_faults.contains_key(&node)
    }

    /// Resolve the plan into a per-link behaviour table. Byzantine nodes
    /// draw stuck-0/stuck-1 per outgoing link from `rng` (fixed for the
    /// run); explicit link overrides win over node faults.
    pub fn resolve(&self, graph: &PulseGraph, rng: &mut SimRng) -> Vec<LinkBehavior> {
        let mut table = vec![LinkBehavior::Correct; graph.link_count()];
        for (&node, &fault) in &self.node_faults {
            for &l in graph.out_links(node) {
                table[l as usize] = match fault {
                    NodeFault::FailSilent => LinkBehavior::StuckZero,
                    NodeFault::Byzantine => {
                        if rng.coin() {
                            LinkBehavior::StuckOne
                        } else {
                            LinkBehavior::StuckZero
                        }
                    }
                };
            }
        }
        for (&l, &b) in &self.link_overrides {
            table[l as usize] = b;
        }
        table
    }

    /// Iterate the per-node fault assignments in ascending node id — the
    /// complete node-level content of the plan (canonical serialization,
    /// diffing, reporting).
    pub fn node_fault_entries(&self) -> impl Iterator<Item = (NodeId, NodeFault)> + '_ {
        self.node_faults.iter().map(|(&n, &f)| (n, f))
    }

    /// Iterate the explicit per-link behaviour overrides in ascending link
    /// id — the complete link-level content of the plan.
    pub fn link_override_entries(&self) -> impl Iterator<Item = (LinkId, LinkBehavior)> + '_ {
        self.link_overrides.iter().map(|(&l, &b)| (l, b))
    }

    /// The number of *layers that contain a faulty node* among layers
    /// `1..=up_to_layer` — the paper's `f_ℓ` of Lemma 5. Only meaningful for
    /// coordinate-bearing graphs.
    pub fn faulty_layers(&self, graph: &PulseGraph, up_to_layer: u32) -> usize {
        let mut layers: Vec<u32> = self
            .node_faults
            .keys()
            .filter_map(|&n| graph.coord(n))
            .map(|c| c.layer)
            .filter(|&l| l >= 1 && l <= up_to_layer)
            .collect();
        layers.sort_unstable();
        layers.dedup();
        layers.len()
    }
}

/// How a healed node rejoins the grid after a scripted fault window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejoinState {
    /// Rejoin with a freshly reset local state: awake, all memory flags
    /// cleared, no pending timeouts (the "repaired and power-cycled" model).
    Clean,
    /// Rejoin with adversarial local state: the engine draws an arbitrary
    /// sleep/flag assignment plus residual timers, exactly like the
    /// corrupted-initialization seeding — the self-stabilization stress case.
    Arbitrary,
}

/// One scripted change to the live fault state of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// `node` turns faulty with the given kind (its outgoing links adopt the
    /// fault's link behaviours; Byzantine links draw stuck-0/1 from the
    /// script RNG at apply time).
    Fail(NodeId, NodeFault),
    /// `node` heals: its outgoing links revert to their pre-script
    /// behaviours and its local state rejoins per [`RejoinState`].
    Heal(NodeId, RejoinState),
    /// `link` overrides to the given behaviour (a link-level flap onset).
    LinkDown(LinkId, LinkBehavior),
    /// `link` reverts to its pre-script behaviour.
    LinkUp(LinkId),
}

/// A fault transition scheduled at an absolute simulation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTransition {
    /// When the transition applies (event-queue ordered against regular
    /// simulation events; ties with same-time events resolve by push order).
    pub at: Time,
    /// What changes.
    pub event: FaultEvent,
}

/// A deterministic timeline of fault transitions — the dynamic counterpart
/// of the static [`FaultPlan`].
///
/// Transitions are kept **stably sorted by time**: same-time transitions
/// apply in insertion order, and overlapping directives follow a
/// last-writer-wins rule (a `Fail` after a `LinkDown` on one of the node's
/// out-links overwrites that link's behaviour, and vice versa). The sorted
/// order is part of the canonical encoding, so two scripts built from the
/// same transitions in the same insertion order hash identically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultScript {
    transitions: Vec<FaultTransition>,
}

impl FaultScript {
    /// The empty script (no dynamic transitions).
    pub fn none() -> Self {
        FaultScript::default()
    }

    /// Append a transition, keeping the timeline stably sorted by time.
    pub fn push(&mut self, at: Time, event: FaultEvent) {
        // After every transition at or before `at`: ties keep insertion
        // order, and an in-order append (a decoder's case) is O(log n)
        // rather than a re-sort.
        let ix = self.transitions.partition_point(|t| t.at <= at);
        self.transitions.insert(ix, FaultTransition { at, event });
    }

    /// Builder form of [`FaultScript::push`].
    pub fn with(mut self, at: Time, event: FaultEvent) -> Self {
        self.push(at, event);
        self
    }

    /// A transient fault burst: `node` turns faulty at `at` and heals at
    /// `heal_at` into `rejoin` state.
    pub fn burst(
        node: NodeId,
        fault: NodeFault,
        at: Time,
        heal_at: Time,
        rejoin: RejoinState,
    ) -> Self {
        assert!(heal_at > at, "burst must heal strictly after it starts");
        FaultScript::none()
            .with(at, FaultEvent::Fail(node, fault))
            .with(heal_at, FaultEvent::Heal(node, rejoin))
    }

    /// Crash-then-rejoin: a fail-silent window `[at, heal_at)` followed by
    /// recovery into `rejoin` state.
    pub fn crash_rejoin(node: NodeId, at: Time, heal_at: Time, rejoin: RejoinState) -> Self {
        FaultScript::burst(node, NodeFault::FailSilent, at, heal_at, rejoin)
    }

    /// Rolling churn: `count` single-node crash windows, one every `period`
    /// starting at `start`, each lasting `down` and healing into `rejoin`.
    /// Victims are drawn from `candidates` with `rng` (seeded ⇒ the script
    /// is a pure function of its inputs). `down <= period` keeps at most
    /// one scripted node faulty at any instant.
    pub fn churn(
        candidates: &[NodeId],
        start: Time,
        down: Duration,
        period: Duration,
        count: usize,
        rejoin: RejoinState,
        rng: &mut SimRng,
    ) -> Self {
        assert!(!candidates.is_empty(), "churn needs victim candidates");
        assert!(down.is_positive(), "churn down-time must be positive");
        assert!(down <= period, "churn windows must not overlap");
        let mut script = FaultScript::none();
        for k in 0..count {
            let node = candidates[rng.index(candidates.len())];
            let at = start + period.times(k as i64);
            script.push(at, FaultEvent::Fail(node, NodeFault::FailSilent));
            script.push(at + down, FaultEvent::Heal(node, rejoin));
        }
        script
    }

    /// A link-level flap: `link` behaves as `behavior` during `[at, up_at)`.
    pub fn link_flap(link: LinkId, behavior: LinkBehavior, at: Time, up_at: Time) -> Self {
        assert!(up_at > at, "flap must end strictly after it starts");
        FaultScript::none()
            .with(at, FaultEvent::LinkDown(link, behavior))
            .with(up_at, FaultEvent::LinkUp(link))
    }

    /// Merge another script's transitions into this one (stable order:
    /// same-time transitions of `self` apply before `other`'s).
    pub fn merged(mut self, other: FaultScript) -> Self {
        self.transitions.extend(other.transitions);
        self.transitions.sort_by_key(|t| t.at);
        self
    }

    /// The timeline, sorted by time (ties in insertion order).
    pub fn transitions(&self) -> &[FaultTransition] {
        &self.transitions
    }

    /// Number of transitions.
    pub fn len(&self) -> usize {
        self.transitions.len()
    }

    /// True iff the script has no transitions.
    pub fn is_empty(&self) -> bool {
        self.transitions.is_empty()
    }

    /// Time of the last transition, if any.
    pub fn last_at(&self) -> Option<Time> {
        self.transitions.last().map(|t| t.at)
    }

    /// Distinct disturbance-onset times (each `Fail`/`LinkDown`), ascending —
    /// the anchor points of per-disturbance re-stabilization measurement.
    pub fn disturbance_times(&self) -> Vec<Time> {
        let mut times: Vec<Time> = self
            .transitions
            .iter()
            .filter(|t| matches!(t.event, FaultEvent::Fail(..) | FaultEvent::LinkDown(..)))
            .map(|t| t.at)
            .collect();
        times.dedup();
        times
    }

    /// Panics unless every referenced node/link id is in range — the
    /// engine-facing sanity gate (decode paths check before running).
    pub fn assert_in_bounds(&self, node_count: usize, link_count: usize) {
        for t in &self.transitions {
            match t.event {
                FaultEvent::Fail(n, _) | FaultEvent::Heal(n, _) => assert!(
                    (n as usize) < node_count,
                    "script references node {n} of a {node_count}-node graph"
                ),
                FaultEvent::LinkDown(l, _) | FaultEvent::LinkUp(l) => assert!(
                    (l as usize) < link_count,
                    "script references link {l} of a {link_count}-link graph"
                ),
            }
        }
    }
}

/// Check **Condition 1** (fault separation): for each node of the graph, at
/// most one of its incoming links connects to a faulty neighbor.
pub fn satisfies_condition1(graph: &PulseGraph, faulty: &[NodeId]) -> bool {
    let mut is_faulty = vec![false; graph.node_count()];
    for &f in faulty {
        is_faulty[f as usize] = true;
    }
    graph.node_ids().all(|n| {
        graph
            .in_neighbors(n)
            .filter(|&m| is_faulty[m as usize])
            .count()
            <= 1
    })
}

/// Place `f` faulty nodes uniformly at random among `candidates`, rejecting
/// placements that violate Condition 1 — the evaluation's fault placement
/// (Sections 4.3/4.4). Returns `None` if no valid placement was found within
/// `max_attempts` (the condition caps the feasible fault density at
/// Θ(√n) in expectation, so dense requests can be infeasible).
pub fn place_condition1(
    graph: &PulseGraph,
    candidates: &[NodeId],
    f: usize,
    rng: &mut SimRng,
    max_attempts: usize,
) -> Option<Vec<NodeId>> {
    if f == 0 {
        return Some(Vec::new());
    }
    if f > candidates.len() {
        return None;
    }
    let mut pool: Vec<NodeId> = candidates.to_vec();
    for _ in 0..max_attempts {
        rng.shuffle(&mut pool);
        let pick: Vec<NodeId> = pool[..f].to_vec();
        if satisfies_condition1(graph, &pick) {
            let mut sorted = pick;
            sorted.sort_unstable();
            return Some(sorted);
        }
    }
    None
}

/// Convenience: all forwarder nodes of a graph (the usual fault candidates —
/// the evaluation keeps layer 0 correct so skews stay well-defined).
pub fn forwarder_candidates(graph: &PulseGraph) -> Vec<NodeId> {
    graph
        .node_ids()
        .filter(|&n| graph.role(n) == crate::graph::Role::Forwarder)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::HexGrid;
    use proptest::prelude::*;

    #[test]
    fn resolve_fail_silent() {
        let g = HexGrid::new(3, 5);
        let victim = g.node(1, 2);
        let plan = FaultPlan::none().with_node(victim, NodeFault::FailSilent);
        let mut rng = SimRng::seed_from_u64(1);
        let table = plan.resolve(g.graph(), &mut rng);
        for &l in g.graph().out_links(victim) {
            assert_eq!(table[l as usize], LinkBehavior::StuckZero);
        }
        // Everything else correct.
        let faulty_links: Vec<_> = g.graph().out_links(victim).to_vec();
        for l in 0..g.graph().link_count() as u32 {
            if !faulty_links.contains(&l) {
                assert_eq!(table[l as usize], LinkBehavior::Correct);
            }
        }
    }

    #[test]
    fn resolve_byzantine_mixes_behaviors() {
        let g = HexGrid::new(6, 8);
        let victim = g.node(2, 3);
        let plan = FaultPlan::none().with_node(victim, NodeFault::Byzantine);
        // Over several seeds we should see both stuck-0 and stuck-1.
        let (mut zeros, mut ones) = (0, 0);
        for seed in 0..32 {
            let mut rng = SimRng::seed_from_u64(seed);
            let table = plan.resolve(g.graph(), &mut rng);
            for &l in g.graph().out_links(victim) {
                match table[l as usize] {
                    LinkBehavior::StuckZero => zeros += 1,
                    LinkBehavior::StuckOne => ones += 1,
                    LinkBehavior::Correct => panic!("faulty link resolved correct"),
                }
            }
        }
        assert!(zeros > 0 && ones > 0);
    }

    #[test]
    fn link_override_wins() {
        let g = HexGrid::new(3, 5);
        let victim = g.node(1, 2);
        let l0 = g.graph().out_links(victim)[0];
        let plan = FaultPlan::none()
            .with_node(victim, NodeFault::FailSilent)
            .with_link(l0, LinkBehavior::StuckOne);
        let mut rng = SimRng::seed_from_u64(1);
        let table = plan.resolve(g.graph(), &mut rng);
        assert_eq!(table[l0 as usize], LinkBehavior::StuckOne);
    }

    #[test]
    fn condition1_detects_violation() {
        let g = HexGrid::new(3, 6);
        // (1,2) and (1,3) are both in-neighbors of (2,2): left+lower pairs.
        // Specifically (2,2) hears (1,2)? in-neighbors of (2,2): (2,1),(1,2),(1,3),(2,3).
        let a = g.node(1, 2);
        let b = g.node(1, 3);
        assert!(!satisfies_condition1(g.graph(), &[a, b]));
        // Far-apart faults are fine.
        let c = g.node(3, 0);
        assert!(satisfies_condition1(g.graph(), &[a, c]));
    }

    #[test]
    fn condition1_empty_and_single() {
        let g = HexGrid::new(2, 4);
        assert!(satisfies_condition1(g.graph(), &[]));
        for n in g.graph().node_ids() {
            assert!(satisfies_condition1(g.graph(), &[n]));
        }
    }

    #[test]
    fn placement_respects_condition1() {
        let g = HexGrid::paper();
        let candidates = forwarder_candidates(g.graph());
        let mut rng = SimRng::seed_from_u64(7);
        for f in 0..=5 {
            let placed = place_condition1(g.graph(), &candidates, f, &mut rng, 1000)
                .expect("placement feasible on 50x20");
            assert_eq!(placed.len(), f);
            assert!(satisfies_condition1(g.graph(), &placed));
        }
    }

    #[test]
    fn placement_infeasible_when_too_dense() {
        let g = HexGrid::new(2, 4);
        let candidates = forwarder_candidates(g.graph());
        let mut rng = SimRng::seed_from_u64(1);
        // 8 faults among 8 forwarders can never satisfy Condition 1.
        assert_eq!(
            place_condition1(g.graph(), &candidates, 8, &mut rng, 200),
            None
        );
    }

    #[test]
    fn faulty_layers_counts_distinct_layers() {
        let g = HexGrid::new(5, 6);
        let plan = FaultPlan::none()
            .with_node(g.node(2, 0), NodeFault::Byzantine)
            .with_node(g.node(2, 3), NodeFault::Byzantine)
            .with_node(g.node(4, 1), NodeFault::FailSilent);
        assert_eq!(plan.faulty_layers(g.graph(), 5), 2);
        assert_eq!(plan.faulty_layers(g.graph(), 3), 1);
        assert_eq!(plan.faulty_layers(g.graph(), 1), 0);
    }

    #[test]
    fn script_keeps_transitions_sorted() {
        let s = FaultScript::none()
            .with(Time::from_ps(500), FaultEvent::Heal(3, RejoinState::Clean))
            .with(
                Time::from_ps(100),
                FaultEvent::Fail(3, NodeFault::Byzantine),
            )
            .with(Time::from_ps(300), FaultEvent::LinkUp(7));
        let at: Vec<i64> = s.transitions().iter().map(|t| t.at.ps()).collect();
        assert_eq!(at, vec![100, 300, 500]);
        assert_eq!(s.len(), 3);
        assert_eq!(s.last_at(), Some(Time::from_ps(500)));
    }

    #[test]
    fn script_same_time_transitions_keep_insertion_order() {
        let t = Time::from_ps(200);
        let s = FaultScript::none()
            .with(t, FaultEvent::Fail(1, NodeFault::FailSilent))
            .with(t, FaultEvent::Fail(2, NodeFault::FailSilent))
            .with(t, FaultEvent::Heal(1, RejoinState::Clean));
        let events: Vec<FaultEvent> = s.transitions().iter().map(|tr| tr.event).collect();
        assert_eq!(
            events,
            vec![
                FaultEvent::Fail(1, NodeFault::FailSilent),
                FaultEvent::Fail(2, NodeFault::FailSilent),
                FaultEvent::Heal(1, RejoinState::Clean),
            ]
        );
    }

    #[test]
    fn burst_and_flap_shapes() {
        let b = FaultScript::burst(
            5,
            NodeFault::Byzantine,
            Time::from_ps(10),
            Time::from_ps(40),
            RejoinState::Arbitrary,
        );
        assert_eq!(
            b.transitions()[0].event,
            FaultEvent::Fail(5, NodeFault::Byzantine)
        );
        assert_eq!(
            b.transitions()[1].event,
            FaultEvent::Heal(5, RejoinState::Arbitrary)
        );
        assert_eq!(b.disturbance_times(), vec![Time::from_ps(10)]);

        let f = FaultScript::link_flap(
            9,
            LinkBehavior::StuckOne,
            Time::from_ps(5),
            Time::from_ps(25),
        );
        assert_eq!(
            f.transitions()[0].event,
            FaultEvent::LinkDown(9, LinkBehavior::StuckOne)
        );
        assert_eq!(f.transitions()[1].event, FaultEvent::LinkUp(9));
    }

    #[test]
    #[should_panic(expected = "strictly after")]
    fn burst_rejects_empty_window() {
        FaultScript::burst(
            0,
            NodeFault::FailSilent,
            Time::from_ps(10),
            Time::from_ps(10),
            RejoinState::Clean,
        );
    }

    #[test]
    fn churn_is_a_pure_function_of_the_seed() {
        let g = HexGrid::new(4, 6);
        let candidates = forwarder_candidates(g.graph());
        let build = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            FaultScript::churn(
                &candidates,
                Time::from_ps(1_000),
                Duration::from_ps(400),
                Duration::from_ps(500),
                4,
                RejoinState::Clean,
                &mut rng,
            )
        };
        assert_eq!(build(42), build(42));
        assert_eq!(build(42).len(), 8); // 4 fail + 4 heal
                                        // Each window heals before (or exactly when) the next one starts.
        let s = build(42);
        assert_eq!(s.disturbance_times().len(), 4);
        for w in s.transitions().windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn merged_interleaves_by_time() {
        let a = FaultScript::crash_rejoin(
            1,
            Time::from_ps(100),
            Time::from_ps(300),
            RejoinState::Clean,
        );
        let b = FaultScript::crash_rejoin(
            2,
            Time::from_ps(200),
            Time::from_ps(400),
            RejoinState::Clean,
        );
        let m = a.merged(b);
        let at: Vec<i64> = m.transitions().iter().map(|t| t.at.ps()).collect();
        assert_eq!(at, vec![100, 200, 300, 400]);
    }

    #[test]
    #[should_panic(expected = "references node")]
    fn bounds_check_rejects_out_of_range_node() {
        FaultScript::none()
            .with(
                Time::from_ps(1),
                FaultEvent::Fail(99, NodeFault::FailSilent),
            )
            .assert_in_bounds(10, 10);
    }

    proptest! {
        // Shared CI case budget: pin 32 cases (= compat/proptest DEFAULT_CASES).
        #![proptest_config(ProptestConfig::with_cases(32))]
        /// Random Condition-1 placements always verify, for many seeds and
        /// grid shapes.
        #[test]
        fn prop_placement_valid(seed in any::<u64>(), l in 3u32..8, w in 4u32..10, f in 0usize..4) {
            let g = HexGrid::new(l, w);
            let candidates = forwarder_candidates(g.graph());
            let mut rng = SimRng::seed_from_u64(seed);
            if let Some(placed) = place_condition1(g.graph(), &candidates, f, &mut rng, 500) {
                prop_assert_eq!(placed.len(), f);
                prop_assert!(satisfies_condition1(g.graph(), &placed));
                // Returned sorted and deduplicated.
                let mut copy = placed.clone();
                copy.sort_unstable();
                copy.dedup();
                prop_assert_eq!(copy, placed);
            }
        }

        /// Condition 1 is monotone: removing a fault never invalidates it.
        #[test]
        fn prop_condition1_monotone(seed in any::<u64>(), f in 1usize..5) {
            let g = HexGrid::new(5, 8);
            let candidates = forwarder_candidates(g.graph());
            let mut rng = SimRng::seed_from_u64(seed);
            if let Some(placed) = place_condition1(g.graph(), &candidates, f, &mut rng, 500) {
                for skip in 0..placed.len() {
                    let subset: Vec<_> = placed
                        .iter()
                        .enumerate()
                        .filter(|&(i, _)| i != skip)
                        .map(|(_, &n)| n)
                        .collect();
                    prop_assert!(satisfies_condition1(g.graph(), &subset));
                }
            }
        }
    }
}

//! The dynamic twin of the `hex-lint` static rules: `debug_assert!`
//! invariants wired into the engine and both event-queue
//! implementations must hold across every queue policy.
//!
//! Tests compile with `debug_assertions` on, so simply *driving* the
//! engine through demanding regimes (Byzantine, mixed, arbitrary
//! initial states, multi-pulse, scratch reuse) exercises:
//!
//! * pop-time monotonicity in `EventQueue` / `CalendarQueue` (`pop`
//!   never hands back an instant behind `now`);
//! * the engine's epoch bounds (no `LinkTimeout`/`Wake` ever pops with
//!   an epoch newer than its target's counter).
//!
//! The cross-policy equality assertions double as the reason the
//! invariants *can* be this strict: both queues are pinned to one
//! observable behavior.

use hex_sim::engine::SimScratch;
use hex_sim::{FaultRegime, InitState, QueuePolicy, RunSpec};

fn demanding_specs() -> Vec<(&'static str, RunSpec)> {
    vec![
        ("fault-free", RunSpec::grid(10, 8).runs(3).pulses(2)),
        (
            "byzantine-arbitrary-init",
            RunSpec::grid(8, 6)
                .runs(3)
                .pulses(3)
                .faults(FaultRegime::Byzantine(2))
                .init(InitState::Arbitrary)
                .seed(42),
        ),
        (
            "mixed-faults",
            RunSpec::grid(7, 6)
                .runs(3)
                .pulses(2)
                .faults(FaultRegime::Mixed {
                    byzantine: 1,
                    fail_silent: 1,
                })
                .seed(7),
        ),
    ]
}

/// Every queue policy survives every demanding regime with debug
/// assertions enabled, and produces the same batch output.
#[test]
fn invariants_hold_across_all_queue_policies() {
    // The point of this test is exercising the queues' debug_assert!
    // invariants; under a release test profile only the output-equality
    // half still bites, so flag that loudly instead of failing.
    if !cfg!(debug_assertions) {
        eprintln!("note: debug assertions are off; only checking output equality");
    }
    for (name, spec) in demanding_specs() {
        let reference = spec.clone().queue(QueuePolicy::BinaryHeap).run_batch();
        for policy in QueuePolicy::ALL {
            let got = spec.clone().queue(policy).run_batch();
            assert_eq!(got, reference, "{name} under {policy:?}");
        }
    }
}

/// Scratch reuse across policy switches keeps the invariants intact:
/// one dirty arena is driven through both queues in turn.
#[test]
fn invariants_hold_through_dirty_scratch_policy_switches() {
    let mut scratch = SimScratch::new();
    for (name, spec) in demanding_specs() {
        let grid = spec.hex_grid();
        let mut outputs = Vec::new();
        for policy in QueuePolicy::ALL {
            let spec = spec.clone().queue(policy);
            for run in 0..spec_runs(&spec) {
                let view = spec.run_one_into(&grid, &mut scratch, run).clone();
                outputs.push((policy, run, view));
            }
        }
        // Per-run outputs agree pairwise across the policies.
        let per_policy = outputs.len() / QueuePolicy::ALL.len();
        for k in 0..per_policy {
            let (_, _, ref a) = outputs[k];
            for p in 1..QueuePolicy::ALL.len() {
                let (policy, run, ref b) = outputs[p * per_policy + k];
                assert_eq!(a, b, "{name} run {run} under {policy:?}");
            }
        }
    }
}

fn spec_runs(spec: &RunSpec) -> usize {
    // The demanding specs all use 3 runs; keep in one place.
    let _ = spec;
    3
}

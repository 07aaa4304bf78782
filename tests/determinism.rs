//! Reproducibility guarantees: everything is a pure function of
//! `(config, seed)`, independent of thread count.

use hexclock::prelude::*;

#[test]
fn simulation_bitwise_reproducible() {
    let grid = HexGrid::new(20, 12);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 12]);
    let cfg = SimConfig::fault_free();
    let a = simulate(grid.graph(), &sched, &cfg, 123);
    let b = simulate(grid.graph(), &sched, &cfg, 123);
    assert_eq!(a.fires, b.fires);
}

#[test]
fn different_seeds_different_executions() {
    let grid = HexGrid::new(10, 8);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 8]);
    let cfg = SimConfig::fault_free();
    let a = simulate(grid.graph(), &sched, &cfg, 1);
    let b = simulate(grid.graph(), &sched, &cfg, 2);
    assert_ne!(a.fires, b.fires);
}

#[test]
fn batch_output_independent_of_thread_count() {
    let grid = HexGrid::new(15, 10);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 10]);
    let cfg = SimConfig::fault_free();
    let job = |threads: usize| {
        run_batch(24, threads, |run| {
            let trace = simulate(grid.graph(), &sched, &cfg, run as u64);
            trace
                .fires
                .iter()
                .flat_map(|fs| fs.iter().map(|&(t, _)| t.ps()))
                .sum::<i64>()
        })
    };
    let t1 = job(1);
    let t4 = job(4);
    let t8 = job(8);
    assert_eq!(t1, t4);
    assert_eq!(t4, t8);
}

#[test]
fn faulty_runs_reproducible_including_byzantine_choices() {
    let grid = HexGrid::new(12, 10);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 10]);
    let cfg = SimConfig {
        faults: FaultPlan::none().with_node(grid.node(3, 3), NodeFault::Byzantine),
        timing: Timing::paper_scenario_iii(),
        ..SimConfig::fault_free()
    };
    let a = simulate(grid.graph(), &sched, &cfg, 55);
    let b = simulate(grid.graph(), &sched, &cfg, 55);
    assert_eq!(a.fires, b.fires);
}

#[test]
fn arbitrary_init_reproducible() {
    let grid = HexGrid::new(10, 8);
    let mut rng = SimRng::seed_from_u64(9);
    let sched = PulseTrain::new(Scenario::Zero, 4, Duration::from_ns(300.0)).generate(8, &mut rng);
    let cfg = SimConfig {
        timing: Timing::paper_scenario_iii(),
        init: InitState::Arbitrary,
        ..SimConfig::fault_free()
    };
    let a = simulate(grid.graph(), &sched, &cfg, 66);
    let b = simulate(grid.graph(), &sched, &cfg, 66);
    assert_eq!(a.fires, b.fires);
}

/// Workspace smoke test: two runs of `simulate` with the same seed must be
/// **byte-identical**, not merely equal on the fields a struct comparison
/// happens to cover. The full trace is serialized through the VCD exporter
/// (which visits every arrival, cause, and timestamp) and compared as raw
/// bytes.
#[test]
fn same_seed_traces_serialize_byte_identical() {
    use hexclock::sim::{vcd_document, VcdOptions};

    let grid = HexGrid::new(20, 12);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 12]);
    let cfg = SimConfig {
        timing: Timing::paper_scenario_iii(),
        ..SimConfig::fault_free()
    };
    let a = simulate(grid.graph(), &sched, &cfg, 2024);
    let b = simulate(grid.graph(), &sched, &cfg, 2024);
    let doc_a = vcd_document(&grid, &a, &VcdOptions::default());
    let doc_b = vcd_document(&grid, &b, &VcdOptions::default());
    assert!(!doc_a.is_empty());
    assert_eq!(doc_a.as_bytes(), doc_b.as_bytes(), "traces diverged");

    // A different seed must not reproduce the same execution byte-for-byte
    // (guards against the exporter ignoring the trace contents).
    let c = simulate(grid.graph(), &sched, &cfg, 2025);
    let doc_c = vcd_document(&grid, &c, &VcdOptions::default());
    assert_ne!(doc_a.as_bytes(), doc_c.as_bytes());
}

/// Dynamic-regime wall: a run under a live [`FaultScript`] — Byzantine
/// burst, crash-rejoin and a link flap overlapping a multi-pulse train —
/// serializes byte-identically on the calendar ring, through a dirty
/// reused scratch, to the binary heap's event-at-a-time reference run on
/// fresh allocations. Scripted fault windows are simulation *content*;
/// the event list must stay a pure performance knob around them.
#[test]
fn scripted_runs_serialize_byte_identical_across_policies_and_dispatch() {
    use hexclock::sim::{vcd_document, VcdOptions};

    let grid = HexGrid::new(10, 8);
    let mut rng = SimRng::seed_from_u64(31);
    let sched = PulseTrain::new(Scenario::Zero, 5, Duration::from_ns(300.0)).generate(8, &mut rng);
    let flapped = grid.graph().out_links(grid.node(1, 1))[0];
    let script = FaultScript::burst(
        grid.node(3, 2),
        NodeFault::Byzantine,
        Time::from_ns(120.0),
        Time::from_ns(520.0),
        RejoinState::Arbitrary,
    )
    .merged(FaultScript::crash_rejoin(
        grid.node(6, 5),
        Time::from_ns(400.0),
        Time::from_ns(900.0),
        RejoinState::Clean,
    ))
    .merged(FaultScript::link_flap(
        flapped,
        LinkBehavior::StuckOne,
        Time::from_ns(700.0),
        Time::from_ns(1_100.0),
    ));
    let base = SimConfig {
        script: Some(script),
        timing: Timing::paper_scenario_iii(),
        init: InitState::Arbitrary,
        record_arrivals: true,
        ..SimConfig::fault_free()
    };

    let reference = SimConfig {
        queue: QueuePolicy::BinaryHeap,
        ..base.clone()
    };
    let fresh = simulate(grid.graph(), &sched, &reference, 606);
    let doc_fresh = vcd_document(&grid, &fresh, &VcdOptions::default());
    assert!(!doc_fresh.is_empty());

    // Dirty scratch: polluted by a different shape/fault plan/seed first.
    let mut scratch = SimScratch::new();
    let decoy_grid = HexGrid::new(5, 6);
    let decoy_sched = Schedule::single_pulse(vec![Time::ZERO; 6]);
    simulate_into(
        &mut scratch,
        decoy_grid.graph(),
        &decoy_sched,
        &SimConfig {
            faults: FaultPlan::none().with_node(decoy_grid.node(2, 1), NodeFault::FailSilent),
            timing: Timing::paper_scenario_iii(),
            record_arrivals: true,
            ..SimConfig::fault_free()
        },
        999,
    );

    for policy in QueuePolicy::ALL {
        let cfg = SimConfig {
            queue: policy,
            ..base.clone()
        };
        let reused = simulate_into(&mut scratch, grid.graph(), &sched, &cfg, 606);
        assert_eq!(&fresh, reused, "{policy:?}: scripted trace diverged");
        let doc_reused = vcd_document(&grid, reused, &VcdOptions::default());
        assert_eq!(
            doc_fresh.as_bytes(),
            doc_reused.as_bytes(),
            "{policy:?}: scripted serialization diverged"
        );
    }
}

/// Metamorphic check at the experiment level: a script whose only window
/// opens *and heals* before the pulse wave can reach its victim must be
/// invisible — [`FaultRegime::Script`] output matches [`FaultRegime::None`]
/// exactly, run for run. Script-internal randomness draws from a salted
/// side stream, so merely carrying a script must not perturb the run.
#[test]
fn script_healed_before_the_wave_matches_fault_free_exactly() {
    let base = RunSpec::grid(10, 6).runs(3).seed(17).pulses(3);
    let grid = base.hex_grid();
    // Victim on layer 8: the wave needs at least 8 minimum link delays
    // to get there, and the whole fault window is over well before that.
    let victim = grid.node(8, 3);
    let heal = Time::from_ps(20_000);
    assert!(
        heal < Time::ZERO + D_MINUS.times(8),
        "window not early enough"
    );
    let script = FaultScript::crash_rejoin(victim, Time::from_ps(1_000), heal, RejoinState::Clean);
    let scripted = base.clone().faults(FaultRegime::Script(script));
    for run in 0..3 {
        let (plain, _) = base.trace(run);
        let (with_script, _) = scripted.trace(run);
        assert_eq!(
            plain, with_script,
            "run {run}: a healed-before-arrival script left a trace"
        );
    }
}

/// Scratch-reuse wall: `simulate_into` on a **dirty, reused** `SimScratch`
/// must be byte-identical (VCD serialization) to fresh `simulate`, across
/// the fault-free, Byzantine, and Mixed regimes and across init states,
/// with the binary heap's event-at-a-time run as the fresh reference.
/// The scratch is deliberately polluted by a run of a *different* grid
/// shape, fault plan and seed before every comparison, and carried from
/// one regime to the next.
#[test]
fn dirty_scratch_runs_serialize_byte_identical_to_fresh() {
    use hexclock::sim::{vcd_document, VcdOptions};

    let grid = HexGrid::new(12, 8);
    let sched = Schedule::single_pulse(vec![Time::ZERO; 8]);
    let mut rng = SimRng::seed_from_u64(77);
    let multi = PulseTrain::new(Scenario::Zero, 3, Duration::from_ns(300.0)).generate(8, &mut rng);

    // Mixed regime: one Byzantine plus one fail-silent node, placed like
    // the RunSpec mixed regime does (Condition 1 over the union).
    let mut place_rng = SimRng::seed_from_u64(5);
    let mixed = FaultRegime::Mixed {
        byzantine: 1,
        fail_silent: 1,
    }
    .plan(&grid, &mut place_rng);
    assert_eq!(mixed.fault_count(), 2);

    let regimes: Vec<(&str, SimConfig, &Schedule)> = vec![
        (
            "fault-free",
            SimConfig {
                timing: Timing::paper_scenario_iii(),
                record_arrivals: true,
                ..SimConfig::fault_free()
            },
            &sched,
        ),
        (
            "byzantine",
            SimConfig {
                faults: FaultPlan::none().with_node(grid.node(4, 2), NodeFault::Byzantine),
                timing: Timing::paper_scenario_iii(),
                record_arrivals: true,
                ..SimConfig::fault_free()
            },
            &sched,
        ),
        (
            "byzantine-arbitrary",
            SimConfig {
                faults: FaultPlan::none().with_node(grid.node(4, 2), NodeFault::Byzantine),
                timing: Timing::paper_scenario_iii(),
                init: InitState::Arbitrary,
                record_arrivals: true,
                ..SimConfig::fault_free()
            },
            &multi,
        ),
        (
            "mixed",
            SimConfig {
                faults: mixed,
                timing: Timing::paper_scenario_iii(),
                init: InitState::Arbitrary,
                record_arrivals: true,
                ..SimConfig::fault_free()
            },
            &multi,
        ),
    ];

    let mut scratch = SimScratch::new();
    // Pollute: different shape, different fault plan, different seed.
    let decoy_grid = HexGrid::new(5, 6);
    let decoy_sched = Schedule::single_pulse(vec![Time::ZERO; 6]);
    let decoy_cfg = SimConfig {
        faults: FaultPlan::none().with_node(decoy_grid.node(2, 1), NodeFault::FailSilent),
        init: InitState::AllFlagsSet,
        timing: Timing::paper_scenario_iii(),
        record_arrivals: true,
        ..SimConfig::fault_free()
    };
    simulate_into(
        &mut scratch,
        decoy_grid.graph(),
        &decoy_sched,
        &decoy_cfg,
        999,
    );

    for (name, cfg, schedule) in &regimes {
        for seed in [7u64, 8] {
            // The reference execution: fresh allocations, one event at a
            // time on the binary heap.
            let reference = SimConfig {
                queue: QueuePolicy::BinaryHeap,
                ..cfg.clone()
            };
            let fresh = simulate(grid.graph(), schedule, &reference, seed);
            let doc_fresh = vcd_document(&grid, &fresh, &VcdOptions::default());
            assert!(!doc_fresh.is_empty());
            // Both queue policies, run through the same carried-over dirty
            // scratch, must serialize byte-identically to that reference:
            // the event list is a pure performance knob.
            for policy in QueuePolicy::ALL {
                let cfg = SimConfig {
                    queue: policy,
                    ..cfg.clone()
                };
                let reused = simulate_into(&mut scratch, grid.graph(), schedule, &cfg, seed);
                assert_eq!(
                    &fresh, reused,
                    "{name}/seed {seed}/{policy:?}: \
                     trace structs diverged under scratch reuse"
                );
                let doc_reused = vcd_document(&grid, reused, &VcdOptions::default());
                assert_eq!(
                    doc_fresh.as_bytes(),
                    doc_reused.as_bytes(),
                    "{name}/seed {seed}/{policy:?}: \
                     serialized traces diverged under scratch reuse"
                );
            }
        }
    }
}

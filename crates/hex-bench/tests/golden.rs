//! Golden digests of the skew pipeline's outputs and of the figure
//! binaries' stdout.
//!
//! Every entry of `GOLDEN.txt` is `<name> <fnv1a-64 hex>`:
//!
//! * `table/<scenario>/<faults>/runs<N>` — the bytes of
//!   `skew_summary_table(&batch_skews(spec, 0)).to_json()` on the paper's
//!   50×20 grid (the `hexd` skew payload);
//! * `per_run/<scenario>/<faults>/runs<N>` — the bit patterns of every
//!   per-run intra- and inter-layer [`Summary`], in run order;
//! * `bin/<name>` — the stdout of a figure/table binary at `HEX_RUNS=2`;
//! * `engine/<regime>/seed<S>/{vcd,counters,skew,stabilization}` — the
//!   engine matrix on a 12×8 grid, 4 runs per seed: the VCD export of
//!   every run's trace, the `popped_events`/`stale_events` counters of the
//!   trace and observed paths, and the observed-fold skew and
//!   stabilization tables, for fault-free, static Byzantine, Mixed,
//!   arbitrary-init, all-flags-set and scripted regimes;
//! * `campaign/<shape>/seed<S>` — `campaign_summary_table` JSON of the
//!   burst, crash and churn campaigns on the same grid.
//!
//! A mismatch means an output changed. If the change is deliberate,
//! re-pin with `scripts/regen_golden.sh` and record why in CHANGES.md;
//! the test never rewrites the file itself.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use hex_analysis::reduce::{
    batch_skews, campaign_restabilization, skew_summary_table, ObservedSkewReducer,
    ObservedStabilizationReducer,
};
use hex_analysis::stabilization::{
    campaign_summary_table, stabilization_summary_table, summarize, Criterion,
};
use hex_analysis::stats::Summary;
use hex_clock::Scenario;
use hex_core::fault::forwarder_candidates;
use hex_core::{FaultScript, LinkBehavior, NodeFault, RejoinState, D_PLUS};
use hex_des::{SimRng, Time};
use hex_sim::canon::fnv1a_64;
use hex_sim::{
    simulate_into, vcd_document, FaultRegime, InitState, RunSpec, SimScratch, VcdOptions,
};

const GOLDEN: &str = include_str!("GOLDEN.txt");

/// The binaries whose stdout is pinned, with their executables.
const BINS: [(&str, &str); 4] = [
    ("table1", env!("CARGO_BIN_EXE_table1")),
    ("fig10", env!("CARGO_BIN_EXE_fig10")),
    ("fig11", env!("CARGO_BIN_EXE_fig11")),
    ("theorem1", env!("CARGO_BIN_EXE_theorem1")),
];

/// FNV-1a over the exact bits of every field of every summary.
fn summary_bits_digest(summaries: &[Summary]) -> u64 {
    let mut bytes = Vec::with_capacity(summaries.len() * 56);
    for s in summaries {
        for v in [s.min, s.q05, s.avg, s.q95, s.max, s.std] {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        bytes.extend_from_slice(&(s.n as u64).to_le_bytes());
    }
    fnv1a_64(&bytes)
}

/// Digests of the skew tables and per-run summaries: 4 scenarios ×
/// {fault-free, 3 Byzantine} × {1, 16} runs on 50×20.
fn pipeline_digests(out: &mut BTreeMap<String, u64>) {
    for scenario in Scenario::ALL {
        for (tag, faults) in [
            ("none", FaultRegime::None),
            ("byzantine3", FaultRegime::Byzantine(3)),
        ] {
            for runs in [1, 16] {
                let spec = RunSpec::paper()
                    .scenario(scenario)
                    .faults(faults.clone())
                    .runs(runs);
                let skews = batch_skews(&spec, 0);
                let key = format!("{}/{tag}/runs{runs}", scenario.slug());
                let table = skew_summary_table(&skews).to_json();
                out.insert(format!("table/{key}"), fnv1a_64(table.as_bytes()));
                let mut per_run = skews.per_run_intra.clone();
                per_run.extend_from_slice(&skews.per_run_inter);
                out.insert(format!("per_run/{key}"), summary_bits_digest(&per_run));
            }
        }
    }
}

/// The engine matrix's grid: small enough that every regime runs in
/// milliseconds, large enough for three Condition-1 Byzantine nodes.
const ENGINE_GRID: (u32, u32) = (12, 8);
const ENGINE_RUNS: usize = 4;
const ENGINE_SEEDS: [u64; 3] = [1, 2, 3];

fn engine_base(seed: u64) -> RunSpec {
    RunSpec::grid(ENGINE_GRID.0, ENGINE_GRID.1)
        .scenario(Scenario::RandomDPlus)
        .seed(seed)
        .runs(ENGINE_RUNS)
        .threads(2)
}

/// A merged burst + crash-rejoin + link-flap timeline over `spec`'s grid,
/// scaled by its pulse separation.
fn merged_script(spec: &RunSpec) -> FaultScript {
    let grid = spec.hex_grid();
    let s = spec.separation();
    let onset = Time::ZERO + s + s / 2;
    let flapped = grid.graph().out_links(grid.node(5, 6))[0];
    FaultScript::burst(
        grid.node(6, 4),
        NodeFault::Byzantine,
        onset,
        onset + s.times(2),
        RejoinState::Arbitrary,
    )
    .merged(FaultScript::crash_rejoin(
        grid.node(3, 2),
        onset + s,
        onset + s.times(3),
        RejoinState::Clean,
    ))
    .merged(FaultScript::link_flap(
        flapped,
        LinkBehavior::StuckOne,
        onset + s / 2,
        onset + s.times(2),
    ))
}

/// The engine regimes of the matrix, each as a spec builder over a seed.
fn engine_regimes() -> Vec<(&'static str, RunSpec)> {
    let mut regimes = Vec::new();
    for seed in ENGINE_SEEDS {
        let base = engine_base(seed);
        let scripted = base.clone().pulses(6);
        let script = merged_script(&scripted);
        regimes.extend([
            ("fault_free", base.clone()),
            ("byzantine3", base.clone().faults(FaultRegime::Byzantine(3))),
            (
                "mixed",
                base.clone().faults(FaultRegime::Mixed {
                    byzantine: 1,
                    fail_silent: 2,
                }),
            ),
            (
                "arbitrary_byzantine2",
                base.clone()
                    .faults(FaultRegime::Byzantine(2))
                    .init(InitState::Arbitrary)
                    .pulses(8),
            ),
            (
                "all_flags_set",
                base.clone().init(InitState::AllFlagsSet).pulses(4),
            ),
            ("script", scripted.faults(FaultRegime::Script(script))),
        ]);
    }
    regimes
}

/// Digests of the engine matrix: VCD bytes and work counters of every
/// run, and the observed-fold skew (last pulse, 1-hop exclusion) and
/// stabilization tables of the batch.
fn engine_digests(out: &mut BTreeMap<String, u64>) {
    for (regime, spec) in engine_regimes() {
        let key = format!("engine/{regime}/seed{}", spec.seed);
        let grid = spec.hex_grid();
        let mut vcd = Vec::new();
        let mut counters = Vec::new();
        let mut scratch = SimScratch::new();
        for run in 0..spec.runs {
            let inputs = spec.materialize(run);
            let trace = simulate_into(
                &mut scratch,
                grid.graph(),
                &inputs.schedule,
                &inputs.config,
                inputs.seed,
            );
            vcd.extend_from_slice(vcd_document(&grid, trace, &VcdOptions::default()).as_bytes());
            counters.extend_from_slice(&scratch.popped_events().to_le_bytes());
            counters.extend_from_slice(&scratch.stale_events().to_le_bytes());
            spec.run_one_observed_into(&grid, &mut scratch, run);
            counters.extend_from_slice(&scratch.popped_events().to_le_bytes());
            counters.extend_from_slice(&scratch.stale_events().to_le_bytes());
        }
        out.insert(format!("{key}/vcd"), fnv1a_64(&vcd));
        out.insert(format!("{key}/counters"), fnv1a_64(&counters));

        let last = spec.pulses.max(1) - 1;
        let skews = spec.fold_observed(&ObservedSkewReducer::new(&grid, 1).at_pulse(last));
        let table = skew_summary_table(&skews).to_json();
        out.insert(format!("{key}/skew"), fnv1a_64(table.as_bytes()));

        let criteria = [Criterion::uniform(D_PLUS * 3, D_PLUS, grid.length())];
        let estimates = spec.fold_observed(&ObservedStabilizationReducer::new(&grid, &criteria, 1));
        let table = stabilization_summary_table(&summarize(&estimates[0])).to_json();
        out.insert(format!("{key}/stabilization"), fnv1a_64(table.as_bytes()));
    }
}

/// Digests of the `hexctl campaign` shapes (burst, crash, churn) on the
/// engine grid: the `campaign_summary_table` JSON of each.
fn campaign_digests(out: &mut BTreeMap<String, u64>) {
    for seed in ENGINE_SEEDS {
        let base = engine_base(seed).pulses(8);
        let grid = base.hex_grid();
        let (length, width) = ENGINE_GRID;
        let s = base.separation();
        let onset = Time::ZERO + s + s / 2;
        let victim = grid.node((length / 2).max(1), i64::from(width / 2));
        let cap = (length / 4).max(1);
        let mut candidates = forwarder_candidates(grid.graph());
        candidates.retain(|&n| grid.graph().coord(n).is_some_and(|c| c.layer <= cap));
        let shapes = [
            (
                "burst",
                FaultScript::burst(
                    victim,
                    NodeFault::Byzantine,
                    onset,
                    onset + s.times(2),
                    RejoinState::Arbitrary,
                ),
            ),
            (
                "crash",
                FaultScript::crash_rejoin(victim, onset, onset + s.times(2), RejoinState::Clean),
            ),
            (
                "churn",
                FaultScript::churn(
                    &candidates,
                    onset,
                    s,
                    s.times(3),
                    3,
                    RejoinState::Clean,
                    &mut SimRng::seed_from_u64(seed),
                ),
            ),
        ];
        let criterion = Criterion::uniform(D_PLUS * 3, D_PLUS, length);
        for (shape, script) in shapes {
            let spec = base.clone().faults(FaultRegime::Script(script));
            let stats = campaign_restabilization(&spec, &criterion, 0);
            let table = campaign_summary_table(&stats).to_json();
            out.insert(
                format!("campaign/{shape}/seed{seed}"),
                fnv1a_64(table.as_bytes()),
            );
        }
    }
}

/// Digests of each pinned binary's stdout at `HEX_RUNS=2`, with the
/// knobs that change what is printed (`HEX_SEED`, `HEX_EMIT`, `HEX_CSV`)
/// cleared. Execution knobs inherited from the environment (threads,
/// queue policy, dispatch, shards) are output-invariant by contract.
fn bin_digests(out: &mut BTreeMap<String, u64>) {
    for (name, exe) in BINS {
        let run = Command::new(exe)
            .env("HEX_RUNS", "2")
            .env_remove("HEX_SEED")
            .env_remove("HEX_EMIT")
            .env_remove("HEX_CSV")
            .output()
            .unwrap_or_else(|e| panic!("cannot run {name}: {e}"));
        assert!(
            run.status.success(),
            "{name} failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        out.insert(format!("bin/{name}"), fnv1a_64(&run.stdout));
    }
}

fn current() -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    pipeline_digests(&mut out);
    engine_digests(&mut out);
    campaign_digests(&mut out);
    bin_digests(&mut out);
    out
}

fn pinned() -> BTreeMap<String, u64> {
    GOLDEN
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let (name, hex) = l.split_once(' ').expect("`<name> <digest>` line");
            let digest = u64::from_str_radix(hex.trim(), 16).expect("hex digest");
            (name.to_string(), digest)
        })
        .collect()
}

fn show(digest: Option<&u64>) -> String {
    digest.map_or_else(|| "absent".to_string(), |d| format!("{d:016x}"))
}

#[test]
fn outputs_match_the_pinned_digests() {
    let pinned = pinned();
    let current = current();
    let names: BTreeSet<&String> = pinned.keys().chain(current.keys()).collect();
    let diffs: Vec<String> = names
        .into_iter()
        .filter(|name| pinned.get(*name) != current.get(*name))
        .map(|name| {
            format!(
                "{name}: pinned {}, now {}",
                show(pinned.get(name)),
                show(current.get(name))
            )
        })
        .collect();
    assert!(
        diffs.is_empty(),
        "{} golden digest(s) changed (re-pin deliberately with \
         scripts/regen_golden.sh and a CHANGES.md line):\n{}",
        diffs.len(),
        diffs.join("\n")
    );
}

/// Print the current digests in `GOLDEN.txt` format. Run only by
/// `scripts/regen_golden.sh`.
#[test]
#[ignore = "re-pinning only: scripts/regen_golden.sh"]
fn print_current_digests() {
    for (name, digest) in current() {
        println!("golden {name} {digest:016x}");
    }
}

//! The batch workloads, driven through `hex_sim` and `hex_analysis` alone.
//!
//! * `paper_sweep` — Table 1: a fault-free single pulse on the 50×20 grid,
//!   the four layer-0 scenarios in turn, 250 runs per point, through
//!   `batch_skews` and the skew summary table.
//! * `recovery` — one point is the Section-4.4 stabilization batch
//!   (arbitrary initial states, 9 Byzantine nodes, 12 pulses, through
//!   `fold_observed`) plus the three `hexctl campaign` shapes (burst,
//!   crash, churn; 10 pulses, through `campaign_restabilization`).
//!
//! Every point is computed twice with the same seed: first ("cold"), then
//! again ("warm"; there is no cache on this path, so a repeat costs a full
//! computation). The two results must be byte-identical. In a traced run
//! the repeat builds the fold itself from public parts, with spans around
//! every layer call, and must equal the library call byte for byte.

use std::slice;
use std::time::Instant;

use hex_analysis::reduce::{
    batch_skews, campaign_restabilization, skew_summary_table, ObservedRestabilizationReducer,
    ObservedSkewReducer, ObservedStabilizationReducer,
};
use hex_analysis::stabilization::{
    campaign_summary_table, stabilization_summary_table, summarize, summarize_campaign,
    CampaignStats, Criterion, DisturbanceStats,
};
use hex_clock::Scenario;
use hex_core::fault::{forwarder_candidates, FaultScript, NodeFault, RejoinState};
use hex_core::{HexGrid, NodeId, D_PLUS};
use hex_des::{SimRng, Time};
use hex_sim::batch::{run_batch_fold_with, Reducer};
use hex_sim::{FaultRegime, InitState, PulseBinner, RunSpec, SimScratch};

use crate::mix::{derive, SCENARIOS};
use crate::stats::{median, windowed_rate};
use crate::trace::{Span, Trace, Tracer};
use crate::{op_span, Args, Outcome, RATE_WINDOWS, RECONCILE_TOLERANCE_PCT};

const PAPER_RUNS: usize = 250;
/// Runs per recovery call. Four calls make a point of ~130 ms on two
/// cores, so a run measures enough points for a p90.
const RECOVERY_RUNS: usize = 8;
const STABILIZE_BYZANTINE: usize = 9;
const STABILIZE_PULSES: usize = 12;
const CAMPAIGN_PULSES: usize = 10;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: u64 = 5;

/// Per-layer metrics of the layers these workloads never call.
const BYPASSED: [&str; 15] = [
    "canon.encode_us",
    "canon.decode_us",
    "canon.hash_us",
    "protocol.request_codec_us",
    "protocol.response_codec_us",
    "serve.ping_us",
    "cache.load_hit_us",
    "cache.load_miss_us",
    "cache.store_us",
    "cache.hit_ratio",
    "cache.entries",
    "serve.computations",
    "serve.coalesced",
    "serve.rejected",
    "serve.unattributed_ms",
];

/// Seed streams (see [`derive`]).
const MEASURED: u64 = 1;
const WARM_UP: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperSweep,
    Recovery,
}

/// The canned `hexctl campaign` shapes.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Burst,
    Crash,
    Churn,
}

/// One library call of a point.
enum Call {
    Skew(RunSpec),
    Stabilize(RunSpec),
    Campaign(RunSpec, Shape),
}

/// A call's rendered result and its recovery check.
#[derive(Debug, PartialEq, Eq)]
struct Answer {
    bytes: String,
    /// Why the recovery check failed, in one line.
    failure: Option<String>,
    /// Churn disturbances, before the last one, that some run did not
    /// re-stabilize from (see [`campaign_answer`]).
    unrecovered_midway: u64,
}

impl Answer {
    fn plain(bytes: String) -> Answer {
        Answer {
            bytes,
            failure: None,
            unrecovered_midway: 0,
        }
    }
}

fn stabilize_answer(estimates: &[Vec<Option<usize>>]) -> Answer {
    let table = stabilization_summary_table(&summarize(&estimates[0]));
    Answer::plain(format!("{}\n{estimates:?}", table.to_json()))
}

/// Burst and crash campaigns must be `fully_recovered()`. A churn window
/// opened on a victim at layer 10 or above hits the previous window's
/// last pulse while it is still in flight, so that disturbance's segment
/// never re-stabilizes (a defect of the canned churn shape); churn is
/// held to recovery after its last disturbance — the self-stabilization
/// guarantee once faults stop — and the earlier misses are counted.
fn campaign_answer(stats: &CampaignStats, shape: Shape) -> Answer {
    let missed = |d: &DisturbanceStats| d.restabilized < d.runs;
    let checked = match shape {
        Shape::Churn => stats.disturbances.len().saturating_sub(1),
        Shape::Burst | Shape::Crash => 0,
    };
    let failure = stats.disturbances[checked..]
        .iter()
        .enumerate()
        .find(|(_, d)| missed(d))
        .map(|(i, d)| {
            format!(
                "{shape:?} disturbance {} at {} ps: {}/{} runs re-stabilized",
                checked + i,
                d.at.ps(),
                d.restabilized,
                d.runs
            )
        });
    Answer {
        bytes: format!("{}\n{stats:?}", campaign_summary_table(stats).to_json()),
        failure,
        unrecovered_midway: stats.disturbances[..checked]
            .iter()
            .filter(|d| missed(d))
            .count() as u64,
    }
}

impl Call {
    fn spec(&self) -> &RunSpec {
        match self {
            Call::Skew(s) | Call::Stabilize(s) | Call::Campaign(s, _) => s,
        }
    }

    /// The call as a user makes it: one library function per point kind.
    fn library(&self, criterion: &Criterion) -> Answer {
        match self {
            Call::Skew(spec) => Answer::plain(skew_summary_table(&batch_skews(spec, 0)).to_json()),
            Call::Stabilize(spec) => {
                let grid = spec.hex_grid();
                let criteria = slice::from_ref(criterion);
                stabilize_answer(
                    &spec.fold_observed(&ObservedStabilizationReducer::new(&grid, criteria, 0)),
                )
            }
            Call::Campaign(spec, shape) => {
                campaign_answer(&campaign_restabilization(spec, criterion, 0), *shape)
            }
        }
    }

    /// The same call rebuilt from public parts, with a span per layer.
    fn traced(&self, criterion: &Criterion, tr: &Tracer, id: u64, parent: usize) -> Answer {
        let spec = self.spec();
        let grid = tr.time("spec.grid_build", id, parent, || spec.hex_grid());
        match self {
            Call::Skew(_) => {
                let reducer = ObservedSkewReducer::new(&grid, 0);
                let acc = traced_fold(spec, &grid, &reducer, tr, id, parent);
                tr.time("emit", id, parent, || {
                    Answer::plain(skew_summary_table(&acc).to_json())
                })
            }
            Call::Stabilize(_) => {
                let criteria = slice::from_ref(criterion);
                let reducer = ObservedStabilizationReducer::new(&grid, criteria, 0);
                let acc = traced_fold(spec, &grid, &reducer, tr, id, parent);
                tr.time("emit", id, parent, || stabilize_answer(&acc))
            }
            Call::Campaign(_, shape) => {
                let script = spec.faults.script().expect("campaign calls carry a script");
                let disturbances = script.disturbance_times();
                let reducer =
                    ObservedRestabilizationReducer::new(&grid, criterion, &disturbances, 0);
                let acc = traced_fold(spec, &grid, &reducer, tr, id, parent);
                tr.time("emit", id, parent, || {
                    campaign_answer(&summarize_campaign(&acc), *shape)
                })
            }
        }
    }
}

/// `RunSpec::fold_observed` rebuilt from `run_batch_fold_with`,
/// `run_one_observed_into` and `Reducer::fold_ref`, recording a `batch`
/// span with an `engine.run` and a `reduce.fold` span per run and a
/// `reduce.merge` span per merge.
pub fn traced_fold<R>(
    spec: &RunSpec,
    grid: &HexGrid,
    reducer: &R,
    tr: &Tracer,
    id: u64,
    parent: usize,
) -> R::Acc
where
    R: Reducer<PulseBinner> + Sync,
{
    let batch = tr.open("batch", id, Some(parent));
    let acc = run_batch_fold_with(
        spec.runs,
        spec.threads,
        SimScratch::new,
        || reducer.empty(),
        |scratch, acc, run| {
            let grows = scratch.grow_count();
            let t0 = tr.now();
            let binner = spec.run_one_observed_into(grid, scratch, run);
            let t1 = tr.now();
            reducer.fold_ref(acc, run, binner);
            let t2 = tr.now();
            tr.record(Span {
                id,
                name: "engine.run",
                parent: Some(batch),
                start_ns: t0,
                end_ns: t1,
                events: scratch.popped_events(),
                stale: scratch.stale_events(),
                grows: (scratch.grow_count() - grows) as u64,
            });
            tr.record(Span {
                id,
                name: "reduce.fold",
                parent: Some(batch),
                start_ns: t1,
                end_ns: t2,
                ..Span::default()
            });
        },
        |left, right| {
            let t0 = tr.now();
            let merged = reducer.merge(left, right);
            tr.record(Span {
                id,
                name: "reduce.merge",
                parent: Some(batch),
                start_ns: t0,
                end_ns: tr.now(),
                ..Span::default()
            });
            merged
        },
    );
    tr.close(batch);
    acc
}

/// Engine, reducer, batch, spec and emit metrics from a finished trace.
/// Engine and reducer times are per run, batch times per batch.
pub fn fold_layer_values(t: &Trace, threads: usize, put: &mut impl FnMut(&'static str, f64)) {
    let runs: Vec<&Span> = t.named("engine.run").map(|i| &t.spans[i]).collect();
    let events: u64 = runs.iter().map(|s| s.events).sum();
    let engine = t.total_us("engine.run");
    let fold = t.total_us("reduce.fold");
    let batches = t.named("batch").count() as f64;
    put("engine.run_us", median(&t.durations_us("engine.run")));
    put("engine.events_per_run", events as f64 / runs.len() as f64);
    put("engine.ns_per_event", engine * 1e3 / events as f64);
    put(
        "engine.stale_ratio",
        runs.iter().map(|s| s.stale).sum::<u64>() as f64 / events as f64,
    );
    put(
        "engine.scratch_grows",
        runs.iter().map(|s| s.grows).sum::<u64>() as f64 / batches,
    );
    put("reduce.fold_us", median(&t.durations_us("reduce.fold")));
    put("reduce.merge_us", t.total_us("reduce.merge") / batches);
    put("reduce.share", fold / (fold + engine));
    put(
        "batch.busy_share",
        (engine + fold) / (threads as f64 * t.total_us("batch")),
    );
    put("batch.overhead_us", median(&t.self_us("batch")));
    put(
        "spec.grid_build_us",
        median(&t.durations_us("spec.grid_build")),
    );
    put(
        "spec.materialize_us",
        median(&t.durations_us("spec.materialize")),
    );
    put("emit.table_json_us", median(&t.durations_us("emit")));
}

/// The workload's fixed inputs: grid, recovery criterion and the
/// campaign scripts' victims.
struct Sweep {
    workload: Workload,
    seed: u64,
    threads: usize,
    criterion: Criterion,
    victim: NodeId,
    churn_candidates: Vec<NodeId>,
}

impl Sweep {
    fn new(workload: Workload, seed: u64, threads: usize) -> Sweep {
        let grid = RunSpec::paper().hex_grid();
        let (length, width) = (grid.length(), grid.width());
        // As `hexctl campaign`: the burst and crash victim sits mid-grid;
        // churn victims come from the lowest quarter of the layers.
        let cap = (length / 4).max(1);
        let mut churn_candidates = forwarder_candidates(grid.graph());
        churn_candidates.retain(|&n| grid.graph().coord(n).is_some_and(|c| c.layer <= cap));
        Sweep {
            workload,
            seed,
            threads,
            criterion: Criterion::uniform(D_PLUS * 3, D_PLUS, length),
            victim: grid.node((length / 2).max(1), i64::from(width / 2)),
            churn_candidates,
        }
    }

    /// The `hexctl campaign` script of `shape`, scaled by the spec's
    /// pulse separation.
    fn script(&self, shape: Shape, spec: &RunSpec) -> FaultScript {
        let s = spec.separation();
        let onset = Time::ZERO + s + s / 2;
        match shape {
            Shape::Burst => FaultScript::burst(
                self.victim,
                NodeFault::Byzantine,
                onset,
                onset + s.times(2),
                RejoinState::Arbitrary,
            ),
            Shape::Crash => FaultScript::crash_rejoin(
                self.victim,
                onset,
                onset + s.times(2),
                RejoinState::Clean,
            ),
            Shape::Churn => FaultScript::churn(
                &self.churn_candidates,
                onset,
                s,
                s.times(3),
                3,
                RejoinState::Clean,
                &mut SimRng::seed_from_u64(spec.seed),
            ),
        }
    }

    /// The calls of point `k` of seed stream `stream`.
    fn point(&self, stream: u64, k: u64) -> Vec<Call> {
        match self.workload {
            Workload::PaperSweep => vec![Call::Skew(
                RunSpec::paper()
                    .scenario(SCENARIOS[(k % 4) as usize])
                    .seed(derive(self.seed, stream, k / 4))
                    .runs(PAPER_RUNS)
                    .threads(self.threads),
            )],
            Workload::Recovery => {
                let base = RunSpec::paper()
                    .scenario(Scenario::RandomDPlus)
                    .seed(derive(self.seed, stream, k))
                    .runs(RECOVERY_RUNS)
                    .threads(self.threads);
                let mut calls = vec![Call::Stabilize(
                    base.clone()
                        .faults(FaultRegime::Byzantine(STABILIZE_BYZANTINE))
                        .init(InitState::Arbitrary)
                        .pulses(STABILIZE_PULSES),
                )];
                for shape in [Shape::Burst, Shape::Crash, Shape::Churn] {
                    let spec = base.clone().pulses(CAMPAIGN_PULSES);
                    let script = self.script(shape, &spec);
                    calls.push(Call::Campaign(
                        spec.faults(FaultRegime::Script(script)),
                        shape,
                    ));
                }
                calls
            }
        }
    }
}

/// Run a batch workload for `args.seconds` and report its metrics.
pub fn run(
    workload: Workload,
    args: &Args,
    threads: usize,
    tracer: Option<&Tracer>,
) -> Result<Outcome, String> {
    // Set-up: build the inputs and compute one warm-up point, so lazy
    // allocation and page faults land here and not in the measurement.
    let mut setups = Vec::new();
    let mut built = None;
    for i in 0..SETUPS {
        let t = Instant::now();
        let sweep = Sweep::new(workload, args.seed, threads);
        for call in sweep.point(WARM_UP, i) {
            call.library(&sweep.criterion);
        }
        setups.push(t.elapsed().as_secs_f64());
        built = Some(sweep);
    }
    let sweep = built.expect("at least one set-up");
    let crit = &sweep.criterion;

    let mut out = Outcome::default();
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    // (start, end, runs) of every point computation, for the rates.
    let mut ops = Vec::new();
    let mut unrecovered_midway = 0u64;
    let start = Instant::now();
    let deadline = start + std::time::Duration::from_secs(args.seconds);
    let mut k = 0u64;
    while Instant::now() < deadline {
        let calls = sweep.point(MEASURED, k);
        let point_runs = calls.iter().map(|c| c.spec().runs).sum::<usize>() as f64;
        let t = Instant::now();
        let first: Vec<Answer> = calls.iter().map(|c| c.library(crit)).collect();
        cold.push(t.elapsed().as_secs_f64());
        ops.push(op_span(start, t, point_runs));
        let t = Instant::now();
        let again: Vec<Answer> = match tracer {
            None => calls.iter().map(|c| c.library(crit)).collect(),
            Some(tr) => {
                let root = tr.open("point", k, None);
                let a = calls.iter().map(|c| c.traced(crit, tr, k, root)).collect();
                tr.close(root);
                a
            }
        };
        warm.push(t.elapsed().as_secs_f64());
        ops.push(op_span(start, t, point_runs));
        out.attempted += 2;
        if first != again {
            out.fail(format!(
                "point {k}: the repeat with the same seed differs from the first result"
            ));
        }
        for a in first.iter().chain(&again) {
            if let Some(why) = &a.failure {
                out.fail(format!("point {k}: {why}"));
            }
            unrecovered_midway += a.unrecovered_midway;
        }
        k += 1;
    }
    let wall = start.elapsed().as_secs_f64();

    out.put("setup_s", median(&setups));
    out.put("runs_per_s", windowed_rate(&ops, wall, RATE_WINDOWS));
    let queries: Vec<_> = ops.iter().map(|&(s, e, _)| (s, e, 1.0)).collect();
    out.put("queries_per_s", windowed_rate(&queries, wall, RATE_WINDOWS));
    out.latencies(&cold, &warm);
    out.put("campaign.unrecovered_midway", unrecovered_midway as f64);

    if let Some(tr) = tracer {
        // Input derivation timed on its own: the engine span covers it
        // inside `run_one_observed_into`.
        let root = tr.open("microbench", u64::MAX, None);
        for call in sweep.point(MEASURED, 0) {
            for run in 0..8 {
                tr.time("spec.materialize", u64::MAX, root, || {
                    call.spec().materialize(run)
                });
            }
        }
        tr.close(root);
        let t = tr.finish();
        fold_layer_values(&t, threads, &mut |n, v| out.put(n, v));
        for name in BYPASSED {
            out.put(name, 0.0);
        }
        let cold_total: f64 = cold.iter().sum::<f64>() * 1e6;
        let warm_total: f64 = warm.iter().sum::<f64>() * 1e6;
        // Everything a point's layers account for, with the per-run work
        // spread over the worker threads.
        let parallel = (t.total_us("engine.run") + t.total_us("reduce.fold")) / threads as f64;
        let serial: f64 = ["point", "batch"]
            .iter()
            .flat_map(|n| t.self_us(n))
            .chain(
                ["spec.grid_build", "emit", "reduce.merge"]
                    .iter()
                    .flat_map(|n| t.durations_us(n)),
            )
            .sum();
        let reconcile_pct = 100.0 * (cold_total - (serial + parallel)) / cold_total;
        if reconcile_pct.abs() > RECONCILE_TOLERANCE_PCT {
            out.fail(format!(
                "per-layer self times miss the untraced point time by {reconcile_pct:.1}%"
            ));
        }
        out.put(
            "trace.overhead_pct",
            100.0 * (warm_total - cold_total) / cold_total,
        );
        out.put("trace.reconcile_pct", reconcile_pct);
        out.put("trace.spans", t.spans.len() as f64);
        out.trace = Some(t);
    }
    Ok(out)
}

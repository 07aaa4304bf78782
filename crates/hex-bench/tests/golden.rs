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
//! * `bin/<name>` — the stdout of a figure/table binary at `HEX_RUNS=2`.
//!
//! A mismatch means an output changed. If the change is deliberate,
//! re-pin with `scripts/regen_golden.sh` and record why in CHANGES.md;
//! the test never rewrites the file itself.

use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

use hex_analysis::reduce::{batch_skews, skew_summary_table};
use hex_analysis::stats::Summary;
use hex_clock::Scenario;
use hex_sim::canon::fnv1a_64;
use hex_sim::{FaultRegime, RunSpec};

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

#!/usr/bin/env python3
"""Build the benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload paper_sweep|recovery|hexd_mix \
        --seed N --seconds S --trace 0|1

The benchmark is compiled from source with cargo (offline) into
$CARGO_TARGET_DIR, or .bench_build when that is unset. Build output goes
to standard error. Standard output carries one comment line with the
build's provenance (rustc, commit, source digest), then the benchmark's
own lines; the last line is the JSON result. Traced runs also write their
spans to <target>/perfbench/trace-<workload>-<seed>.jsonl.
"""

import argparse
import hashlib
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("paper_sweep", "recovery", "hexd_mix")
MANIFEST = Path("perfbench") / "Cargo.toml"
# A run measures --seconds plus set-up and checks; anything past this is hung.
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def parse():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=("0", "1"))
    args = p.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 0 and --seconds within 1..600")
    return args


def capture(cmd):
    """First output line of `cmd`, or None if it cannot run."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.splitlines()
    return lines[0].strip() if out.returncode == 0 and lines else None


def source_digest():
    """SHA-256 over the sources the benchmark builds from."""
    h = hashlib.sha256()
    files = [Path("Cargo.lock")]
    for top in (Path("crates"), Path("compat"), Path("perfbench")):
        files += [
            p
            for p in top.rglob("*")
            if p.is_file() and p.suffix in (".rs", ".toml", ".lock", ".py")
        ]
    for p in sorted(f for f in files if f.is_file()):
        h.update(str(p).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def main():
    args = parse()
    knobs = sorted(k for k in os.environ if k.startswith("HEX_"))
    if knobs:
        fail("refusing to run with " + ", ".join(knobs) + " set")
    if not MANIFEST.is_file():
        fail(f"no {MANIFEST}: run from the repository root")

    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if target.is_absolute():
        # A relative path keeps the daemon's socket path short.
        try:
            target = target.relative_to(Path.cwd())
        except ValueError:
            pass
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--offline", "--release", "--quiet", "--manifest-path", str(MANIFEST)],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        fail("build failed", code=1)

    rustc = capture(["rustc", "--version"]) or "unknown"
    commit = capture(["git", "rev-parse", "HEAD"]) or "none"
    print(
        f"# perfbench build rustc=\"{rustc}\" commit={commit} source_sha256={source_digest()}",
        flush=True,
    )

    out_dir = target / "perfbench"
    out_dir.mkdir(parents=True, exist_ok=True)
    run_dir = out_dir / f"r{os.getpid()}"
    cmd = [
        str(target / "release" / "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--dir", str(run_dir),
    ]
    if args.trace == "1":
        cmd += ["--trace-out", str(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")]
    # A terminated launcher still stops the benchmark and cleans up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was killed", file=sys.stderr)
        code = 3
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # The benchmark removes its socket and cache itself; this also
        # covers a run that was killed.
        shutil.rmtree(run_dir, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()

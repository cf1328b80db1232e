#!/usr/bin/env python3
"""Runs one workload of the arsf repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds, in release mode and offline, the `sweep_drive` and
`scenario_sweep` binaries of the repository workspace and this
directory's `perfbench` package, into `$CARGO_TARGET_DIR` (default
`.bench_build`). Build output goes to stderr. Then it runs `perfbench`,
which prints the metrics; its last stdout line is the JSON result.
Exits nonzero, printing no result, when the build fails.
See perfbench/README.md.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def cargo_build(target, manifest, *args):
    command = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", str(manifest), *args]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    result = subprocess.run(command, env=env, stdout=sys.stderr,
                            stdin=subprocess.DEVNULL)
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: {' '.join(command)}")


def output_of(*command):
    # Git must not look above the checkout for a repository to report.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(command, cwd=ROOT, capture_output=True,
                                text=True, stdin=subprocess.DEVNULL, env=env)
    except OSError:
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def tree_digest():
    """SHA-256 over the sources the benchmark builds (the checkout need
    not be a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    roots = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", ROOT / "crates",
             ROOT / "vendor", HERE / "src", HERE / "Cargo.toml"]
    files = []
    for root in roots:
        if root.is_file():
            files.append(root)
        elif root.is_dir():
            files.extend(p for p in root.rglob("*")
                         if p.is_file() and "target" not in p.parts)
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    target = target if target.is_absolute() else Path.cwd() / target
    cargo_build(target, ROOT / "Cargo.toml", "-p", "arsf-bench",
                "--bin", "sweep_drive", "--bin", "scenario_sweep")
    cargo_build(target, HERE / "Cargo.toml", "--bin", "perfbench")
    bin_dir = target / "release"
    exe = bin_dir / "perfbench"
    args = [str(exe), *sys.argv[1:],
            "--bin-dir", str(bin_dir),
            "--out-dir", str(target / "perfbench-out"),
            "--commit", output_of("git", "rev-parse", "HEAD"),
            "--tree", tree_digest(),
            "--rustc", output_of("rustc", "-V")]
    # A child process rather than exec: the builds above must not count
    # towards the driven processes' peak memory (`RUSAGE_CHILDREN`
    # survives exec).
    sys.exit(subprocess.run(args, stdin=subprocess.DEVNULL).returncode)


if __name__ == "__main__":
    main()

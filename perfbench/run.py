#!/usr/bin/env python3
"""Build and run the OMeGa benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload embed_twin|serve_exact|plane_ivf|all \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (release, offline) into `$CARGO_TARGET_DIR`
(default `.bench_build` in the checkout), then runs the workload in its own
process. The last line of standard output is the result object
`{"correct", "attempted", "failed", "metrics"}`; traced runs also write
their spans to `perfbench/out/<workload>.trace.json`.

`--workload all` runs the three workloads one after another, each in its own
process, and prints every metric with its unit.
"""

import argparse
import hashlib
import json
import os
import pathlib
import signal
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORKLOADS = ["embed_twin", "serve_exact", "plane_ivf"]

_child = None


def _stop_child(signum, _frame):
    if _child is not None and _child.poll() is None:
        _child.kill()
        _child.wait()
    sys.exit(128 + signum)


def _run(cmd, **kw):
    """Run `cmd` to completion, killing it if this script is stopped."""
    global _child
    _child = subprocess.Popen(cmd, **kw)
    try:
        out, _ = _child.communicate()
    finally:
        if _child.poll() is None:
            _child.kill()
            _child.wait()
    return _child.returncode, out


def source_rev():
    """The git revision, or a digest of the sources outside a git checkout."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if rev.returncode == 0:
            return "git:" + rev.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for base in ("crates", "perfbench/src", "Cargo.toml", "perfbench/Cargo.toml"):
        path = ROOT / base
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file() and "/out/" not in f.as_posix():
                h.update(f.relative_to(ROOT).as_posix().encode())
                h.update(f.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def build():
    """Build the benchmark binary; return its path or None."""
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    code, _ = _run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            str(BENCH / "Cargo.toml"),
        ],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    binary = target / "release" / "omega-perfbench"
    return binary if code == 0 and binary.is_file() else None


def run_one(binary, args, workload, rev):
    cmd = [
        str(binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", str(BENCH / "out"),
        "--rev", rev,
    ]
    code, out = _run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return code, out or ""


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = p.parse_args()
    signal.signal(signal.SIGTERM, _stop_child)

    binary = build()
    if binary is None:
        print("error: building the benchmark failed", file=sys.stderr)
        return 1
    rev = source_rev()

    if args.workload != "all":
        code, out = run_one(binary, args, args.workload, rev)
        sys.stdout.write(out)
        return code

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        code, out = run_one(binary, args, workload, rev)
        lines = out.strip().splitlines()
        if code != 0 or not lines:
            print(f"error: {workload} exited with {code}", file=sys.stderr)
            return code or 1
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<28} {m['value']:>18.6g} {m['unit']}")
            combined["metrics"][f"{workload}.{name}"] = m
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())

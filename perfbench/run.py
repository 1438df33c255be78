#!/usr/bin/env python3
"""forcing-lab benchmark: three workloads through the public CLI.

    python3 perfbench/run.py --workload sweeps-o6 --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The run compiles ``src/forcing_lab/
_ckernels.c`` once into ``.bench_build/perfbench`` (kept between runs,
keyed by the source's hash), installs a copy of the package beside it,
writes the seeded input, times set-up seven times, runs the workload in a
fresh process (perfbench/workload.py) and prints every metric by name and
unit.  ``--seconds`` is a minimum: whole rounds run until it has passed,
and at least two of them.  The last stdout line is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer split from a
separate traced run.  ``--backend python`` takes the pure-Python reference
figures instead of the compiled ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "forcing_lab"
BUILD = ROOT / ".bench_build" / "perfbench"
# set-ups timed per run: before and after the measured process, so that a
# slow spell of the shared host does not decide setup_s alone
SETUPS_BEFORE = SETUPS_AFTER = 3
# seconds; a compiled run must end within 180, pure-Python reference runs
# of compute-families take minutes
CHILD_TIMEOUT = {"compiled": 170, "python": 3600}


class BenchError(Exception):
    pass


def build_kernels() -> Path:
    """Compile the tracked C kernels; the result is cached by source hash."""
    src = SOURCE / "_ckernels.c"
    if not src.is_file():
        raise BenchError(f"no kernel source at {src}")
    include = sysconfig.get_paths()["include"]
    flags = ["-O3", "-shared", "-fPIC", f"-I{include}"]
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    key = hashlib.sha256(src.read_bytes() + repr((cc, flags, sys.version)).encode())
    name = "_ckernels" + sysconfig.get_config_var("EXT_SUFFIX")
    out = BUILD / "kernels" / key.hexdigest()[:16] / name
    if out.exists():
        return out
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.with_name(out.name + ".tmp")
    cmd = cc + flags + [str(src), "-o", str(tmp)]
    print(f"building kernels: {' '.join(cmd)}", file=sys.stderr)
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"kernel build failed ({proc.returncode}):\n{proc.stderr}")
    tmp.replace(out)
    return out


def install(kernels: Path | None) -> Path:
    """A fresh copy of the package's Python files, plus the compiled kernels."""
    site = BUILD / "site"
    pkg = site / "forcing_lab"
    if not (SOURCE / "__init__.py").is_file():
        raise BenchError(f"no forcing_lab package at {SOURCE}")
    shutil.rmtree(site, ignore_errors=True)
    pkg.mkdir(parents=True)
    for py in SOURCE.glob("*.py"):
        shutil.copy2(py, pkg / py.name)
    if kernels is not None:
        shutil.copy2(kernels, pkg / kernels.name)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(pkg)], check=True)
    return site


def work_dir(name: str) -> Path:
    return BUILD / "work" / name


def start_workload(args, site: Path, setup_only: bool):
    """Start the workload process; returns (process, seconds until READY)."""
    cmd = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--work", str(work_dir(args.workload)), "--backend", args.backend,
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = {**_base_env(), "PYTHONPATH": str(site), "FORCING_LAB_BACKEND": args.backend}
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise BenchError(f"workload set-up failed (exit {proc.returncode})")
    return proc, setup


def setup_only(args, site: Path, timeout: float) -> float:
    proc, setup = start_workload(args, site, setup_only=True)
    finish(proc, timeout)
    return setup


def _base_env() -> dict:
    dropped = ("PYTHONPATH", "FORCING_LAB_WORKERS")
    return {k: v for k, v in os.environ.items() if k not in dropped}


def finish(proc, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"workload did not finish within {timeout}s")
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}")
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("per_built"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    import workload

    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=sorted(workload.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--backend", choices=("compiled", "python"), default="compiled")
    args = ap.parse_args(argv)

    try:
        kernels = build_kernels() if args.backend == "compiled" else None
        site = install(kernels)
        workload.WORKLOADS[args.workload].make_input(work_dir(args.workload), args.seed)
        timeout = CHILD_TIMEOUT[args.backend]
        setups = [setup_only(args, site, timeout) for _ in range(SETUPS_BEFORE)]
        proc, setup = start_workload(args, site, setup_only=False)
        setups.append(setup)
        out = finish(proc, timeout)
        result = json.loads(out.strip().splitlines()[-1])
        setups += [setup_only(args, site, timeout) for _ in range(SETUPS_AFTER)]
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    rounds = result["rounds"]
    if args.trace:
        metrics = {name: (v, layer_unit(name)) for name, v in result["layers"].items()}
    else:
        wall = median([r["wall"] for r in rounds])
        metrics = {
            "wall_s": (wall, "s"),
            "graphs_per_s": (result["ops_per_round"] / wall, "1/s"),
            "cpu_s": (median([r["cpu"] for r in rounds]), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
            "setup_s": (median(setups), "s"),
        }
    print(f"workload {args.workload}  seed {args.seed}  backend {result['backend']}  "
          f"setup samples {[round(s, 3) for s in setups]}", file=sys.stderr)
    print(f"  round walls {[round(r['wall'], 3) for r in rounds]} "
          f"(traced: last {result['traced_rounds']})", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:14.6f} {unit}", file=sys.stderr)
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}", file=sys.stderr)
    print(f"  checks: {len(result['problems'])} problems; "
          f"{result['planted']} planted faults tried", file=sys.stderr)
    print(json.dumps({
        "correct": not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": unit} for n, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

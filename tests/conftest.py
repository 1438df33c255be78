import importlib.util
import io
import os
import random
import shlex
import shutil
import subprocess
import sysconfig
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _build_kernels():
    """Compile the tracked ``_ckernels.c`` with the benchmark's build step
    (cached under ``.bench_build/`` by source hash) and place the extension
    in ``src/forcing_lab``, as ``setup.py build_ext --inplace`` would.

    Runs before ``forcing_lab`` is first imported, so every test that does
    not pick a backend itself runs on the compiled kernels.  Returns why
    they could not be built (no C compiler), or None.
    """
    spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    try:
        built = bench.build_kernels()
    except FileNotFoundError as exc:
        return f"no C compiler to build the compiled kernels ({exc.filename})"
    target = ROOT / "src" / "forcing_lab" / built.name
    if not target.exists() or target.read_bytes() != built.read_bytes():
        # a new inode: a process that has the old extension loaded keeps it
        tmp = built.with_name(built.name + ".copy")
        shutil.copyfile(built, tmp)
        os.replace(tmp, target)
    return None


NO_KERNELS_REASON = _build_kernels()


def cc(*args: str) -> subprocess.CompletedProcess:
    """Run the C compiler that builds the kernels, with Python's headers."""
    compiler = shlex.split(sysconfig.get_config_var("CC") or "cc")
    include = sysconfig.get_paths()["include"]
    return subprocess.run([*compiler, f"-I{include}", *args], capture_output=True, text=True)

import forcing_lab  # noqa: E402  (after the build, so the backend choice sees it)
from forcing_lab.graphs import build_graph  # noqa: E402


def pytest_report_header(config):
    header = f"forcing_lab kernel backend: {forcing_lab.BACKEND_NAME}"
    return f"{header} ({NO_KERNELS_REASON})" if NO_KERNELS_REASON else header


def random_graph(order: int, p: float, rng: random.Random):
    edges = [
        (u, v)
        for u in range(order)
        for v in range(u + 1, order)
        if rng.random() < p
    ]
    return build_graph(order, edges)


def order8_sample_lines() -> list[str]:
    """graph6 lines of 2,000 labelled order-8 graphs with a perfect matching,
    from seeded random edge masks."""
    from forcing_lab import sweep
    from forcing_lab.graphs import graph6_encode
    from forcing_lab.matchings import has_perfect_matching

    rng, pairs, lines = random.Random(8), sweep._all_pairs(8), []
    while len(lines) < 2000:
        g = sweep.graph_from_edge_mask(8, pairs, rng.getrandbits(28))
        if has_perfect_matching(g):
            lines.append(graph6_encode(g))
    return lines


def family_stream_lines() -> list[str]:
    """The lines `forcing-lab generate` prints for these specs: the extremal
    equality cases at orders 8-16 (H, Hhat, HhatJoin, MJoin, K_{n,n}), and
    HhatJoin:6,2, the densest, with 1,875 perfect matchings."""
    from forcing_lab.families import family_instances, parse_family_spec
    from forcing_lab.graphs import graph6_encode

    specs = (
        "H:4,0 H:4,1 H:6,2 Hhat:4 HhatJoin:4,1 HhatJoin:6,2 MJoin:3,1 MJoin:5,2"
        " Knn:4 G1:4 cycle:8 grid:4x4 Q:3"
    ).split()
    return [
        graph6_encode(g)
        for spec in specs
        for _label, g in family_instances(parse_family_spec(spec))
    ]


def report_json(report) -> str:
    """The report's JSON, the text ``--json`` writes."""
    out = io.StringIO()
    report.write_json(out)
    return out.getvalue()


@pytest.fixture
def rng():
    return random.Random(0x5EED)


@pytest.fixture(scope="session")
def order6_sweep():
    """The labelled order-6 sweep on two workers, run once per session, and
    its wall time.  ``--strict-conjectures`` sets only the CLI's exit code
    (``cli._finish_report`` reads it), so this one report also serves the
    conjecture sweep of criterion 7."""
    from forcing_lab.sweep import SweepConfig, run_sweep

    start = time.monotonic()
    report = run_sweep(SweepConfig(mode="all_graphs", max_order=6, workers=2))
    return report, time.monotonic() - start

"""Backend parity: the compiled kernels and the pure-Python twins must agree
bit for bit on every exposed operation.  ``conftest`` builds the compiled
kernels; this module is skipped only where no C compiler exists."""

import __future__
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NO_KERNELS_REASON, ROOT, cc, random_graph
from forcing_lab import _backend, _kernels_py

if NO_KERNELS_REASON:
    pytest.skip(NO_KERNELS_REASON, allow_module_level=True)

from forcing_lab import _ckernels as compiled  # noqa: E402


def graph_rows(order: int, edge_bits: int):
    pairs = [(u, v) for u in range(order) for v in range(u + 1, order)]
    rows = [0] * order
    for i, (u, v) in enumerate(pairs):
        if (edge_bits >> i) & 1:
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


graphs = st.integers(min_value=2, max_value=9).flatmap(
    lambda n: st.tuples(
        st.just(n), st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1)
    )
)


@given(graphs)
@settings(max_examples=300, deadline=None)
def test_pm_enumeration_parity(gh):
    n, bits = gh
    rows = graph_rows(n, bits)
    full = (1 << n) - 1
    hp = _kernels_py.make_handle(rows)
    hc = compiled.make_handle(rows)
    assert _kernels_py.pm_enumerate(hp, full, -1) == compiled.pm_enumerate(hc, full, -1)
    for cap in (1, 2, 5):
        assert _kernels_py.pm_count(hp, full, cap) == compiled.pm_count(hc, full, cap)


@given(graphs, st.integers(min_value=0, max_value=2**20))
@settings(max_examples=200, deadline=None)
def test_pm_subset_parity(gh, seed):
    n, bits = gh
    rows = graph_rows(n, bits)
    active = seed % (1 << n)
    hp = _kernels_py.make_handle(rows)
    hc = compiled.make_handle(rows)
    assert _kernels_py.pm_enumerate(hp, active, -1) == compiled.pm_enumerate(hc, active, -1)


@given(graphs)
@settings(max_examples=200, deadline=None)
def test_alt_cycles_parity(gh):
    n, bits = gh
    rows = graph_rows(n, bits)
    full = (1 << n) - 1
    hp = _kernels_py.make_handle(rows)
    hc = compiled.make_handle(rows)
    pms = _kernels_py.pm_enumerate(hp, full, 1)
    if pms:
        mates = [-1] * n
        for u, v in pms[0]:
            mates[u] = v
            mates[v] = u
        mates = tuple(mates)
        assert _kernels_py.alt_cycles(hp, mates, 10**6) == compiled.alt_cycles(
            hc, mates, 10**6
        )


@given(graphs, st.integers(min_value=0, max_value=3))
@settings(max_examples=120, deadline=None)
def test_removed_edges_parity(gh, drop):
    n, bits = gh
    rows = graph_rows(n, bits)
    full = (1 << n) - 1
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1
    ]
    removed = tuple(edges[:drop])
    hp = _kernels_py.make_handle(rows)
    hc = compiled.make_handle(rows)
    assert _kernels_py.pm_count(hp, full, 10, removed) == compiled.pm_count(
        hc, full, 10, removed
    )
    assert _kernels_py.pm_enumerate(hp, full, -1, removed) == compiled.pm_enumerate(
        hc, full, -1, removed
    )


@given(
    st.lists(
        st.integers(min_value=1, max_value=(1 << 12) - 1), min_size=0, max_size=14
    )
)
@settings(max_examples=200, deadline=None)
def test_pack_masks_parity(masks):
    assert _kernels_py.pack_masks(tuple(masks)) == compiled.pack_masks(tuple(masks))


@given(graphs)
@settings(max_examples=150, deadline=None)
def test_search_fastpath_matches_python_search(gh):
    # the compiled whole-search values must agree with the witness-producing
    # subset search (an independent code path)
    from forcing_lab.graphs import build_graph
    from forcing_lab.matchings import enumerate_perfect_matchings
    from forcing_lab.solver import anti_forcing_number, forcing_number

    n, bits = gh
    rows = graph_rows(n, bits)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]
    g = build_graph(n, edges)
    pms = enumerate_perfect_matchings(g)
    h = compiled.make_handle(rows)
    for m in pms[:3]:
        mates = m.mates(n)
        assert compiled.forcing_value(h, mates, 10**7) == forcing_number(g, m).value
        assert (
            compiled.anti_forcing_value(h, mates, 10**7)
            == anti_forcing_number(g, m).value
        )


def test_search_ceiling_parity():
    # both backends spend search nodes alike, so at every node limit the
    # compiled value is -1 exactly where the Python search raises
    from forcing_lab.errors import ResourceLimitError
    from forcing_lab.matchings import enumerate_perfect_matchings
    from forcing_lab.solver import SolverLimits, _min_hitting

    searches = ((True, compiled.forcing_value), (False, compiled.anti_forcing_value))
    rng = random.Random(0xCE11)
    results = ceilings = 0
    for _ in range(100):
        g = random_graph(rng.randint(4, 8), 0.3 + 0.2 * rng.random(), rng)
        h = compiled.make_handle(g.adj)
        for m in enumerate_perfect_matchings(g):
            mates = m.mates(g.order)
            for forcing, fn in searches:
                for node_limit in range(1, 51):
                    value = fn(h, mates, node_limit)
                    if value == -2:
                        continue
                    limits = SolverLimits(node_limit=node_limit)
                    try:
                        expected = _min_hitting(g, m, forcing, limits)[0]
                    except ResourceLimitError:
                        expected = -1
                    assert value == expected, (g.edges, m.edges, forcing, node_limit)
                    results += 1
                    ceilings += value == -1
    assert (results, ceilings) == (8400, 2292)


def test_search_fastpath_budget_sentinel():
    from forcing_lab.graphs import generate
    from forcing_lab.matchings import enumerate_perfect_matchings

    g = generate("complete_bipartite", 4, 4)
    m = enumerate_perfect_matchings(g, limit=1)[0]
    h = compiled.make_handle(g.adj)
    assert compiled.forcing_value(h, m.mates(g.order), 2) == -1


def test_search_fastpath_large_universe_falls_back():
    # H-hat_10 plus the edge (0, 11): 91 non-matching edges, over the 64 the
    # compiled af search holds, so it answers -2 and the subset search runs
    from forcing_lab.families import make_H_hat
    from forcing_lab.graphs import build_graph
    from forcing_lab.matchings import enumerate_perfect_matchings
    from forcing_lab.solver import anti_forcing_number, is_anti_forcing_set, spectrum

    h = make_H_hat(10)
    g = build_graph(h.order, h.edges + ((0, 11),))
    pms = enumerate_perfect_matchings(g)
    assert (g.edge_count, len(pms)) == (101, 2)
    hc = compiled.make_handle(g.adj)
    for m in pms:
        assert g.edge_count - len(m) == 91
        assert compiled.anti_forcing_value(hc, m.mates(g.order), 10**7) == -2
    spec = spectrum(g, with_anti_forcing=True)
    assert spec.af_values == (1, 1)
    for m, af in zip(pms, spec.af_values):
        result = anti_forcing_number(g, m)
        assert result.value == af
        assert is_anti_forcing_set(g, m, result.witness_set)


def test_cycle_ceiling_sentinel():
    rows = graph_rows(6, (1 << 15) - 1)  # K6
    hp = _kernels_py.make_handle(rows)
    hc = compiled.make_handle(rows)
    pms = _kernels_py.pm_enumerate(hp, 63, 1)
    mates = [-1] * 6
    for u, v in pms[0]:
        mates[u] = v
        mates[v] = u
    mates = tuple(mates)
    assert _kernels_py.alt_cycles(hp, mates, 1) is None
    assert compiled.alt_cycles(hc, mates, 1) is None


def test_backend_env_override(tmp_path):
    import os
    import subprocess
    import sys

    code = "import forcing_lab; print(forcing_lab.BACKEND_NAME)"
    # empty picks automatically; any other name, such as "c", is refused
    for value, backend in (("python",) * 2, ("compiled",) * 2, ("", "compiled"), ("c", "")):
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "FORCING_LAB_BACKEND": value},
        )
        assert out.stdout.strip() == backend
    assert "unknown FORCING_LAB_BACKEND value: 'c'" in out.stderr


SHARED_KERNELS = {"make_handle", "pm_count", "pm_enumerate", "alt_cycles", "pack_masks"}
SEARCH_KERNELS = {"forcing_value", "anti_forcing_value"}


def public_names(module):
    """The module's public names; ``from __future__ import annotations`` adds none."""
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and value is not __future__.annotations
    }


def test_module_exports():
    # each backend exports exactly the names _backend binds from it
    assert public_names(compiled) == {"BACKEND_NAME"} | SHARED_KERNELS | SEARCH_KERNELS
    assert public_names(_kernels_py) == {"BACKEND_NAME"} | SHARED_KERNELS
    assert all(hasattr(_backend, kernel) for kernel in SHARED_KERNELS | SEARCH_KERNELS)
    assert _backend.mis is None


def test_tracked_c_compiles_without_warnings():
    out = cc("-fsyntax-only", "-Wall", "-Werror", str(ROOT / "src" / "forcing_lab" / "_ckernels.c"))
    assert out.returncode == 0, out.stderr


K4 = (0b1110, 0b1101, 0b1011, 0b0111)
K4_MATES = (1, 0, 3, 2)


def bad_calls(h):
    """(exception, call) for arguments the kernels must refuse, not crash on."""
    return [
        (TypeError, lambda: compiled.pm_count(None, 3, 2)),
        (TypeError, lambda: compiled.pm_enumerate(K4, 15, -1)),
        (TypeError, lambda: compiled.alt_cycles(None, K4_MATES, 10)),
        (TypeError, lambda: compiled.forcing_value(None, K4_MATES, 10)),
        (TypeError, lambda: compiled.anti_forcing_value(None, K4_MATES, 10)),
        (TypeError, lambda: compiled.pack_masks([1.0])),
        (TypeError, lambda: compiled.pm_count(h, 15, cap=2)),  # positional only
        (TypeError, lambda: compiled.alt_cycles(h, K4_MATES)),
        (OverflowError, lambda: compiled.make_handle([-1])),
        (OverflowError, lambda: compiled.make_handle([2**64])),
        (OverflowError, lambda: compiled.pm_count(h, -1, 2)),
        (OverflowError, lambda: compiled.pm_enumerate(h, 2**64, -1)),
        (OverflowError, lambda: compiled.pack_masks([3, 2**64])),
        (OverflowError, lambda: compiled.pack_masks([-1])),
        (ValueError, lambda: compiled.make_handle([0] * 65)),
        (ValueError, lambda: compiled.make_handle([0b10, 0b00])),  # asymmetric
        (ValueError, lambda: compiled.make_handle([0b1])),  # loop
        (ValueError, lambda: compiled.pm_count(h, 0b110000, 2)),  # vertices 4 and 5
        (ValueError, lambda: compiled.pm_count(h, 15, 2, ((0, 64),))),
        (ValueError, lambda: compiled.pm_count(h, 15, 2, ((-1, 0),))),
        (ValueError, lambda: compiled.pm_enumerate(h, 15, -1, ((0, 4),))),
        (ValueError, lambda: compiled.alt_cycles(h, (1, 0, 3, 64), 10)),
        (ValueError, lambda: compiled.alt_cycles(h, (1, 0, 3, -1), 10)),
        (ValueError, lambda: compiled.alt_cycles(h, (1, 0, 3), 10)),
        (ValueError, lambda: compiled.forcing_value(h, (1, 2, 3, 0), 10)),  # not a matching
        (ValueError, lambda: compiled.anti_forcing_value(h, (1, 0, 3, 4), 10)),
    ]


def test_bad_arguments_raise():
    h = compiled.make_handle(K4)
    for error, call in bad_calls(h):
        with pytest.raises(error):
            call()


def kernel_round(h):
    compiled.make_handle(K4)
    assert compiled.pm_count(h, 15, 10, ((0, 1),)) == 2
    assert len(compiled.pm_enumerate(h, 15, -1, [(2, 3)])) == 2
    assert len(compiled.alt_cycles(h, K4_MATES, 10)) == 2
    assert compiled.alt_cycles(h, K4_MATES, 1) is None
    assert compiled.pack_masks([3, 12, 5, 6, 15]) == 2
    assert compiled.forcing_value(h, K4_MATES, 100) == 1
    assert compiled.anti_forcing_value(h, K4_MATES, 100) == 2
    for error, call in bad_calls(h):
        try:
            call()
        except error:
            pass


def test_no_reference_leaks():
    # a reference a kernel fails to drop keeps its object alive, so traced
    # memory grows with the number of calls
    h = compiled.make_handle(K4)
    for _ in range(200):
        kernel_round(h)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(5000):
            kernel_round(h)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown

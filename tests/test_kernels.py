"""Backend parity: the compiled kernels and the pure-Python twins must agree
bit for bit on every exposed operation.  ``conftest`` builds the compiled
kernels; this module is skipped only where no C compiler exists."""

import __future__
import gc
import random
import signal
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NO_KERNELS_REASON, ROOT, cc, order8_sample_lines, random_graph
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
        assert _kernels_py.alt_cycles(hp, pms[0], 10**6) == compiled.alt_cycles(
            hc, pms[0], 10**6
        )


def test_pm_kernels_take_three_arguments():
    # neither backend's matching count or enumeration takes edges to remove
    for backend in (compiled, _kernels_py):
        h = backend.make_handle(K4)
        assert backend.pm_count(h, 15, 10) == len(backend.pm_enumerate(h, 15, -1)) == 3
        for kernel in (backend.pm_count, backend.pm_enumerate):
            with pytest.raises(TypeError):
                kernel(h, 15, 10, ((0, 1),))


@given(
    st.lists(
        st.integers(min_value=1, max_value=(1 << 12) - 1), min_size=0, max_size=14
    )
)
@settings(max_examples=200, deadline=None)
def test_pack_masks_parity(masks):
    assert _kernels_py.pack_masks(tuple(masks)) == compiled.pack_masks(tuple(masks))


# (value kernel, set kernel) of each backend, for f and for af
SEARCHES = (
    ((compiled.forcing_value, compiled.forcing_set),
     (_kernels_py.forcing_value, _kernels_py.forcing_set)),
    ((compiled.anti_forcing_value, compiled.anti_forcing_set),
     (_kernels_py.anti_forcing_value, _kernels_py.anti_forcing_set)),
)


@given(graphs)
@settings(max_examples=150, deadline=None)
def test_search_fastpath_matches_python_search(gh):
    # both backends' searches give the same value and the same minimum set
    # of each matching, the value is the set's size, and each forcing set is
    # the one the cycle-hitting solver finds over the full alternating-cycle
    # list (an independent code path)
    from forcing_lab.graphs import build_graph
    from forcing_lab.matchings import enumerate_perfect_matchings
    from forcing_lab.solver import forcing_number

    n, bits = gh
    rows = graph_rows(n, bits)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rows[u] >> v & 1]
    g = build_graph(n, edges)
    pms = enumerate_perfect_matchings(g)[:3]
    hp, hc = _kernels_py.make_handle(rows), compiled.make_handle(rows)
    edges = [m.edges for m in pms]
    for (value, witness), (twin_value, twin_witness) in SEARCHES:
        values, masks = value(hc, edges, 10**7), witness(hc, edges, 10**7)
        assert values == twin_value(hp, edges, 10**7)
        assert masks == twin_witness(hp, edges, 10**7)
        assert values == [mask.bit_count() for mask in masks]
    masks = compiled.forcing_set(hc, edges, 10**7)
    for m, mask in zip(pms, masks):
        witness = forcing_number(g, m, method="cycle_hitting").witness_set
        assert witness == tuple(e for i, e in enumerate(m.edges) if mask >> i & 1)


def test_search_ceiling_parity():
    # both backends spend search nodes alike, so at every node limit they
    # give the same value or set, or -1 together
    from forcing_lab.matchings import enumerate_perfect_matchings

    rng = random.Random(0xCE11)
    results = ceilings = 0
    for _ in range(100):
        g = random_graph(rng.randint(4, 8), 0.3 + 0.2 * rng.random(), rng)
        hc, hp = compiled.make_handle(g.adj), _kernels_py.make_handle(g.adj)
        for m in enumerate_perfect_matchings(g):
            for pair in SEARCHES:
                for fn, twin in zip(*pair):
                    for node_limit in range(1, 51):
                        (value,) = fn(hc, [m.edges], node_limit)
                        if value == -2:
                            continue
                        expected = twin(hp, [m.edges], node_limit)
                        assert [value] == expected, (g.edges, m.edges, node_limit)
                        results += 1
                        ceilings += value == -1
    assert (results, ceilings) == (16800, 1900)


def tournament_rows(n: int, seed: int):
    """A bipartite graph on 2n vertices with the perfect matching
    (i, n + i): vertex n + i is joined to j < n, or n + j to i, as a seeded
    tournament orients the pair {i, j}.  Its alternating cycles are the
    tournament's directed cycles, of length 3 or more, so no alternating
    4-cycle seeds the search, and the forcing search learns hundreds."""
    rng = random.Random(seed)
    rows = [0] * (2 * n)
    for u, v in [(i, n + i) for i in range(n)] + [
        (n + i, j) if rng.random() < 0.5 else (n + j, i)
        for i in range(n)
        for j in range(i + 1, n)
    ]:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return tuple(rows), tuple((i, n + i) for i in range(n))


def test_search_parity_with_a_large_store(monkeypatch):
    # on 2n = 52 vertices the f search learns 400 cycles, so the compiled
    # search holds each set of them in seven words: both backends give the
    # same value, and the same set (which learns no more cycles), where the
    # node budget just suffices, and -1 one node below it.  On 2n = 56 it
    # learns 538: the compiled search declines at its 512-cycle store (-2)
    # and the twin answers.
    learnt = []  # each cycle the twin's search learns costs it one pm_enumerate call
    enumerate_two = _kernels_py.pm_enumerate
    monkeypatch.setattr(
        _kernels_py, "pm_enumerate", lambda *a: learnt.append(a) or enumerate_two(*a)
    )
    rows, m = tournament_rows(26, 26)
    hc = compiled.make_handle(rows)
    witness = 0x2E6_73B7  # 17 of the 26 matching edges
    for fn, twin, nodes, expected in (
        (compiled.forcing_value, _kernels_py.forcing_value, 17237, 17),
        (compiled.forcing_set, _kernels_py.forcing_set, 23017, witness),
    ):
        assert fn(hc, [m], nodes) == [expected]
        learnt.clear()
        assert twin(rows, [m], nodes) == [expected]
        assert len(learnt) == 400
        for node_limit in (nodes - 1, nodes // 2, 1):
            assert fn(hc, [m], node_limit) == twin(rows, [m], node_limit) == [-1]
    assert witness.bit_count() == 17
    rows, m = tournament_rows(28, 28)
    assert compiled.forcing_value(compiled.make_handle(rows), [m], 10**7) == [-2]
    learnt.clear()
    assert _kernels_py.forcing_value(rows, [m], 10**7) == [19]
    assert len(learnt) == 538


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs POSIX interval timers")
def test_search_batch_stops_at_a_signal():
    # one call searches many matchings, but a signal handler still runs
    # between two of them, as it did between separate calls: 10,000 copies
    # of a 4 ms search stop within a second of a 50 ms alarm
    class Alarm(Exception):
        pass

    def ring(signum, frame):
        raise Alarm

    rows, m = tournament_rows(26, 26)
    h = compiled.make_handle(rows)
    previous = signal.signal(signal.SIGALRM, ring)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.05)
        with pytest.raises(Alarm):
            compiled.forcing_value(h, [m] * 10_000, 10**7)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 1.05


def test_search_fastpath_budget_sentinel():
    from forcing_lab.graphs import generate
    from forcing_lab.matchings import enumerate_perfect_matchings

    g = generate("complete_bipartite", 4, 4)
    pms = [m.edges for m in enumerate_perfect_matchings(g)]
    h = compiled.make_handle(g.adj)
    hp = _kernels_py.make_handle(g.adj)
    for backend, handle in ((compiled, h), (_kernels_py, hp)):
        for search in (backend.forcing_value, backend.forcing_set):
            assert search(handle, pms[:1], 2) == [-1]
            # the list ends at the first matching whose budget runs out
            assert search(handle, pms, 2) == [-1]
            assert search(handle, [], 2) == []
        assert backend.forcing_value(handle, pms, 10**7) == [3] * 24
        # the lowest three of the four matching edges
        assert backend.forcing_set(handle, pms, 10**7) == [0b0111] * 24


def wide_graph():
    """H-hat_10 plus the edge (0, 11), and its two perfect matchings: each
    leaves 91 non-matching edges, over the 64 the compiled af search holds."""
    from forcing_lab.families import make_H_hat
    from forcing_lab.graphs import build_graph
    from forcing_lab.matchings import enumerate_perfect_matchings

    h = make_H_hat(10)
    g = build_graph(h.order, h.edges + ((0, 11),))
    return g, enumerate_perfect_matchings(g)


def test_search_fastpath_large_universe_falls_back():
    # the compiled af searches answer -2 and the twin's searches answer
    from forcing_lab.solver import anti_forcing_number, is_anti_forcing_set, spectrum

    g, pms = wide_graph()
    assert (g.edge_count, len(pms)) == (101, 2)
    hc, hp = compiled.make_handle(g.adj), _kernels_py.make_handle(g.adj)
    assert all(g.edge_count - len(m) == 91 for m in pms)
    edges = [m.edges for m in pms]
    assert compiled.anti_forcing_value(hc, edges, 10**7) == [-2, -2]
    assert compiled.anti_forcing_set(hc, edges, 10**7) == [-2, -2]
    assert _kernels_py.anti_forcing_value(hp, edges, 10**7) == [1, 1]
    for m, mask in zip(pms, _kernels_py.anti_forcing_set(hp, edges, 10**7)):
        off = [e for e in g.edges if e not in m.edges]
        removed = [e for i, e in enumerate(off) if mask >> i & 1]
        assert len(removed) == 1 and is_anti_forcing_set(g, m, removed)
    spec = spectrum(g, with_anti_forcing=True)
    assert spec.af_values == (1, 1)
    for m, af in zip(pms, spec.af_values):
        result = anti_forcing_number(g, m)
        assert result.value == af
        assert is_anti_forcing_set(g, m, result.witness_set)


def class_flag_rows():
    """Adjacency rows of every labelled graph of orders 1-6, of every
    bipartite mask with side <= 3, and of the seeded order-8 sample."""
    from forcing_lab.graphs import graph6_decode
    from forcing_lab.sweep import bipartite_graph_from_mask

    for order in range(1, 7):
        for bits in range(1 << (order * (order - 1) // 2)):
            yield graph_rows(order, bits)
    for side in (1, 2, 3):
        for mask in range(1 << (side * side)):
            yield bipartite_graph_from_mask(side, mask).adj
    for line in order8_sample_lines():
        yield graph6_decode(line).adj


def test_class_flags_parity():
    # equal flags and side masks; each flag is set somewhere and clear
    # somewhere, so no bit is parity by default
    seen_set = seen_clear = 0
    count = 0
    for rows in class_flag_rows():
        flags, side_u = compiled.class_flags(compiled.make_handle(rows))
        assert (flags, side_u) == _kernels_py.class_flags(rows), rows
        seen_set |= flags
        seen_clear |= ~flags
        count += 1
    assert count == 33_867 + 2 + 16 + 512 + 2000
    assert seen_set & 0xFF == seen_clear & 0xFF == 0xFF


def threshold_rows(order):
    """Vertex v joined to every earlier vertex when v is odd: the cograph
    recursion peels one vertex a level, in the graph and its complement by
    turns, so it runs ``order`` levels deep."""
    rows = [0] * order
    for v in range(1, order, 2):
        for u in range(v):
            rows[u] |= 1 << v
            rows[v] |= 1 << u
    return tuple(rows)


def test_class_flags_on_64_vertices():
    from forcing_lab.graphs import BALANCED, BIPARTITE, COGRAPH, CONNECTED, SPLIT

    matching = tuple(1 << (v ^ 1) for v in range(64))  # 32 disjoint edges
    path = tuple((v and 1 << v - 1) | (v < 63 and 1 << v + 1) for v in range(64))
    cases = {
        threshold_rows(64): CONNECTED | SPLIT | COGRAPH,
        matching: BIPARTITE | BALANCED | COGRAPH,
        path: CONNECTED | BIPARTITE | BALANCED,
        (): None,
    }
    for rows, flags in cases.items():
        got = compiled.class_flags(compiled.make_handle(rows))
        assert got == _kernels_py.class_flags(rows)
        if flags is not None:
            assert got[0] == flags, (bin(got[0]), rows)
    assert compiled.class_flags(compiled.make_handle(path))[1] == 0x5555_5555_5555_5555


def test_cycle_ceiling_sentinel():
    rows = graph_rows(6, (1 << 15) - 1)  # K6
    hp = _kernels_py.make_handle(rows)
    hc = compiled.make_handle(rows)
    (m,) = _kernels_py.pm_enumerate(hp, 63, 1)
    assert _kernels_py.alt_cycles(hp, m, 1) is None
    assert compiled.alt_cycles(hc, m, 1) is None


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


KERNELS = {
    "make_handle",
    "pm_count",
    "pm_enumerate",
    "alt_cycles",
    "pack_masks",
    "forcing_value",
    "anti_forcing_value",
    "forcing_set",
    "anti_forcing_set",
    "class_flags",
}


def public_names(module):
    """The module's public names; ``from __future__ import annotations`` adds none."""
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and value is not __future__.annotations
    }


def test_module_exports():
    # both backends export the same names, exactly those _backend binds
    assert public_names(compiled) == public_names(_kernels_py) == {"BACKEND_NAME"} | KERNELS
    assert all(hasattr(_backend, kernel) for kernel in KERNELS)
    assert _backend.mis is None


def test_tracked_c_compiles_without_warnings():
    out = cc("-fsyntax-only", "-Wall", "-Werror", str(ROOT / "src" / "forcing_lab" / "_ckernels.c"))
    assert out.returncode == 0, out.stderr


K4 = (0b1110, 0b1101, 0b1011, 0b0111)
K4_M = ((0, 1), (2, 3))
C4 = (0b1010, 0b0101, 0b1010, 0b0101)  # the cycle 0-1-2-3-0

# (exception, matching of K4) that every kernel reading a matching refuses:
# it must be a sequence of (u, v) edges covering every vertex once
BAD_K4_MATCHINGS = (
    (TypeError, 5),  # not a sequence
    (TypeError, None),
    (TypeError, ((0, 1), 2)),
    (TypeError, ((0, 1), (2.0, 3))),
    (ValueError, ((0, 1, 2), (2, 3))),  # a pair of the wrong length
    (ValueError, ((0,), (2, 3))),
    (ValueError, ((0, 1), (2, 4))),  # a vertex outside 0..3
    (ValueError, ((0, 1), (2, -1))),
    (ValueError, ((0, 1), (2, 64))),
    (ValueError, ((0, 1), (2, 2))),  # a loop is no edge
    (ValueError, ((0, 1), (1, 2))),  # repeats vertex 1
    (ValueError, ((0, 1), (2, 3), (0, 1))),
    (ValueError, ((0, 1),)),  # misses vertices 2 and 3
    (ValueError, ()),
    (TypeError, (1, 0, 3, 2)),  # a partner array, not edges
)


SEARCH_KERNELS = (
    compiled.forcing_value,
    compiled.anti_forcing_value,
    compiled.forcing_set,
    compiled.anti_forcing_set,
)


def bad_calls(h):
    """(exception, call) for arguments the kernels must refuse, not crash on."""
    c4 = compiled.make_handle(C4)
    # the kernels that read a matching: alt_cycles, and the searches with the
    # matching after a good one in their list
    reads_matching = (lambda h, m: compiled.alt_cycles(h, m, 10),) + tuple(
        lambda h, m, search=search: search(h, [K4_M, m], 10) for search in SEARCH_KERNELS
    )
    return [
        (TypeError, lambda: compiled.pm_count(None, 3, 2)),
        (TypeError, lambda: compiled.pm_enumerate(K4, 15, -1)),
        (TypeError, lambda: compiled.alt_cycles(None, K4_M, 10)),
        (TypeError, lambda: compiled.pack_masks([1.0])),
        (TypeError, lambda: compiled.class_flags(None)),
        (TypeError, lambda: compiled.class_flags(h, h)),
        (TypeError, lambda: compiled.class_flags(h=h)),  # positional only
        (TypeError, lambda: compiled.pm_count(h, 15, cap=2)),  # positional only
        (TypeError, lambda: compiled.pm_count(h, 15, 2, ())),
        (TypeError, lambda: compiled.pm_enumerate(h, 15, -1, ())),
        (TypeError, lambda: compiled.alt_cycles(h, K4_M)),
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
    ] + [
        (error, lambda call=call, matching=matching: call(h, matching))
        for call in reads_matching
        for error, matching in BAD_K4_MATCHINGS
    ] + [
        (error, lambda search=search, args=args: search(*args))
        for search in SEARCH_KERNELS
        for error, args in (
            (TypeError, (None, [K4_M], 10)),  # not a handle
            (TypeError, (h, [K4_M])),
            (TypeError, (h, [K4_M], 10, 10)),
            (TypeError, (h, 5, 10)),  # a list of matchings that is no sequence
            (TypeError, (h, None, 10)),
            (TypeError, (h, [K4_M], 1.5)),
            (OverflowError, (h, [K4_M], 2**63)),
        )
    ] + [
        # (0, 2) and (1, 3) are no edges of the 4-cycle
        (ValueError, lambda call=call: call(c4, ((0, 2), (1, 3))))
        for call in reads_matching
    ]


def test_bad_arguments_raise():
    h = compiled.make_handle(K4)
    for error, call in bad_calls(h):
        with pytest.raises(error):
            call()


def kernel_round(h, wide, calls):
    compiled.make_handle(K4)
    assert compiled.pm_count(h, 15, 10) == 3
    assert len(compiled.pm_enumerate(h, 15, -1)) == 3
    assert len(compiled.alt_cycles(h, K4_M, 10)) == 2
    assert compiled.alt_cycles(h, list(map(list, K4_M)), 1) is None
    assert compiled.pack_masks([3, 12, 5, 6, 15]) == 2
    assert compiled.forcing_value(h, [K4_M, list(map(list, K4_M))], 100) == [1, 1]
    assert compiled.anti_forcing_value(h, (K4_M,), 100) == [2]
    assert compiled.forcing_set(h, [K4_M, list(map(list, K4_M))], 100) == [0b01, 0b01]
    assert compiled.anti_forcing_set(h, (K4_M,), 100) == [0b0011]  # (0, 2) and (0, 3)
    assert compiled.forcing_value(h, [K4_M, K4_M], 1) == [-1]
    assert compiled.anti_forcing_set(h, [K4_M], 1) == [-1]
    assert compiled.anti_forcing_value(*wide, 100) == [-2, -2]
    assert compiled.anti_forcing_set(*wide, 100) == [-2, -2]
    # K4: connected, split, cograph, f = n-1; C4: connected, bipartite with
    # sides {0, 2} and {1, 3}, cograph, f = n-1
    assert compiled.class_flags(h) == (0b00111001, 0)
    assert compiled.class_flags(compiled.make_handle(C4)) == (0b00110111, 0b0101)
    refuse(calls)


def refuse(calls):
    """Make each bad call, expecting its error.  A small function of its own:
    tracemalloc looks up the line of every allocation, and that lookup runs
    through the whole line table of kernel_round's rewritten asserts."""
    for error, call in calls:
        try:
            call()
        except error:
            pass


def test_no_reference_leaks():
    # a reference a kernel fails to drop keeps its object alive, so traced
    # memory grows with the number of calls.  Garbage in reference cycles is
    # collected before each reading; a leaked object is never collected.
    # 2,500 rounds make a leak of one int a round (32 bytes, the smallest
    # object a kernel allocates) exceed the bound.
    h = compiled.make_handle(K4)
    g, pms = wide_graph()
    wide = compiled.make_handle(g.adj), [m.edges for m in pms]
    calls = bad_calls(h)
    for _ in range(200):
        kernel_round(h, wide, calls)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(2500):
            kernel_round(h, wide, calls)
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 64 * 1024, grown

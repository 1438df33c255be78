"""Executable checks for every theorem, bound, equality case and the
conjecture, producing one VerdictRow per graph and VerdictRecords.

Statuses: pass / fail / inapplicable / counterexample / aborted.  A fail
means a proved statement was violated (an artifact bug); a counterexample
is reserved for the open conjecture, whose violation would be a research
finding rather than a bug.

Each statement is one entry of the table THEOREMS.  A bound entry declares
when it applies, the observed quantity (e, f, F or Af), the bound with its
record string and direction, and one of these equality policies:

- characterized: equality must be a named extremal graph, else it fails;
- tight: equality on a named example gives equality_matches_extremal,
  any other equality n/a;
- none: the equality case is always n/a (CONJ_5_1 reports a violation as
  a counterexample);
- iff: f = n-d exactly when a class predicate holds.

LEM_3_3 (checked per perfect matching) and PROBLEM_5_4_CANDIDATE (a record
only for the graphs it flags) are custom entries.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple, Optional

from .errors import FamilyError, GraphError, ResourceLimitError
from .families import (
    classify,
    instantiate_family,
    make_H,
    make_H_hat,
    make_H_hat_join,
    make_matching_join,
    parse_family_spec,
)
from .graphs import Graph, are_isomorphic, bipartition_of, graph6_encode
from .matchings import has_perfect_matching
from .solver import (
    DEFAULT_LIMITS,
    ExactBound,
    SolverLimits,
    _cor_3_5_bound,
    bound_values,
    spectrum,
)

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"
COUNTEREXAMPLE = "counterexample"
ABORTED = "aborted"

EQ_STRICT = "strict"
EQ_MATCH = "equality_matches_extremal"
EQ_MISMATCH = "equality_mismatch"
EQ_NA = "n/a"

# equality policies of bound entries (see the module docstring)
_CHARACTERIZED = "characterized"
_TIGHT = "tight"
_NONE = "none"


@dataclass(slots=True)
class VerdictRecord:
    theorem_id: str
    graph_id: str
    inputs: dict
    bound: str
    observed: Optional[int]
    status: str
    equality_case: str = EQ_NA
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "theorem_id": self.theorem_id,
            "graph_id": self.graph_id,
            "inputs": self.inputs,
            "bound": self.bound,
            "observed": self.observed,
            "status": self.status,
            "equality_case": self.equality_case,
            "detail": self.detail,
        }


# the per-graph inputs every verdict record carries, in CSV column order
_INPUTS = ("n", "e", "delta", "f", "F", "Af", "r", "connected", "bipartite", "split", "cograph")
CSV_COLUMNS = (
    "graph6", "theorem_id", *_INPUTS, "bound", "observed", "status", "equality_case"
)


def record_csv_row(rec: VerdictRecord) -> list:
    ins = rec.inputs.get
    return [
        rec.graph_id,
        rec.theorem_id,
        *map(ins, _INPUTS),
        rec.bound,
        rec.observed,
        rec.status,
        rec.equality_case,
    ]


# The one JSON encoding of a record, sort-keyed and compact: the report and
# each checkpoint line hold these bytes.
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_GRAPH_ID = ',"graph_id":'
_FAILING = (FAIL, COUNTEREXAMPLE, ABORTED)


class VerdictRow:
    """A graph's records less its graph_id: the inputs they share and, per
    record, (theorem_id, bound, observed, status, equality_case, detail).
    Its encodings are computed on first use and kept, so graphs that share
    a row encode it once."""

    __slots__ = ("inputs", "verdicts", "_json", "_pieces", "_csv", "_failing")

    def __init__(self, inputs: dict, verdicts: tuple):
        self.inputs, self.verdicts = inputs, verdicts
        self._json = self._pieces = self._csv = self._failing = None

    def records(self, graph_id: str) -> list[VerdictRecord]:
        """The row's records, in row order; they share one copy of the inputs."""
        inputs = dict(self.inputs)
        return [VerdictRecord(tid, graph_id, inputs, *rest) for tid, *rest in self.verdicts]

    def json_units(self) -> list[tuple[str, str, str]]:
        """(theorem_id, text before the graph_id, text after it) of each
        record's ``_encode`` bytes, in a stable theorem_id order."""
        if self._json is None:
            units = []
            for rec in self.records(""):
                head, _, tail = _encode(rec.to_json_dict()).partition(_GRAPH_ID + '""')
                units.append((rec.theorem_id, head + _GRAPH_ID, tail))
            self._json = sorted(units, key=itemgetter(0))
        return self._json

    def json_pieces(self) -> list[str]:
        """The records' bytes in the report, joined by ",": the escaped
        graph_id joins these pieces into them."""
        if self._pieces is None:
            pieces, prev = [], ""
            for _tid, head, tail in self.json_units():
                pieces.append(prev + head)
                prev = tail + ","
            self._pieces = pieces + [prev[:-1]]
        return self._pieces

    def csv_units(self) -> list[tuple[str, list]]:
        """(theorem_id, CSV row less the graph6) of each record, in a stable
        theorem_id order."""
        if self._csv is None:
            units = [(rec.theorem_id, record_csv_row(rec)[1:]) for rec in self.records("")]
            self._csv = sorted(units, key=itemgetter(0))
        return self._csv

    def failing(self) -> Optional[VerdictRow]:
        """The row of the fail, counterexample and aborted records, or None."""
        if self._failing is None:
            kept = tuple(v for v in self.verdicts if v[3] in _FAILING)
            self._failing = VerdictRow(self.inputs, kept) if kept else ()
        return self._failing or None


# ---------------------------------------------------------------------------
# class recognizers by degrees (the constructed extremal graphs are decided
# by are_isomorphic)


def is_nk2(g: Graph) -> bool:
    """Disjoint single edges: every vertex has exactly one neighbour."""
    return all(row.bit_count() == 1 for row in g.adj)


def is_c4_k2_union(g: Graph, n_cycles: int) -> bool:
    """Disjoint union of exactly ``n_cycles`` 4-cycles plus single edges.
    Every vertex has one or two neighbours; a degree-1 vertex's neighbour has
    degree 1 (an edge), and a degree-2 vertex's two neighbours have the same
    row (with it and their other common neighbour, a 4-cycle)."""
    degrees, twos = g.degrees, 0
    for row, degree in zip(g.adj, degrees):
        high = row.bit_length() - 1
        if degree == 1 and degrees[high] == 1:
            continue
        if degree != 2 or g.adj[(row & -row).bit_length() - 1] != g.adj[high]:
            return False
        twos += 1
    return twos == 4 * n_cycles


# ---------------------------------------------------------------------------
# the theorem table


class _Extremal(NamedTuple):
    """Graphs attaining a bound: ``name`` is formatted with n and k, and
    ``test(g, n, k)`` decides membership, where k is f(G)."""

    name: str
    test: Callable[[Graph, int, Optional[int]], bool]


# Per process: the closed-form bounds by (order, e, delta), and by inputs key
# (``_Facts.key``) each table entry's verdict, kept only when it read nothing
# but c.inputs and c.bounds.  Entries compare by identity (eq=False), so an
# entry never reads another's verdict.
_BOUNDS: dict = {}
_VERDICTS: dict = {}
# Per process: each row by (THEOREMS, inputs key, its verdicts); see verdict_row.
_ROWS: dict = {}
_MISS = object()


class _Facts:
    """What the checks read about one graph, computed once."""

    def __init__(self, g: Graph, graph_id: str, limits: SolverLimits):
        self.g, self.graph_id = g, graph_id
        self.n, self.e, self.delta = g.order // 2, g.edge_count, g.min_degree
        self.report = report = classify(g)
        self.connected, self.bipartite = report.connected, report.bipartite
        self.split, self.cograph = report.is_split, report.is_cograph
        self.spec = spectrum(g, limits=limits, with_anti_forcing=True)
        self.f, self.F = self.spec.f_min, self.spec.f_max
        af = self.spec.af_values
        self.Af = None if af is None else max(af)  # None: the af search hit a ceiling
        self.r = self.e - g.order + 1 if self.connected else None
        self.inputs = {key: getattr(self, key) for key in _INPUTS}
        self.key = tuple(self.inputs.values())
        bounds_key = (g.order, self.e, self.delta)
        if bounds_key not in _BOUNDS:
            _BOUNDS[bounds_key] = bound_values(g)
        self.bounds = _BOUNDS[bounds_key]

    def witness(self) -> str:
        """Detail of a failed record: every matching with its forcing number."""
        per = ";".join(
            "matching=" + ",".join(f"{u}-{v}" for u, v in m.edges) + f" f={val}"
            for m, val in self.spec.per_matching
        )
        return f"graph6={self.graph_id} {per}"


# A check's verdict on one graph is (bound, observed, status, equality_case,
# detail), or None for no record; a detail of None stands for the witness.


class _OwnVerdict(tuple):
    """A verdict that read the graph itself, not only c.inputs and c.bounds:
    it holds for that graph alone, so the verdict cache never keeps it."""


@dataclass(frozen=True, eq=False)
class _Bound:
    """``observed <= bound`` for a ``<quantity>_upper`` kind and ``>=`` for
    ``<quantity>_lower``, the quantity being e, f, F or Af, wherever the
    hypothesis ``applies`` holds.  ``value`` gives the bound: an int or a
    Fraction, a closed form of ``solver.bound_values`` (read from
    ``c.bounds``, a square-root ``ExactBound`` for three of them), or None
    where the graph has none."""

    theorem_id: str
    policy: str
    kind: str
    value: Callable[[_Facts], int | Fraction | ExactBound | None]
    applies: Callable[[_Facts], bool] = lambda c: True
    label: Optional[str] = None  # the record's bound string, if not the value
    extremal: Optional[_Extremal] = None
    violation: str = FAIL
    shown: bool = True  # False records no observed value
    reads_af: bool = False  # aborted when the af search hit a ceiling

    def verdict(self, c: _Facts):
        if self.reads_af and c.Af is None:
            return _OwnVerdict(("", None, ABORTED, EQ_NA, c.spec.af_error))
        bound = self.value(c)
        quantity, side = self.kind.split("_")
        observed = c.inputs[quantity]
        label = self.label if self.label is not None else "" if bound is None else str(bound)
        shown = observed if self.shown else None
        if not self.applies(c):
            return label, shown, INAPPLICABLE, EQ_NA, ""
        low, high = (observed, bound) if side == "upper" else (bound, observed)  # low <= high
        if low < high:
            return label, shown, PASS, EQ_NA if self.policy == _NONE else EQ_STRICT, ""
        if low > high:
            return label, shown, self.violation, EQ_NA, None
        if self.policy == _NONE:
            return label, shown, PASS, EQ_NA, ""
        if self.extremal is not None and self.extremal.test(c.g, c.n, c.f):
            verdict = label, shown, PASS, EQ_MATCH, ""
        elif self.policy == _TIGHT:
            verdict = label, shown, PASS, EQ_NA, ""
        else:
            verdict = label, shown, FAIL, EQ_MISMATCH, None
        return verdict if self.extremal is None else _OwnVerdict(verdict)


@dataclass(frozen=True, eq=False)
class _Iff:
    """``f(G) = n - deficit`` exactly when ``predicted`` holds."""

    theorem_id: str
    label: str
    deficit: int
    predicted: Callable[[_Facts], bool]
    applies: Callable[[_Facts], bool] = lambda c: True
    reads_graph: bool = False  # ``predicted`` reads more of the graph than c.inputs

    def verdict(self, c: _Facts):
        if not self.applies(c):
            return self.label, None, INAPPLICABLE, EQ_NA, ""
        observed = c.f == c.n - self.deficit
        if self.predicted(c) != observed:
            verdict = self.label, int(observed), FAIL, EQ_NA, None
        else:
            verdict = self.label, int(observed), PASS, EQ_MATCH if observed else EQ_NA, ""
        return _OwnVerdict(verdict) if self.reads_graph else verdict


@dataclass(frozen=True, eq=False)
class _Custom:
    theorem_id: str
    verdict: Callable[[_Facts], Optional[tuple]]


def _lemma_3_3(c: _Facts):
    """Every perfect matching M has an edge of degree sum >= 2n/(n-f(G,M)),
    and equality needs n-f(G,M) to divide n."""
    label, n, any_equality = "max degree-sum >= 2n/(n-f(G,M))", c.n, False
    degrees = c.g.degrees
    for m, fv in c.spec.per_matching:
        best = max(degrees[u] + degrees[v] for u, v in m.edges)
        slack = best * (n - fv) - 2 * n  # n - f(G,M) >= 1
        if slack < 0:
            detail = f"matching {m.edges} has max degree sum {best} < {Fraction(2 * n, n - fv)}"
            return label, None, FAIL, EQ_NA, detail
        if slack == 0:
            any_equality = True
            if n % (n - fv) != 0:
                detail = f"equality at matching {m.edges} but {n - fv} does not divide {n}"
                return label, None, FAIL, EQ_NA, detail
    return label, None, PASS, EQ_MATCH if any_equality else EQ_STRICT, ""


def _hhat_or_matching_join(g: Graph, n: int, k: int) -> bool:
    return k <= n - 1 and (
        _HHAT_JOIN.test(g, n, k) or are_isomorphic(g, make_matching_join(n, k))
    )


_HHAT_JOIN = _Extremal(
    "HhatJoin:{n},{k}", lambda g, n, k: are_isomorphic(g, make_H_hat_join(n, k))
)
_H_NK = _Extremal("H:{n},{k}", lambda g, n, k: are_isomorphic(g, make_H(n, k)))
# a bipartite graph on 2n vertices with n^2 edges is K_{n,n}
_NK2_OR_KNN = _Extremal(
    "nK2:{n} or Knn:{n}",
    lambda g, n, k: is_nk2(g) or (g.edge_count == n * n and bipartition_of(g) is not None),
)


def _conjecture_bound(c: _Facts) -> Fraction:
    return Fraction(c.n * c.n, c.n - c.F)


THEOREMS = (
    # size of unique-perfect-matching graphs, and at f(G) = k
    _Bound(
        "THM_1_4", _CHARACTERIZED, "e_upper", lambda c: c.n * (c.n + 1) // 2,
        applies=lambda c: c.bipartite and c.f == 0,
        extremal=_Extremal("H:{n},0", lambda g, n, k: are_isomorphic(g, make_H(n, 0))),
    ),
    _Bound(
        "THM_1_5", _CHARACTERIZED, "e_upper", lambda c: c.n * c.n,
        applies=lambda c: c.f == 0,
        extremal=_Extremal("Hhat:{n}", lambda g, n, k: are_isomorphic(g, make_H_hat(n))),
    ),
    _Bound(
        "THM_2_1", _CHARACTERIZED, "e_upper",
        lambda c: c.n * c.n + 2 * c.n * c.f - c.f * c.f - c.f, extremal=_HHAT_JOIN,
    ),
    _Bound(
        "THM_2_3", _CHARACTERIZED, "e_upper",
        # the two factors sum to 2n+1, so one of them is even
        lambda c: (c.n - c.f) * (c.n + c.f + 1) // 2 + c.n * c.f,
        applies=lambda c: c.bipartite, extremal=_H_NK,
    ),
    # lower bounds on f
    _Bound(
        "COR_2_2", _CHARACTERIZED, "f_lower", lambda c: c.bounds["COR_2_2"],
        extremal=_HHAT_JOIN,
    ),
    _Bound(
        "COR_2_4", _CHARACTERIZED, "f_lower", lambda c: c.bounds["COR_2_4"],
        applies=lambda c: c.bipartite, extremal=_H_NK,
    ),
    _Bound(
        "THM_2_5", _TIGHT, "f_lower", lambda c: c.bounds["THM_2_5"],
        applies=lambda c: c.bipartite,
        extremal=_Extremal(
            "H:{n},delta-1",
            lambda g, n, k: 1 <= g.min_degree <= n
            and are_isomorphic(g, make_H(n, g.min_degree - 1)),
        ),
    ),
    _Bound(
        "THM_2_8", _TIGHT, "f_lower", lambda c: c.bounds["THM_2_8"],
        applies=lambda c: c.split or c.cograph,
        extremal=_Extremal("HhatJoin:{n},{k} or MJoin:{n},{k}", _hhat_or_matching_join),
    ),
    # upper bounds on F, and the size at F(G) = k
    _Bound(
        "COR_3_1", _TIGHT, "F_upper", lambda c: c.bounds["COR_3_1"],
        applies=lambda c: c.connected,
    ),
    _Bound(
        "PROP_3_2", _CHARACTERIZED, "F_upper", lambda c: c.bounds["PROP_3_2"],
        extremal=_Extremal(
            "C4s and K2s",
            lambda g, n, k: (g.edge_count - n) % 2 == 0
            and is_c4_k2_union(g, (g.edge_count - n) // 2),
        ),
    ),
    _Custom("LEM_3_3", lambda c: _OwnVerdict(_lemma_3_3(c))),
    _Bound(
        "THM_3_4", _TIGHT, "e_lower", lambda c: Fraction(c.n * (c.n + 1), c.n - c.F) - c.F - 1,
        extremal=_NK2_OR_KNN,
    ),
    _Bound("COR_3_5", _TIGHT, "F_upper", lambda c: c.bounds["COR_3_5"], extremal=_NK2_OR_KNN),
    # anti-forcing
    _Bound("F_LE_AF", _NONE, "F_upper", lambda c: c.Af, reads_af=True),
    _Bound(
        "AF_CYCLOMATIC", _NONE, "Af_upper", lambda c: c.r,
        applies=lambda c: c.connected, reads_af=True,
    ),
    _Bound(
        "AF_EDGE_BOUND", _NONE, "Af_upper",
        lambda c: Fraction(2 * c.e - 2 * c.n, 4) if c.connected else None,
        applies=lambda c: c.connected, reads_af=True,
    ),
    # characterizations of f = n-1 and f = n-2 (a bipartite graph on 2n
    # vertices with n^2 edges is K_{n,n})
    _Iff(
        "THM_4_2", "f=n-1 iff K_{n,n}", 1, lambda c: c.bipartite and c.e == c.n * c.n,
        applies=lambda c: c.bipartite,
    ),
    _Iff(
        "THM_4_3", "f=n-1 iff complete multipartite or K_{n,n}+sides", 1,
        lambda c: c.report.predicts_f_n1, reads_graph=True,
    ),
    _Iff(
        "THM_4_5", "f=n-2 iff G1 or G2 member", 2,
        lambda c: c.report.g1_member or c.report.g2_member,
        applies=lambda c: c.bipartite and c.n >= 2, reads_graph=True,
    ),
    _Bound(
        "REM_4_8", _NONE, "F_upper", lambda c: c.n - 2,
        applies=lambda c: c.bipartite and c.n >= 2 and c.f == c.n - 2,
        label="every matching forces n-2", shown=False,
    ),
    # open problem: no pass/fail semantics, the record flags the graph for study
    _Custom(
        "PROBLEM_5_4_CANDIDATE",
        lambda c: ("non-bipartite with f=n-2 (uncharacterized)", c.f, INAPPLICABLE, EQ_NA, "")
        if not c.bipartite and c.n >= 2 and c.f == c.n - 2
        else None,
    ),
    # the conjecture e >= n^2/(n-F), and the range where it is proved
    _Bound(
        "PROP_5_2_5_3", _NONE, "e_lower", _conjecture_bound,
        applies=lambda c: 2 * c.F <= c.n or c.F >= c.n - 2,
        label="e(n-F) >= n^2 in the proved range",
    ),
    _Bound("CONJ_5_1", _NONE, "e_lower", _conjecture_bound, violation=COUNTEREXAMPLE),
)

_BY_ID = {check.theorem_id: check for check in THEOREMS}


def verify_equality_case(theorem_id: str, g: Graph, k: Optional[int] = None) -> VerdictRecord:
    """Decide membership in the theorem's named extremal graphs; ``k`` is
    f(G) for the families that depend on it."""
    n = g.order // 2
    graph_id = graph6_encode(g)
    inputs = {"n": n, "e": g.edge_count}
    extremal = getattr(_BY_ID.get(theorem_id), "extremal", None)
    try:
        if extremal is None:
            raise GraphError(f"no extremal family registered for {theorem_id}")
        ok = extremal.test(g, n, k)
    except (GraphError, FamilyError) as exc:
        return VerdictRecord(
            theorem_id, graph_id, inputs, "isomorphism", None, ABORTED, EQ_NA, str(exc)
        )
    bound = "extremal " + extremal.name.format(n=n, k=k)
    status, equality = (PASS, EQ_MATCH) if ok else (FAIL, EQ_MISMATCH)
    return VerdictRecord(theorem_id, graph_id, inputs, bound, None, status, equality, "")


# ---------------------------------------------------------------------------
# per-graph verification


_PLAIN_OBSERVED = (int, type(None))


def _lone_row(theorem_id: str, g: Graph, status: str, detail: str) -> VerdictRow:
    inputs = {"n": g.order // 2, "e": g.edge_count}
    return VerdictRow(inputs, ((theorem_id, "", None, status, EQ_NA, detail),))


def verdict_row(g: Graph, graph_id: str, *, limits: SolverLimits = DEFAULT_LIMITS) -> VerdictRow:
    """The graph's row: one verdict per statement of THEOREMS, in table
    order; see the module docstring for the status semantics.  ``graph_id``
    is the graph's graph6 (``graph6_encode(g)``), which a failure witness
    quotes.  Graphs with equal verdicts and inputs share one interned row,
    except where a verdict holds the graph's own failure witness or a
    freshly computed observed value that is not an int (True and 1 are
    equal keys, but encode apart)."""
    if g.order % 2 or not has_perfect_matching(g):
        return _lone_row("NO_PERFECT_MATCHING", g, INAPPLICABLE, "graph has no perfect matching")
    try:
        c = _Facts(g, graph_id, limits)
    except ResourceLimitError as exc:
        return _lone_row("RESOURCE", g, ABORTED, str(exc))
    cached = _VERDICTS.setdefault(c.key, {})
    verdicts, shared = [], True
    for check in THEOREMS:
        verdict = cached.get(check, _MISS)
        if verdict is _MISS:
            verdict = check.verdict(c)
            if verdict is not None and type(verdict[1]) not in _PLAIN_OBSERVED:
                shared = False
            if not isinstance(verdict, _OwnVerdict):
                cached[check] = verdict
        verdicts.append(verdict)
    key = (THEOREMS, c.key, tuple(verdicts))
    row = _ROWS.get(key) if shared else None
    if row is None:
        entries, witness = [], None
        for check, verdict in zip(THEOREMS, verdicts):
            if verdict is None:
                continue
            bound, observed, status, equality, detail = verdict
            if detail is None:
                detail = witness = witness or c.witness()
            entries.append((check.theorem_id, bound, observed, status, equality, detail))
        row = VerdictRow(c.inputs, tuple(entries))
        if shared and witness is None:
            _ROWS[key] = row
    return row


def verify_graph(g: Graph, *, limits: SolverLimits = DEFAULT_LIMITS) -> list[VerdictRecord]:
    """One record per statement of THEOREMS: the graph's ``verdict_row``
    as records, in table order."""
    graph_id = graph6_encode(g)
    return verdict_row(g, graph_id, limits=limits).records(graph_id)


# ---------------------------------------------------------------------------
# known values, minimax spot checks, crossover remark


KNOWN_VALUES: tuple[tuple[str, dict], ...] = (
    ("grid:4x4", {"f": 2, "F": 4}),
    ("torus:4x4", {"f": 4, "F": 4}),
    ("torus:4x6", {"f": 4, "F": 6}),
    ("pc:2x4", {"F": 2}),
    ("pc:2x6", {"F": 3}),
    ("pc:4x4", {"F": 4}),
    ("pc:3x4", {"F": 3}),
    ("pc:3x6", {"F": 4}),
    ("pc:2x3", {"F": 2}),
    ("pc:2x5", {"F": 3}),
    ("pc:4x3", {"F": 4}),
    ("Q:2", {"f": 1}),
    ("Q:3", {"f": 2}),
    ("Q:4", {"f": 4}),
)


def verify_known_values(
    entries: Optional[Iterable[str]] = None,
    *,
    limits: SolverLimits = DEFAULT_LIMITS,
) -> list[VerdictRecord]:
    """Compare computed spectra against the published grid/torus/hypercube
    values.  ``entries`` filters the table by family text."""
    table = dict(KNOWN_VALUES)
    wanted = list(table) if entries is None else list(entries)
    records = []
    for text in wanted:
        expect = table[text]
        g = instantiate_family(parse_family_spec(text))
        graph_id = graph6_encode(g)
        try:
            spec = spectrum(g, limits=limits)
        except ResourceLimitError as exc:
            records.append(
                VerdictRecord(
                    "KNOWN_VALUE", graph_id, {"family": text}, "", None, ABORTED,
                    EQ_NA, str(exc),
                )
            )
            continue
        for quantity, value in sorted(expect.items()):
            observed = spec.f_min if quantity == "f" else spec.f_max
            records.append(
                VerdictRecord(
                    "KNOWN_VALUE",
                    graph_id,
                    {"family": text, "quantity": quantity},
                    str(value),
                    observed,
                    PASS if observed == value else FAIL,
                    EQ_NA,
                    "" if observed == value else f"{text} {quantity}: expected {value}",
                )
            )
    return records


def verify_pachter_kim(
    g: Graph, *, limits: SolverLimits = DEFAULT_LIMITS
) -> VerdictRecord:
    """f(G,M) = C(G,M) for every matching; call this only on graphs built as
    plane bipartite (grids, even cycles, unions of 4-cycles)."""
    spec = spectrum(g, limits=limits, with_cycle_packing=True)
    detail = ""
    for (m, fv), c in zip(spec.per_matching, spec.c_values):
        if c != fv:
            detail = f"matching {m.edges}: f={fv}, C={c}"
            break
    return VerdictRecord(
        "PK_MINIMAX",
        graph6_encode(g),
        {"n": g.order // 2, "e": g.edge_count},
        "f(G,M)=C(G,M)",
        None,
        FAIL if detail else PASS,
        EQ_NA,
        detail,
    )


def verify_crossover_remark(
    n_range: Iterable[int], e_values: Optional[Iterable[int]] = None
) -> list[VerdictRecord]:
    """Numeric crossover claims: the sqrt bound beats (e-n)/2 once
    3e > 7n-2, and beats r(G) once e > 2n-1 + sqrt(2n^2-2n)/2."""
    records = []
    for n in n_range:
        if n < 2:
            continue
        es = list(e_values) if e_values is not None else list(range(n, 2 * n * n - n + 1))
        for e in es:
            cor35 = _cor_3_5_bound(n, e)
            checks = []
            if 3 * e > 7 * n - 2:
                checks.append(("(e-n)/2", Fraction(e - n, 2)))
            lhs = e - 2 * n + 1
            if lhs > 0 and 4 * lhs * lhs > 2 * n * n - 2 * n:
                checks.append(("r", e - 2 * n + 1))
            if not checks:
                records.append(
                    VerdictRecord(
                        "REM_3_6", "", {"n": n, "e": e}, "", None, INAPPLICABLE
                    )
                )
                continue
            ok = all(cor35 < target for _, target in checks)
            records.append(
                VerdictRecord(
                    "REM_3_6",
                    "",
                    {"n": n, "e": e},
                    "; ".join(f"{str(cor35)} < {label}={target}" for label, target in checks),
                    None,
                    PASS if ok else FAIL,
                    EQ_NA,
                )
            )
    return records

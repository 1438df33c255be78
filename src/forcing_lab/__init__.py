"""forcing-lab: exact solvers and a verification harness for
perfect-matching forcing and anti-forcing numbers on small graphs."""

__version__ = "0.1.0"

from ._backend import BACKEND_NAME
from .errors import (
    FamilyError,
    GraphError,
    MatchingError,
    NoPerfectMatchingError,
    ResourceLimitError,
)
from .graphs import (
    Bipartition,
    Graph,
    bipartition_of,
    build_graph,
    cartesian_product,
    cyclomatic_number,
    disjoint_union,
    generate,
    graph6_decode,
    graph6_encode,
    join,
)
from .matchings import (
    AlternatingCycle,
    Matching,
    allowed_edges,
    alternating_cycles,
    enumerate_perfect_matchings,
    forbidden_edges,
    has_perfect_matching,
    has_unique_perfect_matching,
    is_elementary,
    matching_from_edges,
)
from .solver import (
    ForcingResult,
    SolverLimits,
    SpectrumReport,
    anti_forcing_number,
    bound_values,
    cycle_packing,
    forcing_number,
    is_anti_forcing_set,
    is_forcing_set,
    spectrum,
)
from .families import (
    ClassReport,
    FamilySpec,
    classify,
    instantiate_family,
    make_G1_member,
    make_G2_member,
    make_G4,
    make_G5,
    make_H,
    make_H_hat,
    make_H_hat_join,
    make_matching_join,
    parse_family_spec,
    recognize_f_n1,
)
from .verify import (
    VerdictRecord,
    verify_crossover_remark,
    verify_equality_case,
    verify_graph,
    verify_known_values,
    verify_pachter_kim,
)

__all__ = [name for name in dir() if not name.startswith("_")]

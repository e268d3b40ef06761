"""Involutions, (anti-)automorphisms and the groups they generate, for
finite semigroups given by Cayley tables."""

from .errors import (
    AlgebraError,
    BudgetExceededError,
    ContextMismatchError,
    DegreeMismatchError,
    IndexOutOfRangeError,
    InputFormatError,
    LengthBudgetExceededError,
    NoEdgesError,
    NotAGroupError,
    NotAnInvolutionError,
    NotAssociativeError,
    NotGraphAutomorphismError,
    OrderBudgetExceededError,
    SearchBudgetExceededError,
)
from .perms import parse_cycles
from .semigroups import (
    ElementFingerprint,
    FiniteSemigroup,
    GreenStructure,
    atoms,
    close_under,
    closure_of_subset,
    dump_table,
    from_json_dict,
    generating_set,
    green_relations,
    load_table,
    to_json_dict,
    validate,
)
from .morphisms import (
    MorphismSet,
    StabiliserChain,
    automorphism_chain,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    find_anti_isomorphism,
    find_isomorphism,
    involutions,
    is_anti_homomorphism,
    is_homomorphism,
    is_proper_involution,
    order_two_automorphisms,
)
from .permgroups import (
    GroupFingerprint,
    PairGroup,
    c_group,
    closure,
    derived_subgroup,
    g_group,
    group_fingerprint,
    k_group,
    signed_aut_order,
    to_cayley_table,
    two_involution_factorization,
)
from .graphs import (
    SimpleGraph,
    frucht_semigroup,
    graph_automorphisms,
    graph_involution_group,
    load_graph,
)
from .traces import (
    TraceContext,
    TraceWord,
    bfs_trace_class,
    delta_map,
    gamma_map,
    normal_form,
    trace_equal,
)
from .report import analyze, report_to_text
from .battery import CheckResult, run_battery

__version__ = "0.1.0"

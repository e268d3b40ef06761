"""The names ``import involute`` exposes, pinned.  Adding or removing an
export is a deliberate edit of this list, made beside its lines in README
and CHANGES.md."""

import types

import involute

PUBLIC = {
    # errors
    "AlgebraError", "BudgetExceededError", "ContextMismatchError", "DegreeMismatchError",
    "IndexOutOfRangeError", "InputFormatError", "LengthBudgetExceededError", "NoEdgesError",
    "NotAnInvolutionError", "NotAssociativeError", "NotGraphAutomorphismError",
    "OrderBudgetExceededError", "SearchBudgetExceededError",
    # perms
    "parse_cycles",
    # semigroups
    "FiniteSemigroup", "atoms", "close_under", "closure_of_subset", "dump_table",
    "from_json_dict", "generating_set", "load_table", "to_json_dict", "validate",
    # morphisms
    "MorphismSet", "StabiliserChain", "automorphism_chain", "enumerate_anti_automorphisms",
    "enumerate_automorphisms", "find_anti_isomorphism", "find_isomorphism", "involutions",
    "is_anti_homomorphism", "is_homomorphism", "is_proper_involution", "order_two_automorphisms",
    # permgroups
    "GroupFingerprint", "c_group", "closure", "derived_subgroup", "g_group", "group_fingerprint",
    "k_group", "signed_aut_order", "to_cayley_table", "two_involution_factorization",
    # graphs
    "SimpleGraph", "frucht_semigroup", "graph_automorphisms", "graph_involution_group",
    "load_graph",
    # traces
    "TraceContext", "TraceWord", "bfs_trace_class", "delta_map", "gamma_map", "normal_form",
    "trace_equal",
    # report and battery
    "analyze", "report_to_text", "CheckResult", "run_battery",
}


def test_the_package_exports_exactly_the_listed_names():
    # submodules are left out: which of them are attributes depends on what
    # was imported before
    exported = {name for name, value in vars(involute).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC

"""Whole-semigroup analysis: morphism counts, generated groups, and
identification of C(S) against a small catalog of named groups."""

from __future__ import annotations

from dataclasses import dataclass, field

from . import families
from .morphisms import (
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    enumerate_isomorphism_mappings,
    involutions,
    order_two_automorphisms,
)
from .permgroups import (
    GroupFingerprint,
    PermGroup,
    c_group,
    g_group,
    group_fingerprint,
    involution_laws,
    signed_aut_group,
    to_cayley_table,
)
from .semigroups import FiniteSemigroup


def _catalog_for_order(m: int):
    """Named candidate groups of order m the report tries to match."""
    from .semigroups import TABLE_CAP

    out = []
    if m == 1:
        out.append(("trivial", families.cyclic_group(1)))
        return out
    if m > TABLE_CAP:
        return out
    out.append((f"Z_{m}", families.cyclic_group(m)))
    k = 0
    while 2**k < m:
        k += 1
    if 2**k == m and k >= 2:
        out.append((f"Z_2^{k}", families.elementary_abelian_two_group(k)))
    fact, bang = 2, 2
    while bang < m:
        fact += 1
        bang *= fact
    if bang == m and fact >= 3:
        out.append((f"Sym({fact})", families.sym_group_table(fact)))
    fact, bang = 2, 2
    while 2 * bang < m:
        fact += 1
        bang *= fact
    if 2 * bang == m and fact >= 2:
        out.append(
            (
                f"Z_2 x Sym({fact})",
                families.direct_product_table(
                    families.cyclic_group(2), families.sym_group_table(fact)
                ),
            )
        )
    if m % 2 == 0 and m >= 6:
        out.append((f"D_{m // 2}", families.dihedral_group(m // 2)))
    return out


def identify_group(g: PermGroup, *, budget=None) -> list[tuple[str, bool]]:
    """Match a materialized group against the named catalog of its order.

    Returns (descriptor, matched) verdicts, each decided by an exact
    isomorphism search from the Cayley table of g to the candidate.  The
    search rejects a candidate at once when the element fingerprints
    differ, which on a group means the element orders.  Groups too large to
    tabulate get no verdicts.
    """
    from .semigroups import TABLE_CAP

    if g.order > TABLE_CAP:
        return []
    table = to_cayley_table(g)
    return [
        (name, bool(enumerate_isomorphism_mappings(table, cand, budget=budget, limit=1)))
        for name, cand in _catalog_for_order(g.order)
    ]


@dataclass(frozen=True)
class AnalysisReport:
    input_name: str
    size: int
    commutative: bool
    identity: int | None
    n_automorphisms: int
    n_anti_automorphisms: int
    n_involutions: int
    n_order_two_automorphisms: int
    c_order: int
    g_order: int
    signed_order: int
    c_fingerprint: GroupFingerprint
    proper_involution_exists: bool
    split_law_ok: bool | None
    central_law_ok: bool | None
    identifications: tuple
    automorphisms: tuple = field(repr=False, default=())
    anti_automorphisms: tuple = field(repr=False, default=())
    involution_maps: tuple = field(repr=False, default=())


def analyze(
    s: FiniteSemigroup,
    *,
    name: str = "semigroup",
    budget: int | None = None,
    order_cap: int | None = None,
) -> AnalysisReport:
    """Full report for one Cayley table; deterministic across runs."""
    auts = enumerate_automorphisms(s, budget=budget, cap=order_cap)
    antis = enumerate_anti_automorphisms(s, budget=budget, cap=order_cap)
    invs = involutions(s, budget=budget, cap=order_cap)
    j_set = order_two_automorphisms(s, budget=budget, cap=order_cap)
    c = c_group(s, budget=budget, cap=order_cap)
    # On a commutative S every anti-automorphism is an automorphism, so I(S)
    # is J(S) minus the identity.  J(S) sorted is the identity followed by
    # I(S) in the same order, and closure skips the identity, so even the
    # kept generators of G(S) are those of C(S).
    g = c if s.is_commutative else g_group(s, budget=budget, cap=order_cap)
    signed = signed_aut_group(s, budget=budget, cap=order_cap)
    c_fingerprint = group_fingerprint(c)
    split_law, central_law = involution_laws(s, auts, invs, j_set, c, g)

    return AnalysisReport(
        input_name=name,
        size=s.n,
        commutative=s.is_commutative,
        identity=s.identity,
        n_automorphisms=len(auts),
        n_anti_automorphisms=len(antis),
        n_involutions=len(invs),
        n_order_two_automorphisms=len(j_set),
        c_order=c.order,
        g_order=g.order,
        signed_order=signed.order,
        c_fingerprint=c_fingerprint,
        proper_involution_exists=split_law is not None,
        split_law_ok=split_law,
        central_law_ok=central_law,
        identifications=tuple(identify_group(c, budget=budget)),
        automorphisms=auts.elements,
        anti_automorphisms=antis.elements,
        involution_maps=invs.elements,
    )


def report_to_json_dict(r: AnalysisReport) -> dict:
    return {
        "input": r.input_name,
        "size": r.size,
        "commutative": r.commutative,
        "identity": r.identity,
        "counts": {
            "automorphisms": r.n_automorphisms,
            "antiAutomorphisms": r.n_anti_automorphisms,
            "involutions": r.n_involutions,
            "orderTwoAutomorphisms": r.n_order_two_automorphisms,
        },
        "groups": {
            "C": {
                "order": r.c_order,
                "abelian": r.c_fingerprint.abelian,
                "exponent": r.c_fingerprint.exponent,
                "elementOrderHistogram": {
                    str(k): v for k, v in r.c_fingerprint.element_order_histogram
                },
                "centerOrder": r.c_fingerprint.center_order,
                "derivedOrder": r.c_fingerprint.derived_order,
            },
            "G": {"order": r.g_order},
            "signedAut": {"order": r.signed_order},
        },
        "properInvolutionExists": r.proper_involution_exists,
        "checks": {"splitLaw": r.split_law_ok, "centralLaw": r.central_law_ok},
        "identification": {name: ok for name, ok in r.identifications},
        "morphisms": {
            "automorphisms": r.automorphisms,
            "antiAutomorphisms": r.anti_automorphisms,
            "involutions": r.involution_maps,
        },
    }


def report_to_text(r: AnalysisReport) -> str:
    def law(value):
        return "-" if value is None else "pass" if value else "FAIL"

    rows = [
        ("input", r.input_name),
        ("size", r.size),
        ("commutative", r.commutative),
        ("identity", r.identity if r.identity is not None else "-"),
        ("|Aut(S)|", r.n_automorphisms),
        ("|Aut-(S)|", r.n_anti_automorphisms),
        ("|I(S)|", r.n_involutions),
        ("|J(S)|", r.n_order_two_automorphisms),
        ("|C(S)|", r.c_order),
        ("|G(S)|", r.g_order),
        ("|Aut+-(S)|", r.signed_order),
        ("C exponent", r.c_fingerprint.exponent),
        ("C abelian", r.c_fingerprint.abelian),
        ("C center order", r.c_fingerprint.center_order),
        ("C derived order", r.c_fingerprint.derived_order),
        ("proper involution", r.proper_involution_exists),
        ("split law |C|=2|C^Aut|", law(r.split_law_ok)),
        ("central law |C|=2|G|", law(r.central_law_ok)),
    ]
    lines = [f"{label + ':':<24}{value}" for label, value in rows]
    for name, ok in r.identifications:
        lines.append(f"C(S) =? {name:<15}{'yes' if ok else 'no'}")
    return "\n".join(lines) + "\n"

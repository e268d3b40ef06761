"""Whole-semigroup analysis: morphism counts, generated groups, and
identification of C(S) against a small catalog of named groups.

The report is one document, the one ``analyze --json`` prints through
:func:`write_json`; :func:`report_to_text` renders the same document as text.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import partial
from math import factorial, gcd, lcm

from . import families
from .morphisms import (
    StabiliserChain,
    enumerate_anti_automorphisms,
    enumerate_automorphisms,
    enumerate_isomorphism_mappings,
    involutions,
    order_two_automorphisms,
)
from .permgroups import (
    GroupFingerprint,
    c_group,
    g_group,
    group_fingerprint,
    involution_laws,
    signed_aut_order,
    to_cayley_table,
)
from .semigroups import TABLE_CAP, FiniteSemigroup


def _cyclic_orders(m: int) -> Counter:
    """Z_m has phi(d) elements of order d for each divisor d of m."""
    return Counter({d: sum(gcd(j, d) == 1 for j in range(d)) for d in range(1, m + 1) if m % d == 0})


def _sym_orders(k: int) -> Counter:
    """Sym(k), by the cycle through one point: of length j in
    (k-1)!/(k-j)! ways, with any map of the other k - j points."""
    out = Counter({1: 1} if k == 0 else {})
    for j in range(1, k + 1):
        for o, c in _sym_orders(k - j).items():
            out[lcm(j, o)] += c * factorial(k - 1) // factorial(k - j)
    return out


def _times_z2(orders: Counter) -> Counter:
    """Z_2 x H: (a, h) has order lcm(|a|, |h|)."""
    out = Counter(orders)
    for o, c in orders.items():
        out[lcm(2, o)] += c
    return out


def _catalog_for_order(m: int):
    """Named candidate groups of order m (at most TABLE_CAP) the report
    tries to match, in the order the text report prints them, as (name,
    element-order histogram of its family's closed form as sorted (order,
    count) pairs, function that builds its table)."""
    k = m.bit_length() - 1
    out = [("trivial" if m == 1 else f"Z_{m}", _cyclic_orders(m), partial(families.cyclic_group, m))]
    if m == 1 << k and k >= 2:
        out.append((f"Z_2^{k}", Counter({1: 1, 2: m - 1}),
                    partial(families.elementary_abelian_two_group, k)))
    out += [(f"Sym({k})", _sym_orders(k), partial(families.sym_group_table, k))
            for k in range(3, 7) if factorial(k) == m]
    out += [(f"Z_2 x Sym({k})", _times_z2(_sym_orders(k)), lambda k=k: families.direct_product_table(
                families.cyclic_group(2), families.sym_group_table(k)))
            for k in range(2, 6) if 2 * factorial(k) == m]
    if m % 2 == 0 and m >= 6:
        out.append((f"D_{m // 2}", _cyclic_orders(m // 2) + Counter({2: m // 2}),
                    partial(families.dihedral_group, m // 2)))
    return [(name, tuple(sorted(orders.items())), build) for name, orders, build in out]


def identify_group(g: StabiliserChain, fp: GroupFingerprint | None = None, *,
                   budget=None) -> list[tuple[str, bool]]:
    """Match a materialized group against the named catalog of its order,
    as (descriptor, matched) verdicts.  A candidate whose element-order
    histogram differs from that in ``fp``, the fingerprint of g (computed
    if not given), is not isomorphic to g, and no table is built for it.
    A tie is decided by an exact isomorphism search, under ``budget``, from
    the Cayley table of g.  Groups too large to tabulate get no verdicts.
    """
    if g.order > TABLE_CAP:
        return []
    hist = (group_fingerprint(g) if fp is None else fp).element_order_histogram
    table = None
    verdicts = []
    for name, orders, build in _catalog_for_order(g.order):
        if orders == hist and table is None:
            table = to_cayley_table(g)
        verdicts.append((name, orders == hist and bool(
            enumerate_isomorphism_mappings(table, build(), budget=budget, limit=1, layer="identification"))))
    return verdicts


def analyze(
    s: FiniteSemigroup,
    *,
    name: str = "semigroup",
    budget: int | None = None,
    order_cap: int | None = None,
) -> dict:
    """The report for one Cayley table, as the document ``analyze --json``
    prints (morphisms as mapping tuples); deterministic across runs.

    The parts are computed in the order Aut, Aut⁻, I, J, C, G, Aut±, the
    fingerprint of C, the laws and the identification of C, so a budget
    error names the first of them past its limit.
    """
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
    signed = signed_aut_order(s, budget=budget, cap=order_cap)
    fp = group_fingerprint(c)
    split_law, central_law = involution_laws(s, invs, j_set, c, g)
    return {
        "input": name,
        "size": s.n,
        "commutative": s.is_commutative,
        "identity": s.identity,
        "counts": {
            "automorphisms": len(auts),
            "antiAutomorphisms": len(antis),
            "involutions": len(invs),
            "orderTwoAutomorphisms": len(j_set),
        },
        "groups": {
            "C": {
                "order": c.order,
                "abelian": fp.abelian,
                "exponent": fp.exponent,
                "elementOrderHistogram": {str(k): v for k, v in fp.element_order_histogram},
                "centerOrder": fp.center_order,
                "derivedOrder": fp.derived_order,
            },
            "G": {"order": g.order},
            "signedAut": {"order": signed},
        },
        "properInvolutionExists": split_law is not None,
        "checks": {"splitLaw": split_law, "centralLaw": central_law},
        "identification": dict(identify_group(c, fp, budget=budget)),
        "morphisms": {
            "automorphisms": auts.elements,
            "antiAutomorphisms": antis.elements,
            "involutions": invs.elements,
        },
    }


def report_to_text(doc: dict) -> str:
    """The :func:`analyze` document as aligned ``label: value`` lines."""

    def law(value):
        return "-" if value is None else "pass" if value else "FAIL"

    counts, groups, c = doc["counts"], doc["groups"], doc["groups"]["C"]
    rows = [
        ("input", doc["input"]),
        ("size", doc["size"]),
        ("commutative", doc["commutative"]),
        ("identity", "-" if doc["identity"] is None else doc["identity"]),
        ("|Aut(S)|", counts["automorphisms"]),
        ("|Aut-(S)|", counts["antiAutomorphisms"]),
        ("|I(S)|", counts["involutions"]),
        ("|J(S)|", counts["orderTwoAutomorphisms"]),
        ("|C(S)|", c["order"]),
        ("|G(S)|", groups["G"]["order"]),
        ("|Aut+-(S)|", groups["signedAut"]["order"]),
        ("C exponent", c["exponent"]),
        ("C abelian", c["abelian"]),
        ("C center order", c["centerOrder"]),
        ("C derived order", c["derivedOrder"]),
        ("proper involution", doc["properInvolutionExists"]),
        ("split law |C|=2|C^Aut|", law(doc["checks"]["splitLaw"])),
        ("central law |C|=2|G|", law(doc["checks"]["centralLaw"])),
    ]
    lines = [f"{label + ':':<24}{value}" for label, value in rows]
    for name, ok in doc["identification"].items():
        lines.append(f"C(S) =? {name:<15}{'yes' if ok else 'no'}")
    return "\n".join(lines) + "\n"


#: Maps per ``write`` in :func:`write_json`.  One system call per block costs
#: little, and a block of Sym(6)'s 720-point maps is about 0.6 MB, where the
#: whole document as one string would be 27.7 MB.
BLOCK = 64


def write_json(doc: dict, out) -> None:
    """Write the :func:`analyze` document to the text stream ``out``, byte
    for byte as ``json.dump(doc, out, sort_keys=True, indent=2)`` followed by
    a newline.

    Everything but the three morphism lists goes through ``json.dumps``.
    Each list is written :data:`BLOCK` maps per ``write``, every map as its
    images' decimal strings joined: ``json`` falls back to its pure-Python
    encoder under ``indent`` and writes once per token, and the whole
    document as one string would double the peak memory.
    """
    head, _, tail = json.dumps(dict(doc, morphisms=None), sort_keys=True, indent=2).partition(
        '\n  "morphisms": null')
    out.write(head + '\n  "morphisms": {')
    for i, (key, maps) in enumerate(sorted(doc["morphisms"].items())):
        out.write(("," if i else "") + f"\n    {json.dumps(key)}: [")
        if not maps:
            out.write("]")
            continue
        # a map permutes 0..n-1, so each point's text is made once per list
        point = [str(x) for x in range(len(maps[0]))].__getitem__
        for start in range(0, len(maps), BLOCK):
            out.write(("\n" if start == 0 else ",\n") + ",\n".join(
                "      [\n        " + ",\n        ".join(map(point, m)) + "\n      ]"
                for m in maps[start:start + BLOCK]))
        out.write("\n    ]")
    out.write("\n  }" + tail + "\n")

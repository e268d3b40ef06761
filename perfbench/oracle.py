"""Checks on what the program printed, independent of ``involute``.

An ``analyze --json`` report must match the paper's closed forms for its
table (``corpus.Item.expect``), the invariant fields recorded from the seed
commit (``reference.json``), and the table itself: the identity it names is
the table's identity and every listed map is a bijective homomorphism
(automorphisms) or anti-homomorphism (anti-automorphisms, involutions).
Morphism lists are compared with nothing recorded, since they depend on the
labelling.  A ``verify`` op must pass with the detail string recorded from
the seed commit.
"""

from __future__ import annotations

import json

import numpy as np

from corpus import identity_of

#: Report fields that every relabelling of a table leaves unchanged.
INVARIANT_KEYS = ("size", "commutative", "counts", "groups",
                  "properInvolutionExists", "checks", "identification")

_MAPS = (("automorphisms", False), ("antiAutomorphisms", True), ("involutions", True))


def invariants(report: dict) -> dict:
    return {key: report.get(key) for key in INVARIANT_KEYS}


def _lookup(doc, path):
    for key in path.split("."):
        if not isinstance(doc, dict) or key not in doc:
            return None
        doc = doc[key]
    return doc


def _short(value, width=120):
    text = json.dumps(value, sort_keys=True)
    return text if len(text) <= width else text[:width] + "..."


def generating_set(table) -> list[int]:
    """Generators of the table's semigroup, added greedily in index order."""
    n = len(table)
    gens: list[int] = []
    have = [False] * n
    for x in range(n):
        if have[x]:
            continue
        gens.append(x)
        # the subsemigroup <gens>: every product of generators
        have = [False] * n
        work = list(gens)
        for g in gens:
            have[g] = True
        while work:
            y = work.pop()
            row = table[y]
            for g in gens:
                z = row[g]
                if not have[z]:
                    have[z] = True
                    work.append(z)
        if all(have):
            break
    return gens


def check_maps(kind, maps, table, gens, anti) -> list[str]:
    """Every map must be a distinct bijection that respects the product
    (reversed when ``anti``); involutions must also square to the identity.

    f respects the product iff f(xg) = f(x)f(g) for every x and every
    generator g: induction on the length of y as a word in ``gens`` gives
    f(xy) = f(x)f(y).  Likewise f(xg) = f(g)f(x) gives f(xy) = f(y)f(x).
    """
    n = len(table)
    if not maps:
        return []
    try:
        m = np.asarray(maps, dtype=np.int64)
    except (ValueError, TypeError):
        m = None
    if m is None or m.ndim != 2 or m.shape[1] != n:
        return [f"{kind}: maps are not lists of length {n}"]
    if not (np.sort(m, axis=1) == np.arange(n)).all():
        return [f"{kind}: a listed map is not a bijection"]
    if len({tuple(row) for row in maps}) != len(maps):
        return [f"{kind}: a map is listed twice"]
    if kind == "involutions":
        squared = np.take_along_axis(m, m, axis=1)
        if not (squared == np.arange(n)).all() or (m == np.arange(n)).all(axis=1).any():
            return [f"{kind}: a listed map is not of order 2"]
    t = np.asarray(table, dtype=np.int64)
    for g in gens:
        lhs = m[:, t[:, g]]                              # f(xg), one row per map
        fg = m[:, g][:, None]
        rhs = t[fg, m] if anti else t[m, fg]             # f(g)f(x) or f(x)f(g)
        if not (lhs == rhs).all():
            return [f"{kind}: a listed map does not respect the product"]
    return []


def check_report(item, text: str, table, reference: dict | None) -> list[str]:
    """Every way the report printed for ``table`` is wrong (empty if none).
    With no ``reference``, only the closed forms and the table are checked."""
    try:
        rep = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    if not isinstance(rep, dict):
        return ["output is not a JSON object"]
    errors = []
    for path, want in item.expect.items():
        got = _lookup(rep, path)
        if got != want:
            errors.append(f"closed form {path}: got {_short(got)}, expected {want!r}")
    if reference is not None:
        for key in INVARIANT_KEYS:
            if rep.get(key) != reference.get(key):
                errors.append(f"{key}: got {_short(rep.get(key))}, "
                              f"reference {_short(reference.get(key))}")
    if rep.get("identity") != identity_of(table):
        errors.append(f"identity: got {rep.get('identity')!r}, table has {identity_of(table)!r}")
    morphisms = rep.get("morphisms")
    counts = rep.get("counts")
    if not isinstance(morphisms, dict) or not isinstance(counts, dict):
        return errors + ["morphisms or counts missing"]
    gens = generating_set(table)
    for kind, anti in _MAPS:
        maps = morphisms.get(kind)
        if not isinstance(maps, list) or len(maps) != counts.get(kind):
            errors.append(f"{kind}: list length differs from the count")
            continue
        errors += check_maps(kind, maps, table, gens, anti)
    return errors


def check_verify(check: str, text: str, reference: dict | None) -> list[str]:
    """Every way the battery row printed for ``check`` is wrong."""
    try:
        rows = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    if not isinstance(rows, list) or len(rows) != 1 or not isinstance(rows[0], dict):
        return [f"expected one result row, got {_short(rows)}"]
    row = rows[0]
    errors = []
    if row.get("name") != check:
        errors.append(f"ran {row.get('name')!r} instead of {check!r}")
    if row.get("passed") is not True:
        errors.append(f"check failed: {row.get('detail')!r}")
    if reference is not None and row.get("detail") != reference.get("detail"):
        errors.append(f"detail {row.get('detail')!r} differs from reference "
                      f"{reference.get('detail')!r}")
    return errors


def comparable(text: str, workload: str) -> str:
    """Output with the battery's own timings removed, for comparing runs."""
    if workload != "verify":
        return text
    try:
        rows = json.loads(text)
        for row in rows:
            row.pop("seconds", None)
        return json.dumps(rows, sort_keys=True)
    except (ValueError, TypeError, AttributeError):
        return text

"""Permutations of {0, ..., n-1}, each held as its mapping tuple ``m``,
with ``m[x]`` the image of x.

Composition is right-to-left everywhere in this package:
``compose(p, q)[x] == p[q[x]]``, i.e. the right factor acts first.  All
identities quoted from the literature are re-derived under this convention in
the tests.
"""

from __future__ import annotations

import re

from .errors import InputFormatError


def compose(p, q):
    """Compose two mapping tuples: (p o q)(x) = p(q(x))."""
    return tuple(map(p.__getitem__, q))


def invert(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def identity_tuple(n):
    return tuple(range(n))


def as_mapping(p) -> tuple[int, ...]:
    """The mapping tuple of a sequence of images, the one form the library
    holds a map in; ValueError unless a bijection."""
    m = tuple(p)
    if sorted(m) != list(range(len(m))):
        raise ValueError(f"not a permutation of 0..{len(m) - 1}: {m}")
    return m


def is_involution(m) -> bool:
    """Whether the map, a sequence of images, has order exactly 2."""
    one = identity_tuple(len(m))
    return tuple(m) != one and compose(m, m) == one


def parity(m) -> int:
    """0 for an even map, 1 for an odd one."""
    return sum(len(c) - 1 for c in cycles(m)) % 2


def from_cycles(cycles, degree: int) -> tuple[int, ...]:
    """The mapping tuple of disjoint cycles on 0..degree-1; ValueError if a
    point is out of range or appears twice."""
    m = list(range(degree))
    seen: set[int] = set()
    for cyc in cycles:
        cyc = list(cyc)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if not 0 <= a < degree:
                raise ValueError(f"cycle point {a} outside degree {degree}")
            if a in seen:
                raise ValueError(f"point {a} appears twice in the cycles")
            seen.add(a)
            m[a] = b
    return tuple(m)


def cycles(m):
    """The non-trivial cycles of a mapping tuple, each rotated to start at
    its least point."""
    seen = [False] * len(m)
    out = []
    for start in range(len(m)):
        if seen[start] or m[start] == start:
            seen[start] = True
            continue
        cyc = []
        x = start
        while not seen[x]:
            seen[x] = True
            cyc.append(x)
            x = m[x]
        out.append(tuple(cyc))
    return out


def cycle_string(m, names=None) -> str:
    """A mapping tuple in cycle notation, ``()`` for the identity."""
    label = (lambda x: names[x]) if names is not None else str
    cycs = cycles(m)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(label(x) for x in c) + ")" for c in cycs)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


#: Largest degree :func:`parse_cycles` accepts, checked before a mapping of
#: that length is made (``involute factor`` prints every point).
MAX_PARSED_DEGREE = 10**5


def cycle_bodies(text: str) -> list[str]:
    """The insides of the ``(...)`` groups of a cycle literal such as
    ``(0 1 2)(3 4)``, in order; ``id`` has none.  Text outside the groups
    raises :class:`InputFormatError`."""
    text = text.strip()
    if text == "id":
        return []
    if _CYCLE_RE.sub("", text).strip():
        raise InputFormatError(f"cannot parse cycle literal {text!r}")
    return _CYCLE_RE.findall(text)


def parse_cycles(text: str, degree: int | None = None) -> tuple[int, ...]:
    """Parse cycle notation like ``(0 1 2)(3 4)``; ``()`` or ``id`` is the identity.

    Points may be separated by spaces or commas.  The degree defaults to one
    more than the largest point mentioned.  A degree past
    :data:`MAX_PARSED_DEGREE` raises :class:`InputFormatError`.
    """
    cycles = []
    for body in cycle_bodies(text):
        try:
            cyc = [int(p) for p in re.split(r"[,\s]+", body.strip()) if p]
        except ValueError as exc:
            raise InputFormatError(f"bad cycle point in {text.strip()!r}") from exc
        if cyc:
            cycles.append(cyc)
    top = max((max(c) for c in cycles), default=-1) + 1
    deg = degree if degree is not None else top
    if deg > MAX_PARSED_DEGREE:
        raise InputFormatError(f"degree {deg} exceeds the limit of {MAX_PARSED_DEGREE}")
    if top > deg:
        raise InputFormatError(f"cycle point {top - 1} outside degree {deg}")
    try:
        return from_cycles(cycles, deg)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc

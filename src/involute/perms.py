"""Permutations of {0, ..., n-1}.

Composition is right-to-left everywhere in this package:
``(p * q)(x) == p(q(x))``, i.e. the right factor acts first.  All identities
quoted from the literature are re-derived under this convention in the tests.
"""

from __future__ import annotations

import re
from math import lcm

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
    """The mapping tuple of a :class:`Permutation` or of a sequence of images,
    the one form the library holds a map in; ValueError unless a bijection."""
    if isinstance(p, Permutation):
        return p.mapping
    m = tuple(p)
    if sorted(m) != list(range(len(m))):
        raise ValueError(f"not a permutation of 0..{len(m) - 1}: {m}")
    return m


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


class Permutation:
    """An immutable bijection of {0..n-1}, stored as its mapping tuple."""

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        object.__setattr__(self, "mapping", as_mapping(mapping))

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Permutation":
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
        return cls(m)

    @property
    def degree(self) -> int:
        return len(self.mapping)

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # self * other applies other first
        return Permutation(compose(self.mapping, other.mapping))

    def inverse(self) -> "Permutation":
        return Permutation(invert(self.mapping))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.mapping))

    def is_involution(self) -> bool:
        """Order exactly 2."""
        m = self.mapping
        return any(v != i for i, v in enumerate(m)) and all(m[v] == i for i, v in enumerate(m))

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def parity(self) -> int:
        """0 for even, 1 for odd."""
        return sum(len(c) - 1 for c in self.cycles()) % 2

    def cycles(self):
        return cycles(self.mapping)

    def cycle_string(self, names=None) -> str:
        return cycle_string(self.mapping, names)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __repr__(self):
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


#: Largest degree :func:`parse_cycles` accepts, checked before a mapping of
#: that length is made (``involute factor`` prints every point).
MAX_PARSED_DEGREE = 10**5


def parse_cycles(text: str, degree: int | None = None) -> Permutation:
    """Parse cycle notation like ``(0 1 2)(3 4)``; ``()`` or ``id`` is the identity.

    Points may be separated by spaces or commas.  The degree defaults to one
    more than the largest point mentioned.  A degree past
    :data:`MAX_PARSED_DEGREE` raises :class:`InputFormatError`.
    """
    text = text.strip()
    cycles = []
    if text not in ("id", ""):
        stripped = _CYCLE_RE.sub("", text)
        if stripped.strip():
            raise InputFormatError(f"cannot parse permutation literal {text!r}")
        for body in _CYCLE_RE.findall(text):
            points = [p for p in re.split(r"[,\s]+", body.strip()) if p]
            try:
                cyc = [int(p) for p in points]
            except ValueError as exc:
                raise InputFormatError(f"bad cycle point in {text!r}") from exc
            if cyc:
                cycles.append(cyc)
    top = max((max(c) for c in cycles), default=-1) + 1
    deg = degree if degree is not None else top
    if deg > MAX_PARSED_DEGREE:
        raise InputFormatError(f"degree {deg} exceeds the limit of {MAX_PARSED_DEGREE}")
    if top > deg:
        raise InputFormatError(f"cycle point {top - 1} outside degree {deg}")
    try:
        return Permutation.from_cycles(cycles, deg)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc

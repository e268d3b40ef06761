"""Words over a partially commutative alphabet.

A context is an alphabet 0..m-1 plus a commutation graph: letters joined by
an edge may swap past each other.  Words are compared through a canonical
normal form: the lexicographically least word reachable by adjacent swaps of
commuting letters.  The normal form is computed greedily (repeatedly pull
out the smallest letter that commutes with everything before it); a
breadth-first oracle over single swaps cross-checks it in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    ContextMismatchError,
    InputFormatError,
    LengthBudgetExceededError,
    NotGraphAutomorphismError,
)
from .graphs import SimpleGraph
from .perms import as_mapping

DEFAULT_LENGTH_BOUND = 16


class TraceContext:
    """Alphabet of size m with a commutation graph on the letters."""

    def __init__(self, graph: SimpleGraph, letters: str | None = None):
        self.graph = graph
        self.m = graph.n
        if letters is not None and len(letters) != graph.n:
            raise ValueError("letter list length differs from alphabet size")
        self.letters = letters
        #: the display letters: those given, else a, b, c, ...
        self.alphabet = letters or "".join(chr(ord("a") + i) for i in range(self.m))

    @classmethod
    def from_edges(cls, m: int, edges, letters: str | None = None) -> "TraceContext":
        return cls(SimpleGraph(m, edges), letters)

    def commutes(self, a: int, b: int) -> bool:
        return self.graph.has_edge(a, b)

    def word(self, letters) -> "TraceWord":
        return TraceWord(self, tuple(letters))

    def parse(self, text: str) -> "TraceWord":
        """Read a word written with this context's display letters;
        :class:`InputFormatError` if it is empty or has another letter."""
        if not text:
            raise InputFormatError("a trace word needs at least one letter")
        if not set(text) <= set(self.alphabet):
            raise InputFormatError(f"letter outside alphabet {self.alphabet!r} in {text!r}")
        return self.word(map(self.alphabet.index, text))

    def __eq__(self, other):
        return isinstance(other, TraceContext) and self.graph == other.graph

    def __hash__(self):
        return hash(self.graph)

    def __repr__(self):
        return f"TraceContext(m={self.m}, edges={sorted(self.graph.edges)})"


@dataclass(frozen=True)
class TraceWord:
    """A non-empty word over a trace context (semigroup, not monoid)."""

    context: TraceContext
    letters: tuple

    def __post_init__(self):
        if not self.letters:
            raise ValueError("trace words must be non-empty")
        if any(not 0 <= x < self.context.m for x in self.letters):
            raise ValueError("letter outside the alphabet")

    def __len__(self):
        return len(self.letters)

    def __str__(self):
        return "".join(map(self.context.alphabet.__getitem__, self.letters))

    def concat(self, other: "TraceWord") -> "TraceWord":
        _same_context(self, other)
        return TraceWord(self.context, self.letters + other.letters)


def _same_context(u: TraceWord, w: TraceWord):
    if u.context != w.context:
        raise ContextMismatchError("words live over different contexts")


def _check_length(w: TraceWord, bound: int):
    if len(w.letters) > bound:
        raise LengthBudgetExceededError(bound)


def normal_form(w: TraceWord, *, bound: int = DEFAULT_LENGTH_BOUND) -> TraceWord:
    """The lexicographically least word in the trace class of ``w``.

    At each step, a letter can reach the front iff it commutes with every
    letter before it; the smallest such letter (leftmost occurrence) is
    emitted.  Equal traces have equal normal forms.
    """
    _check_length(w, bound)
    ctx = w.context
    rest = list(w.letters)
    out = []
    while rest:
        best_pos = 0
        best = rest[0]
        for i in range(1, len(rest)):
            x = rest[i]
            if x >= best:
                continue
            if all(ctx.commutes(rest[j], x) for j in range(i)):
                best, best_pos = x, i
        out.append(rest.pop(best_pos))
    return TraceWord(ctx, tuple(out))


def trace_equal(u: TraceWord, w: TraceWord, *, bound: int = DEFAULT_LENGTH_BOUND) -> bool:
    """Whether the two words are equal in the trace semigroup."""
    _same_context(u, w)
    if len(u.letters) != len(w.letters) or sorted(u.letters) != sorted(w.letters):
        return False
    return normal_form(u, bound=bound).letters == normal_form(w, bound=bound).letters


def _letter_map(pi, ctx: TraceContext) -> tuple[int, ...]:
    m = as_mapping(pi)
    if not ctx.graph.is_automorphism(m):  # False for a map of another degree
        raise NotGraphAutomorphismError(
            "the map must be an automorphism of the commutation graph"
        )
    return m


def gamma_map(pi, w: TraceWord) -> TraceWord:
    """Letterwise image of the word; a trace automorphism when pi (any
    sequence of images) is an automorphism of the commutation graph."""
    m = _letter_map(pi, w.context)
    return TraceWord(w.context, tuple(m[x] for x in w.letters))


def delta_map(pi, w: TraceWord) -> TraceWord:
    """Reversed letterwise image; a trace anti-automorphism.  With the
    identity permutation this is plain word reversal."""
    m = _letter_map(pi, w.context)
    return TraceWord(w.context, tuple(m[x] for x in reversed(w.letters)))


def bfs_trace_class(w: TraceWord, *, bound: int = DEFAULT_LENGTH_BOUND) -> frozenset:
    """The whole trace class, by breadth-first closure over single adjacent
    swaps of commuting letters.  Exponential; this is the test oracle, never
    the production path."""
    _check_length(w, bound)
    ctx = w.context
    start = w.letters
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for word in frontier:
            for i in range(len(word) - 1):
                a, b = word[i], word[i + 1]
                if a != b and ctx.commutes(a, b):
                    other = word[:i] + (b, a) + word[i + 2:]
                    if other not in seen:
                        seen.add(other)
                        nxt.append(other)
        frontier = nxt
    return frozenset(seen)

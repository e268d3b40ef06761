"""Small simple graphs, their automorphisms, and the graph-to-semigroup
construction whose automorphism group reproduces the graph's."""

from __future__ import annotations

import re
from collections import Counter

from .errors import InputFormatError, NoEdgesError, OrderBudgetExceededError, SearchBudgetExceededError
from .morphisms import MorphismSet, StabiliserChain, _squares_to_one
from .perms import as_mapping
from .permgroups import closure
from .semigroups import TABLE_CAP, FiniteSemigroup, cayley_table, read_json

GRAPH_NODE_BUDGET = 10**7


class SimpleGraph:
    """An undirected graph without loops or parallel edges."""

    def __init__(self, n: int, edges):
        # type() rather than isinstance(): bool is a subclass of int
        if type(n) is not int or n < 0:
            raise InputFormatError("vertex count must be a non-negative integer")
        if not isinstance(edges, (list, tuple)):
            raise InputFormatError("edges must be a list of vertex pairs")
        canon = set()
        for e in edges:
            if not (isinstance(e, (list, tuple)) and len(e) == 2
                    and all(type(x) is int for x in e)):
                raise InputFormatError(f"edge {e!r} is not a pair of integer vertices")
            u, v = e
            if u == v:
                raise InputFormatError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InputFormatError(f"edge ({u},{v}) out of range for n={n}")
            canon.add((min(u, v), max(u, v)))
        self.n = n
        self.edges = frozenset(canon)
        adj = [set() for _ in range(n)]
        for u, v in canon:
            adj[u].add(v)
            adj[v].add(u)
        self.adj = tuple(frozenset(a) for a in adj)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def is_automorphism(self, perm) -> bool:
        """Whether ``perm`` (see :func:`~involute.perms.as_mapping`) keeps the edges."""
        return self._keeps_edges(as_mapping(perm))

    def _keeps_edges(self, m: tuple) -> bool:
        """Whether a mapping tuple, already checked, is of degree n and keeps the edges."""
        return len(m) == self.n and all((min(m[u], m[v]), max(m[u], m[v])) in self.edges for u, v in self.edges)

    def __eq__(self, other):
        return isinstance(other, SimpleGraph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"SimpleGraph(n={self.n}, edges={sorted(self.edges)})"


def path_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> SimpleGraph:
    return SimpleGraph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def star_graph(n: int) -> SimpleGraph:
    """Vertex 0 joined to each of the other n-1 vertices."""
    return SimpleGraph(n, [(0, i) for i in range(1, n)])


def rigid_tree() -> SimpleGraph:
    """A 7-vertex asymmetric tree: paths of lengths 1, 2, 3 glued at vertex 0."""
    return SimpleGraph(7, [(0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6)])


def _signatures(g: SimpleGraph):
    degs = [g.degree(v) for v in range(g.n)]
    return [
        (degs[v], tuple(sorted(degs[u] for u in g.adj[v])))
        for v in range(g.n)
    ]


def graph_automorphisms(g: SimpleGraph) -> MorphismSet:
    """Every automorphism of the graph, by pruned backtracking.

    Candidates must share (degree, sorted neighbour degrees) with their
    preimage and respect adjacency with all previously assigned vertices;
    past ``GRAPH_NODE_BUDGET`` candidates tried, it raises.
    """
    n = g.n
    sigs = _signatures(g)
    freq = Counter(sigs)

    # assign rare signatures early, then stay connected to the assigned set
    order: list[int] = []
    placed = set()
    while len(order) < n:
        best = min(
            (v for v in range(n) if v not in placed),
            key=lambda v: (-len(g.adj[v] & placed), freq[sigs[v]], v),
        )
        order.append(best)
        placed.add(best)

    image = [-1] * n
    used = [False] * n
    results = []
    steps = 0

    def extend(k):
        nonlocal steps
        if k == n:
            results.append(tuple(image))
            return
        v = order[k]
        earlier = [u for u in order[:k]]
        for w in range(n):
            if used[w] or sigs[w] != sigs[v]:
                continue
            steps += 1
            if steps > GRAPH_NODE_BUDGET:
                raise SearchBudgetExceededError(GRAPH_NODE_BUDGET)
            if all(g.has_edge(v, u) == g.has_edge(w, image[u]) for u in earlier):
                image[v] = w
                used[w] = True
                extend(k + 1)
                image[v] = -1
                used[w] = False

    extend(0)
    for m in results:
        assert g.is_automorphism(m)
    return MorphismSet(g.n, results)


def graph_involution_group(g: SimpleGraph, *, cap=None) -> StabiliserChain:
    """C(Gamma): the subgroup generated by order-2 graph automorphisms."""
    auts = graph_automorphisms(g).array
    return closure(auts[_squares_to_one(auts)], degree=g.n, cap=cap)  # closure skips the identity


def frucht_semigroup(g: SimpleGraph) -> FiniteSemigroup:
    """The commutative 3-nilpotent semigroup on X u {Y, N}.

    Products of two adjacent vertices give Y, every other product gives N.
    Element order: the vertices in input order, then Y, then N.  Requires at
    least one edge (needed to pin Y under any automorphism).
    """
    if not g.edges:
        raise NoEdgesError("the construction needs a graph with at least one edge")
    n = g.n
    names = [str(v) for v in range(n)] + ["Y", "N"]
    return cayley_table(
        range(n + 2), lambda u, v: n if (min(u, v), max(u, v)) in g.edges else n + 1, names
    )


# ---------------------------------------------------------------------------
# graph file format: {"n": int, "edges": [[u, v], ...]}

def graph_to_json_dict(g: SimpleGraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json_dict(doc) -> SimpleGraph:
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise InputFormatError("expected an object with 'n' and 'edges'")
    return _input_graph(doc["n"], doc["edges"])


def load_graph(path) -> SimpleGraph:
    return graph_from_json_dict(read_json(path))


def parse_edge_list(text: str, n: int | None = None) -> SimpleGraph:
    """Parse inline edges like ``0-1,1-2``, each two ASCII-digit numbers
    joined by one ``-``; ``-`` alone is no edges.  Vertex count defaults to
    max+1."""
    edges = []
    text = text.strip()
    if text and text != "-":
        for part in text.split(","):
            m = re.fullmatch(r"\s*([0-9]+)-([0-9]+)\s*", part)
            if m is None:
                raise InputFormatError(f"bad edge {part!r}; expected like 0-1")
            edges.append((int(m[1]), int(m[2])))
    top = max((max(e) for e in edges), default=-1) + 1
    return _input_graph(n if n is not None else top, edges)


def _input_graph(n, edges) -> SimpleGraph:
    """A graph read as input to :func:`frucht_semigroup`; a vertex count past
    its :data:`TABLE_CAP` is refused before anything is built per vertex."""
    if type(n) is int and n + 2 > TABLE_CAP:
        raise OrderBudgetExceededError(TABLE_CAP)
    return SimpleGraph(n, edges)

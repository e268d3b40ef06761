import random
from itertools import permutations

import pytest
from networkx import Graph
from networkx.algorithms.isomorphism import GraphMatcher

from involute.battery import _frucht_corpus
from involute.errors import InputFormatError, NoEdgesError, OrderBudgetExceededError
from involute.graphs import (
    SimpleGraph,
    complete_graph,
    cycle_graph,
    frucht_semigroup,
    graph_automorphisms,
    graph_from_json_dict,
    graph_involution_group,
    graph_to_json_dict,
    parse_edge_list,
    path_graph,
    rigid_tree,
    star_graph,
)
from involute.morphisms import enumerate_automorphisms
from involute.permgroups import c_group


@pytest.fixture
def petersen_graph() -> SimpleGraph:
    """An outer 5-cycle, five spokes and an inner pentagram."""
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return SimpleGraph(10, outer + spokes + inner)


def test_graph_validation():
    with pytest.raises(InputFormatError):
        SimpleGraph(3, [(0, 0)])
    with pytest.raises(InputFormatError):
        SimpleGraph(3, [(0, 3)])
    g = SimpleGraph(3, [(0, 1), (1, 0)])
    assert len(g.edges) == 1


def test_graph_readers_refuse_a_graph_too_large_for_its_frucht_table():
    # the table has n + 2 elements: 1022 vertices fill the 1024-element limit
    assert parse_edge_list("0-1", n=1022).n == 1022
    for read in (lambda: parse_edge_list("0-1", n=1023), lambda: parse_edge_list("0-1023"),
                 lambda: graph_from_json_dict({"n": 10**8, "edges": [[0, 1]]})):
        with pytest.raises(OrderBudgetExceededError):
            read()


def test_graph_automorphism_counts(petersen_graph):
    assert len(graph_automorphisms(path_graph(3))) == 2
    assert len(graph_automorphisms(complete_graph(4))) == 24
    assert len(graph_automorphisms(cycle_graph(5))) == 10
    assert len(graph_automorphisms(star_graph(4))) == 6
    assert len(graph_automorphisms(rigid_tree())) == 1
    assert len(graph_automorphisms(SimpleGraph(4, []))) == 24
    assert len(graph_automorphisms(petersen_graph)) == 120


def test_graph_automorphisms_match_brute_force():
    for g in (path_graph(4), cycle_graph(6), star_graph(5)):
        brute = sorted(p for p in permutations(range(g.n)) if g.is_automorphism(p))
        assert list(graph_automorphisms(g)) == brute


def test_is_automorphism_rejects_a_map_that_is_not_a_permutation():
    g = path_graph(3)
    assert g.is_automorphism((2, 1, 0))
    with pytest.raises(ValueError):
        g.is_automorphism((0, 1, 0))  # keeps both edges as (0, 1), but is not a bijection


def test_graph_involution_group():
    assert graph_involution_group(path_graph(3)).order == 2
    assert graph_involution_group(cycle_graph(5)).order == 10
    assert graph_involution_group(rigid_tree()).order == 1


def test_frucht_semigroup_shape():
    s = frucht_semigroup(complete_graph(3))
    assert s.n == 5
    assert s.is_commutative
    y, z = 3, 4
    # N is a zero and every triple product collapses to it
    assert all(s.table[z][x] == z and s.table[x][z] == z for x in range(5))
    for a in range(5):
        for b in range(5):
            for c in range(5):
                assert s.table[s.table[a][b]][c] == z
    assert s.table[0][1] == y


def test_frucht_requires_an_edge():
    with pytest.raises(NoEdgesError):
        frucht_semigroup(SimpleGraph(3, []))


def test_frucht_automorphism_correspondence():
    for g in (path_graph(3), path_graph(2), cycle_graph(4), star_graph(4)):
        s = frucht_semigroup(g)
        graph_auts = graph_automorphisms(g)
        semi_auts = enumerate_automorphisms(s)
        assert len(semi_auts) == len(graph_auts)
        # every semigroup automorphism fixes Y and N and restricts to a graph one
        restricted = set()
        for p in semi_auts:
            assert p[g.n] == g.n and p[g.n + 1] == g.n + 1
            restricted.add(p[: g.n])
        assert restricted == set(graph_auts)


def test_frucht_c_group_matches_graph_side():
    for g in (path_graph(4), cycle_graph(5), complete_graph(4), rigid_tree()):
        assert c_group(frucht_semigroup(g)).order == graph_involution_group(g).order


def test_noncomplete_graph_doubles_into_the_direct_product():
    # the graph-semigroup group for a non-complete graph is Z_2 x C(graph);
    # its order is twice the graph side (the trace tests exercise the rest)
    from involute.families import cyclic_group, direct_product_table
    from involute.permgroups import to_cayley_table

    for g in (path_graph(3), cycle_graph(4), SimpleGraph(3, [])):
        c = graph_involution_group(g)
        doubled = direct_product_table(cyclic_group(2), to_cayley_table(c))
        assert doubled.n == 2 * c.order


def test_graph_json_roundtrip():
    g = cycle_graph(5)
    assert graph_from_json_dict(graph_to_json_dict(g)) == g
    with pytest.raises(InputFormatError):
        graph_from_json_dict({"n": 3})
    for n in (True, "2"):  # the other bad cases go through `construct frucht`
        with pytest.raises(InputFormatError):
            graph_from_json_dict({"n": n, "edges": []})


def test_parse_edge_list():
    g = parse_edge_list("0-1,1-2")
    assert g.n == 3 and len(g.edges) == 2
    assert parse_edge_list("", n=4).n == 4
    with pytest.raises(InputFormatError):
        parse_edge_list("0-1-2")
    assert parse_edge_list(" 0-1 , 1-2 ").edges == g.edges
    assert parse_edge_list("-").edges == set() and parse_edge_list("-", n=2).n == 2


@pytest.mark.parametrize("text", ["-1-2", "0--1", "0 1", "0-1-", "+1-2"])
def test_parse_edge_list_rejects_malformed_edges(text):
    with pytest.raises(InputFormatError, match="bad edge"):
        parse_edge_list(text)


def _networkx_automorphisms(g):
    h = Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return sorted(tuple(m[v] for v in range(g.n)) for m in GraphMatcher(h, h).isomorphisms_iter())


def test_graph_automorphisms_match_networkx():
    rng = random.Random(0x6A4F)
    graphs = [g for _, g in _frucht_corpus()]
    for _ in range(200):
        n = rng.randint(1, 8)
        p = rng.uniform(0.2, 0.8)
        graphs.append(SimpleGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                      if rng.random() < p]))
    for g in graphs:
        auts = graph_automorphisms(g)
        assert list(auts) == _networkx_automorphisms(g), g

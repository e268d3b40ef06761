import pytest
from hypothesis import given, settings, strategies as st

from involute.errors import (
    ContextMismatchError,
    InputFormatError,
    LengthBudgetExceededError,
    NotGraphAutomorphismError,
)
from involute.graphs import graph_automorphisms
from involute.perms import compose, identity_tuple
from involute.traces import (
    TraceContext,
    bfs_trace_class,
    delta_map,
    gamma_map,
    normal_form,
    trace_equal,
)


@st.composite
def context_and_word(draw, max_letters=5, max_len=8):
    m = draw(st.integers(1, max_letters))
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    edges = [p for p in pairs if draw(st.booleans())]
    ctx = TraceContext.from_edges(m, edges)
    word = ctx.word(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=max_len)))
    return ctx, word


def test_normal_form_examples():
    ctx = TraceContext.from_edges(2, [(0, 1)])
    assert str(normal_form(ctx.parse("ba"))) == "ab"
    free = TraceContext.from_edges(3, [])
    assert str(normal_form(free.parse("cab"))) == "cab"
    ctx3 = TraceContext.from_edges(3, [(0, 1)])
    assert str(normal_form(ctx3.parse("bca"))) == "bca"


def test_one_alphabet_for_reading_and_writing():
    assert TraceContext.from_edges(3, []).alphabet == "abc"
    named = TraceContext.from_edges(3, [(0, 2)], letters="xyz")
    assert named.alphabet == "xyz"
    assert named.parse("zyx").letters == (2, 1, 0)
    assert str(named.word([2, 0, 1])) == "zxy"


def test_normal_form_needs_only_one_commuting_route():
    # letters a<b<c with edges ab and bc: "cab" and "bca" are the same trace
    ctx = TraceContext.from_edges(3, [(0, 1), (1, 2)])
    assert str(normal_form(ctx.parse("cab"))) == "bca"
    assert trace_equal(ctx.parse("cab"), ctx.parse("bca"))


def test_trace_equal_examples():
    with_edge = TraceContext.from_edges(2, [(0, 1)])
    without = TraceContext.from_edges(2, [])
    assert trace_equal(with_edge.parse("ab"), with_edge.parse("ba"))
    assert not trace_equal(without.parse("ab"), without.parse("ba"))
    w = without.parse("abba")
    assert trace_equal(w, w)
    with pytest.raises(ContextMismatchError):
        trace_equal(with_edge.parse("ab"), without.parse("ab"))


def test_word_validation_and_bounds():
    ctx = TraceContext.from_edges(2, [])
    with pytest.raises(ValueError):
        ctx.word([])
    for text, problem in (("", "at least one letter"), ("ac", "outside alphabet")):
        with pytest.raises(InputFormatError, match=problem):
            ctx.parse(text)
    with pytest.raises(LengthBudgetExceededError):
        normal_form(ctx.word([0] * 20))
    assert normal_form(ctx.word([0] * 20), bound=32).letters == (0,) * 20


def test_gamma_delta_examples():
    ctx = TraceContext.from_edges(3, [(0, 1)])
    w = ctx.parse("abc")
    assert str(delta_map(identity_tuple(3), w)) == "cba"
    assert str(gamma_map(identity_tuple(3), w)) == "abc"
    swap = [1, 0, 2]  # any sequence of images
    assert trace_equal(gamma_map(swap, ctx.parse("ab")), ctx.parse("ab"))
    with pytest.raises(NotGraphAutomorphismError):
        gamma_map((0, 2, 1), w)  # does not preserve the edge {a,b}


@settings(max_examples=150, deadline=None)
@given(context_and_word())
def test_normal_form_is_least_in_bfs_class(cw):
    ctx, word = cw
    cls = bfs_trace_class(word)
    nf = normal_form(word).letters
    assert nf == min(cls)
    assert all(normal_form(ctx.word(w)).letters == nf for w in cls)


@settings(max_examples=100, deadline=None)
@given(context_and_word(max_len=6), st.randoms(use_true_random=False))
def test_morphism_and_composition_laws(cw, rnd):
    ctx, u = cw
    auts = list(graph_automorphisms(ctx.graph))
    pi = rnd.choice(auts)
    sg = rnd.choice(auts)
    v = ctx.word([rnd.randrange(ctx.m) for _ in range(rnd.randint(1, 6))])
    uv = u.concat(v)
    assert trace_equal(gamma_map(pi, uv), gamma_map(pi, u).concat(gamma_map(pi, v)))
    assert trace_equal(delta_map(pi, uv), delta_map(pi, v).concat(delta_map(pi, u)))
    pi_sg = compose(pi, sg)
    assert gamma_map(pi, gamma_map(sg, u)).letters == gamma_map(pi_sg, u).letters
    assert delta_map(pi, delta_map(sg, u)).letters == gamma_map(pi_sg, u).letters
    assert gamma_map(pi, delta_map(sg, u)).letters == delta_map(pi_sg, u).letters
    assert delta_map(pi, gamma_map(sg, u)).letters == delta_map(pi_sg, u).letters


@settings(max_examples=100, deadline=None)
@given(context_and_word(max_len=6), st.randoms(use_true_random=False))
def test_prop_4_3_well_definedness(cw, rnd):
    ctx, u = cw
    pi = rnd.choice(list(graph_automorphisms(ctx.graph)))
    for other in sorted(bfs_trace_class(u)):
        w = ctx.word(other)
        assert trace_equal(gamma_map(pi, u), gamma_map(pi, w))
        assert trace_equal(delta_map(pi, u), delta_map(pi, w))


@settings(max_examples=100, deadline=None)
@given(context_and_word(max_len=6))
def test_delta_involution_criterion(cw):
    ctx, u = cw
    for pi in graph_automorphisms(ctx.graph):
        if compose(pi, pi) == identity_tuple(ctx.m):
            assert trace_equal(delta_map(pi, delta_map(pi, u)), u)
        else:
            x = next(x for x in range(ctx.m) if pi[pi[x]] != x)
            w = ctx.word([x])
            assert not trace_equal(delta_map(pi, delta_map(pi, w)), w)

"""The release battery, one test per check.

Each test drives the same check the CLI's ``verify`` subcommand runs and
prints its pass/fail line (visible with ``pytest -s`` or on failure).  The
stretch targets (Sym(6), T_4) carry the ``stretch`` marker and are excluded
from the default run; select them with ``-m stretch``.  Each check's detail
string is pinned, so that a refactor that changes what a check reports
fails here.
"""

import hashlib
import random

import pytest

from involute import battery
from involute.battery import run_battery


def _one(name, detail, stretch=False):
    results = run_battery(only={name}, stretch=stretch)
    assert len(results) == 1
    r = results[0]
    print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name} ({r.seconds:.2f}s): {r.detail}")
    assert r.passed, f"{r.name}: {r.detail} ({r.seconds:.2f}s, bound {r.bound:.0f}s)"
    assert r.detail == detail


def test_01_klein_four_group():
    _one("klein", "|Aut|=6 |I|=3 |C|=6 C~Sym(3)=True")


def test_02_cyclic_group_sweep():
    _one("zn_sweep", "n=2..200, failures: none")


def test_03_symmetric_groups():
    _one("symmetric_groups", "n=3:|C|=12 n=4:|C|=48 n=5:|C|=240")


def test_04_full_transformation_monoids():
    _one("full_transformations", "T2:|Aut|=2,|Aut-|=0,|C|=1 T3:|Aut|=6,|Aut-|=0,|C|=1")


def test_05_inverse_monoids():
    _one(
        "inverse_monoids",
        "I2:|Aut|=2,|C|=4,Z2xSym(2)=True I3:|Aut|=6,|C|=12,Z2xSym(3)=True I*3:|Aut|=6,|C|=12",
    )


def test_06_partition_monoids():
    _one(
        "partition_monoids",
        "P2:star proper=True,|C|=4,Z2xSym(2)=True P3:star proper=True,|C|=12,Z2xSym(3)=True",
    )


def test_07_rectangular_and_square_bands():
    _one(
        "rectangular_bands",
        "2x3:|Aut-|=0,|C|=1 2x2:|Aut|=4,|I|=2,|C|=4 3x3:|Aut|=36,|I|=6,|C|=36",
    )


def test_08_doubled_semigroups():
    _one(
        "doubled_semigroups",
        "LZ2:|Aut(D)|=4,|I(D)|=2,|C(D)|=4,2|K|=4 LZ3:|Aut(D)|=36,|I(D)|=6,|C(D)|=36,2|K|=36 T2:|Aut(D)|=4,|I(D)|=2,|C(D)|=4,2|K|=4 T3:|Aut(D)|=36,|I(D)|=6,|C(D)|=36,2|K|=36",
    )


def test_09_frucht_construction():
    _one(
        "frucht_graphs",
        "|Aut(S)|/|C(S)| per graph: P2:2/2 P3:2/2 P4:2/2 P5:2/2 C3:6/6 C4:8/8 C5:10/10 C6:12/12 K4:24/24 K5:120/120 star4:6/6 rigid7:1/1",
    )


def test_10_two_involution_factorization():
    _one("two_involution_factorization", "873 permutations factored across Sym(1)..Sym(6)")


def test_11_k_groups():
    _one(
        "k_groups",
        "|K_G|: Z1:1 Z2:2 Z3:3 Z4:4 Z5:5 Z6:6 Z7:7 Z8:8 Z9:9 Z10:10 Z11:11 Z12:12 Klein:4 Z2^3:8 D4:16 D5:50 D6:36 Q8:16 Sym3:18 Alt4:48 Sym4:288 Z2xZ6:12 Z3xZ3:9 Z2xSym3:36",
    )


def test_12_involution_split_laws():
    _one(
        "involution_split_laws",
        "split law on 11 semigroups, central/Psi law on 7: Sym3 Sym4 band2x2 band3x3 P2 P3 I2 I3 I*3 D_LZ2 D_T2",
    )


def test_13_trace_property_suite():
    _one("trace_words", "1000 randomized cases, 0 failures")


def test_14_engine_completeness():
    _one("engine_completeness", "200 semigroups of order <= 6 match the n! brute force")


@pytest.mark.stretch
def test_stretch_sym6_outer_automorphism():
    _one("sym6_stretch", "|Aut(Sym(6))|=1440 (outer automorphism included)", stretch=True)


@pytest.mark.stretch
def test_stretch_t4_laws():
    _one("t4_stretch", "T4:|Aut|=24,|Aut-|=0,|C|=1", stretch=True)


def test_the_order_cap_reaches_the_battery_lists():
    (r,) = run_battery(only={"full_transformations"}, order_cap=3)
    assert not r.passed
    assert "past the cap of 3" in r.detail


def test_the_random_table_corpus_lets_only_non_associativity_pass(monkeypatch):
    def broken(table, names=None):
        raise TypeError("a fault in validate")

    monkeypatch.setattr(battery, "validate", broken)
    with pytest.raises(TypeError, match="a fault in validate"):
        battery._random_table_semigroup(random.Random(0))


def test_the_completeness_corpus_is_pinned():
    corpus = battery._completeness_corpus(random.Random(0xCA11))
    digest = hashlib.sha256(repr([s.np_table.tolist() for s in corpus]).encode()).hexdigest()
    assert digest == "af062fa9ff8fdf24876a8e35523907b9f1e7d9660e125796c37a23cdb7fd5de0"


def test_random_tables_reach_validate_only_once_screened(monkeypatch):
    # the brute-force associativity screen, not validate, rejects the
    # draws, so validate sees only the tables it accepts: 79 on this corpus
    calls = []
    validate = battery.validate

    def counted(table, names=None):
        calls.append(table)
        return validate(table, names)

    monkeypatch.setattr(battery, "validate", counted)
    battery._completeness_corpus(random.Random(0xCA11))
    assert 0 < len(calls) <= 100

"""Self-tests for the benchmark: ``python3 -m pytest perfbench -q``."""

import itertools
import json
import os
import shutil
import sys
import time
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpus  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL = ("band_3x3", "D_12", "Z_2^3")


@pytest.fixture
def workdir(request):
    """A scratch directory inside the checkout, as the benchmark uses."""
    path = run.BENCH / ".work" / f"test-{os.getpid()}" / request.node.name
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path.parent, ignore_errors=True)


@pytest.fixture
def small_groups(monkeypatch):
    monkeypatch.setattr(corpus, "GROUPS", [i for i in corpus.GROUPS if i.key in SMALL])
    return {item.key: item.build() for item in corpus.GROUPS}


def _pass(workdir, bases, trace):
    ops = run.with_outputs(run.pass_ops("groups", workdir, 7, 0, bases), workdir,
                           "traced" if trace else "plain")
    result = run.run_worker(workdir, "traced" if trace else "plain", ops, trace,
                            time.monotonic() + 120)
    assert result is not None
    return ops, result


def _reference():
    return json.loads((run.BENCH / "reference.json").read_text())


def test_same_seed_gives_byte_identical_inputs(workdir):
    bases = {item.key: item.build() for item in corpus.GROUPS}

    def files(directory, seed):
        corpus.write_inputs(corpus.GROUPS, bases, directory, seed, 0)
        return [p.read_bytes() for p in sorted(directory.iterdir())]

    first = files(workdir / "a", 11)
    assert first == files(workdir / "b", 11)
    assert first != files(workdir / "c", 12)


def test_planted_wrong_answer_raises_fail_ratio(workdir, small_groups):
    ops, result = _pass(workdir, small_groups, False)
    reference = _reference()
    clean = run.Run("groups", 7, 1, False, reference)
    clean.count(ops, result)
    assert (clean.attempted, clean.failed) == (len(SMALL), 0)

    # one wrong count, one broken automorphism
    docs = [json.loads(Path(op["out"]).read_text()) for op in ops]
    docs[0]["counts"]["automorphisms"] += 1
    maps = docs[1]["morphisms"]["automorphisms"]
    maps[-1][0], maps[-1][1] = maps[-1][1], maps[-1][0]
    for op, doc in zip(ops, docs):
        Path(op["out"]).write_text(json.dumps(doc))
    planted = run.Run("groups", 7, 1, False, reference)
    planted.count(ops, result)
    assert planted.failed == 2
    assert planted.failed / planted.attempted > 0


def test_wrong_battery_detail_is_a_failure(workdir):
    out = workdir / "out"
    out.write_text(json.dumps([{"name": "klein", "passed": True, "seconds": 0.1,
                                "detail": "|Aut|=6 |I|=3 |C|=7 C~Sym(3)=True"}]))
    op = {"name": "klein", "out": out}
    record = {"rc": 0, "error": None}
    assert run.op_errors("verify", op, record, _reference())


def test_self_times_and_unattributed_add_up_to_op_wall(workdir, small_groups):
    ops, result = _pass(workdir, small_groups, True)
    walls = [r["seconds"] for r in result["ops"]]
    metrics, per_op = tracer.layer_metrics(
        result["spans"], walls, [r["bytes"] for r in result["ops"]],
        [op["name"] for op in ops], corpus.CHECKS)
    for i, wall in enumerate(walls):
        layers, unattributed = per_op[i]
        assert layers["cli"] > 0 and layers["morphisms"] > 0
        assert sum(layers.values()) + unattributed == pytest.approx(wall, rel=1e-9)
    total = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert total + metrics["bench.unattributed_s"] == pytest.approx(sum(walls), rel=1e-9)


def test_traced_and_untraced_outputs_are_identical(workdir, small_groups):
    plain_ops, _ = _pass(workdir, small_groups, False)
    traced_ops, _ = _pass(workdir, small_groups, True)
    for a, b in zip(plain_ops, traced_ops):
        assert Path(a["out"]).read_text() == Path(b["out"]).read_text()


def test_untraced_ops_carry_the_kernel_time_that_calibrates_them(workdir, small_groups):
    _, plain = _pass(workdir, small_groups, False)
    _, traced = _pass(workdir, small_groups, True)
    assert plain["setup_probe_s"] > 0 and traced["setup_probe_s"] > 0
    assert all(r["probe_s"] > 0 for r in plain["ops"])
    assert all(r["probe_s"] is None for r in traced["ops"])
    assert run.at_reference_speed(3.0, 2 * run.REFERENCE_KERNEL_S) == pytest.approx(1.5)


def test_tracer_wraps_every_binding_and_records_absent_names(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    home = types.ModuleType("fakepkg.permgroups")
    user = types.ModuleType("fakepkg.report")

    def closure(gens):
        return types.SimpleNamespace(order=6, generators=tuple(gens))

    home.closure = closure
    user.closure = closure
    user.analyze = lambda: user.closure([1, 2])
    user.analyze.__module__ = "fakepkg.report"
    for name, mod in (("fakepkg", pkg), ("fakepkg.permgroups", home), ("fakepkg.report", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    t = tracer.Tracer()
    t.install("fakepkg")
    t.op = 0
    user.analyze()
    home.closure([3])
    assert [(s[0], s[5], s[6]) for s in t.spans] == [
        ("report.analyze", "report", None),
        ("permgroups.closure", "report", [6, 2]),
        ("permgroups.closure", "permgroups", [6, 1]),
    ]
    assert t.spans[1][3] == 0 and t.spans[2][3] == -1
    assert "report.identify_group" in t.absent and "cli.main" in t.absent
    assert "permgroups.closure" not in t.absent


def test_generator_criterion_matches_the_full_product_check():
    for table in (corpus.symmetric(3), corpus.transformations(2),
                  corpus.rectangular_band(2, 3), corpus.doubled(corpus.cyclic(2))):
        n = len(table)
        gens = oracle.generating_set(table)
        found = 0
        for f in itertools.permutations(range(n)):
            for anti in (False, True):
                full = all(f[table[x][y]] == (table[f[y]][f[x]] if anti else table[f[x]][f[y]])
                           for x in range(n) for y in range(n))
                fast = not oracle.check_maps("automorphisms", [list(f)], table, gens, anti)
                assert fast == full
                found += full
        assert found >= 2

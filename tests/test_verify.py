import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import youngconv
from youngconv.chain import build_coset_functionals, chain_check, identity_checks
from youngconv.convolution import young_ratio
from youngconv.exponents import young_p
from youngconv.groups import GroupFunction
from youngconv.quotient import weil_decompose_check
from youngconv.verify import (
    CHAIN_BLOCK,
    TRIPLES,
    _chain_worst,
    _finite_pairs,
    _weil_worst,
    _young_models,
    _young_worst,
    proof_chain_table,
    run_battery,
)

GOLDEN = json.loads((Path(__file__).parent / "data" / "verify_golden.json").read_text())
CHAIN_ATOL = 5e-16  # chain residuals sit at float roundoff
AFFINE_RTOL = 1e-12


@pytest.mark.parametrize("corrupt", [None, "delta"])
def test_verify_layer_matches_golden_file(corrupt):
    key = "corrupt_delta" if corrupt else "clean"
    rows, ok = proof_chain_table(seeds=100, corrupt=corrupt)
    want = GOLDEN["proof_chain_table"][key]
    assert ok == want["passed"]
    assert [(r["pair"], r["p1"], r["p2"], r["step"], r["passed"]) for r in rows] == [
        (r["pair"], r["p1"], r["p2"], r["step"], r["passed"]) for r in want["rows"]
    ]
    for got, exp in zip(rows, want["rows"]):
        assert got["worst_residual"] == pytest.approx(exp["worst_residual"], rel=0, abs=CHAIN_ATOL)

    items, ok = run_battery(seeds=5, proof_seeds=5, with_estimates=False, corrupt=corrupt)
    want = GOLDEN["run_battery"][key]
    assert ok == want["passed"]
    assert [(i.name, i.passed) for i in items] == [(i["name"], i["passed"]) for i in want["items"]]
    for got, exp in zip(items, want["items"]):
        if got.name.startswith("chain-"):
            assert got.worst == pytest.approx(exp["worst_residual"], rel=0, abs=CHAIN_ATOL)
        else:
            assert got.worst == pytest.approx(exp["worst_residual"], rel=AFFINE_RTOL, abs=0)


QUOTIENT_AND_CHAIN_ITEMS = {
    "weil-finite",
    "weil-affine-translations",
    "weil-affine-dilations",
    "invariance-affine-translations",
    "invariance-affine-dilations",
    "chain-identities",
    "chain-inequalities",
}


def test_corrupt_delta_fails_every_quotient_and_chain_item():
    # the negative control reaches each item that reads delta, and only those
    items, ok = run_battery(seeds=1, proof_seeds=1, with_estimates=False, corrupt="delta")
    assert not ok
    assert {i.name for i in items if not i.passed} == QUOTIENT_AND_CHAIN_ITEMS
    items, ok = run_battery(seeds=1, proof_seeds=1, with_estimates=False)
    assert ok


def test_block_draw_equals_one_draw_per_seed():
    for _, pair in _finite_pairs():
        shape = pair.group.shape
        block_rng, seed_rng = np.random.default_rng(3), np.random.default_rng(3)
        block = 0.05 + block_rng.random((CHAIN_BLOCK + 3, 2) + shape)
        for draw in block:
            assert np.array_equal(draw[0], 0.05 + seed_rng.random(shape))
            assert np.array_equal(draw[1], 0.05 + seed_rng.random(shape))
        assert block_rng.bit_generator.state == seed_rng.bit_generator.state


@pytest.mark.parametrize("corrupt", [None, "delta"])
def test_stacked_weil_rows_equal_lone_checks(corrupt):
    rng = np.random.default_rng(5)
    for _, pair in _finite_pairs(corrupt):
        g = pair.group
        stack = rng.random((7,) + g.shape)
        stack[3] = 0.0  # a zero function has residual 0
        rows = weil_decompose_check(pair, GroupFunction(g, stack))
        assert rows.shape == (7,)
        assert rows.tolist() == [weil_decompose_check(pair, GroupFunction(g, v)) for v in stack]
        assert rows[3] == 0.0
        # a stack of one is a lone function with a leading axis
        assert weil_decompose_check(pair, GroupFunction(g, stack[:1])).tolist() == rows[:1].tolist()


def test_stacked_young_ratios_equal_lone_ratios():
    rng = np.random.default_rng(6)
    for model in _young_models():
        for p1, p2 in TRIPLES:
            ex = young_p(p1, p2)
            f1, f2 = rng.random((2, 5) + model.shape)
            ratios = young_ratio(GroupFunction(model, f1), GroupFunction(model, f2), ex)
            assert ratios.shape == (5,)
            lone = [
                young_ratio(GroupFunction(model, a), GroupFunction(model, b), ex)
                for a, b in zip(f1, f2)
            ]
            assert ratios.tolist() == lone, (model.name, p1, p2)


def test_young_ratio_refuses_a_stack_with_a_zero_row():
    model = _young_models()[0]
    f = np.ones((3,) + model.shape)
    f[1] = 0.0
    ones = GroupFunction(model, np.ones_like(f))
    with pytest.raises(ValueError, match="nonzero"):
        young_ratio(GroupFunction(model, f), ones, young_p("4/3", "4/3"))


def _lone_weil_worst(pairs, rng, count):
    """_weil_worst with one function at a time."""
    worst = 0.0
    for _, pair in pairs:
        g = pair.group
        for _ in range(count):
            worst = max(worst, weil_decompose_check(pair, GroupFunction(g, rng.random(g.shape))))
    return worst


def _lone_young_worst(rng, count):
    """_young_worst with one ratio per draw."""
    models = _young_models()
    worst = 0.0
    for _ in range(count):
        model = models[rng.integers(len(models))]
        ex = young_p(*TRIPLES[rng.integers(len(TRIPLES))])
        f1 = GroupFunction(model, rng.random(model.shape))
        f2 = GroupFunction(model, rng.random(model.shape))
        worst = max(worst, young_ratio(f1, f2, ex) - 1.0)
    return worst


@pytest.mark.parametrize("corrupt", [None, "delta"])
def test_stacked_battery_draws_equal_one_draw_per_function(corrupt):
    # same worst residual, and the generator left in the same state
    pairs = _finite_pairs(corrupt)
    stacked_rng, lone_rng = np.random.default_rng(12), np.random.default_rng(12)
    assert _weil_worst(pairs, stacked_rng, 45) == _lone_weil_worst(pairs, lone_rng, 45)
    assert stacked_rng.bit_generator.state == lone_rng.bit_generator.state
    assert _young_worst(stacked_rng, 60) == _lone_young_worst(lone_rng, 60)
    assert stacked_rng.bit_generator.state == lone_rng.bit_generator.state


def _lone_chain_worst(pairs, rng, seeds):
    """_chain_worst with one instance at a time."""
    for name, pair in pairs:
        g = pair.group
        for p1, p2 in TRIPLES:
            ex = young_p(p1, p2)
            rep, ids, steps = 0.0, {}, {}
            for _ in range(seeds):
                f1 = GroupFunction(g, 0.05 + rng.random(g.shape))
                f2 = GroupFunction(g, 0.05 + rng.random(g.shape))
                po = build_coset_functionals(pair, ex, f1, f2)
                rep = max(rep, po.rep_independence_residual)
                for c in identity_checks(po):
                    ids[c.name] = max(ids.get(c.name, 0.0), c.residual)
                for c in chain_check(po, 1.0).steps:
                    steps[c.name] = max(steps.get(c.name, 0.0), c.residual)
            yield name, p1, p2, rep, ids, steps


@pytest.mark.parametrize("corrupt", [None, "delta"])
def test_blocked_chain_equals_one_instance_at_a_time(corrupt):
    seeds = CHAIN_BLOCK + 5  # one full block and a short one
    pairs = _finite_pairs(corrupt)
    blocked = list(_chain_worst(pairs, np.random.default_rng(11), seeds))
    lone = list(_lone_chain_worst(pairs, np.random.default_rng(11), seeds))
    assert blocked == lone


def test_chain_table_memory_does_not_grow_with_seeds():
    # the instances run in blocks of a fixed size
    peaks = []
    for seeds in (100, 2000):
        tracemalloc.start()
        try:
            proof_chain_table(seeds=seeds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


def test_verify_battery_does_not_import_numpy_ma():
    # numpy.ma takes about 20 ms to import (python -X importtime), and
    # np.unique loads it on its first call
    src = str(Path(youngconv.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); "
        "from youngconv.verify import run_battery; "
        "run_battery(seeds=1, proof_seeds=1, with_estimates=False); "
        "print('numpy.ma' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"

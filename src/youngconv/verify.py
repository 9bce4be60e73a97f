"""The verification battery behind the ``verify`` command.

Bundles the executable identities and inequalities into named items with
pinned tolerances: modular identities, the convolution transform identity,
quotient (Weil) decompositions, the subgroup-bound proof chain, the
subgroup monotonicity audit of estimated lower bounds, and catalog
consistency.  Each item reports its worst observed residual; a corrupted
run (``corrupt="delta"``) must fail, which is the negative control.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import builtin_catalog, catalog_consistency_check
from .chain import TOL as CHAIN_TOL, build_coset_functionals, chain_check, identity_checks
from .constants import beckner_Y_Rn
from .convolution import transform_identity_check, young_ratio
from .estimator import EstimatorConfig, monotonicity_audit
from .exponents import young_p
from .groups import (
    GroupFunction,
    affine_prime_field,
    check_modular_identity,
    cyclic_group,
    finite_product,
    make_affine_group,
    make_plane,
    make_real_line,
    make_torus,
)
from .quotient import build_subgroup_pair, corrupt_delta, weil_decompose_check, left_invariance_check


@dataclass
class BatteryItem:
    name: str
    worst: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.worst <= self.tolerance

    def as_dict(self):
        return {
            "name": self.name,
            "worst_residual": float(self.worst),
            "tolerance": float(self.tolerance),
            "passed": bool(self.passed),
            "detail": self.detail,
        }

    def __str__(self):
        flag = "ok" if self.passed else "FAIL"
        return f"[{flag}] {self.name}: worst {self.worst:.3e} (tol {self.tolerance:.1e}) {self.detail}"


TRIPLES = (("4/3", "4/3"), ("3/2", "3/2"), ("5/4", "10/7"))


def _young_models():
    """The models of the classical-Young draws: Z/6, Z/8, Aff(F5) and
    Z/2 x Z/3, the finite models of the battery, then T16 and a line."""
    return [cyclic_group(6), cyclic_group(8), affine_prime_field(5),
            finite_product(cyclic_group(2), cyclic_group(3)), make_torus(16), make_real_line(0.25, 2.0)]


def _affine_bump(model, rng):
    cu = rng.uniform(-0.08, 0.08)
    cb = rng.uniform(-0.15, 0.15)
    su = rng.uniform(0.22, 0.3)
    sb = rng.uniform(0.45, 0.6)
    return model.gaussian(cu, cb, su, sb)


def _finite_pairs(z6, af5, corrupt=None):
    pairs = [
        ("Z/6>{0,3}", build_subgroup_pair(z6, [0, 3])),
        ("Aff(F5)>translations", build_subgroup_pair(af5, list(range(5)))),
        ("Aff(F5)>dilations", build_subgroup_pair(af5, [(a - 1) * 5 for a in range(1, 5)])),
    ]
    if corrupt == "delta":
        pairs = [(name, corrupt_delta(p)) for name, p in pairs]
    return pairs


# instances per stack of the proof chain: a fixed size, so memory does not
# grow with the number of seeds.  A block's traced peak grows by about
# 9 KB per instance on Aff(F5), the largest pair (1.6 KB on Z/6), so a
# 100-seed table runs one block per pair and triple, and tracemalloc's
# peak of a 1024-seed table is 1.48 MB (0.40 MB at a block of 32)
CHAIN_BLOCK = 128


def _weil_worst(pairs, rng, count):
    """Worst Weil residual over ``count`` random functions per pair.

    Each pair's functions run as one stack, drawn in one call, which takes
    the same values from ``rng`` as one draw per function."""
    worst = 0.0
    for _, pair in pairs:
        g = pair.group
        stack = GroupFunction(g, rng.random((count,) + g.shape))
        worst = float(np.max(weil_decompose_check(pair, stack), initial=worst))
    return worst


def _young_worst(models, rng, count):
    """Worst Young ratio less 1 over ``count`` random draws of a model of
    ``models``, a triple and a pair (f1, f2), clipped at 0.

    The draws are taken one after another, as one draw per ratio would
    take them; then the pairs of each (model, triple) run as one stack."""
    drawn = {}  # (model, triple) -> (f1 draws, f2 draws)
    for _ in range(count):
        key = int(rng.integers(len(models))), int(rng.integers(len(TRIPLES)))
        shape = models[key[0]].shape
        f1s, f2s = drawn.setdefault(key, ([], []))
        f1s.append(rng.random(shape))
        f2s.append(rng.random(shape))
    worst = 0.0
    for (model, triple), (f1s, f2s) in drawn.items():
        m, ex = models[model], young_p(*TRIPLES[triple])
        ratios = young_ratio(GroupFunction(m, f1s), GroupFunction(m, f2s), ex)
        worst = max(worst, float(np.max(ratios)) - 1.0)
    return worst


def _chain_worst(pairs, rng, seeds):
    """Worst residuals of the proof chain over ``seeds`` random instances
    per pair and triple.

    Yields (name, p1, p2, rep, ids, steps): ``rep`` is the worst
    representative-independence residual, ``ids`` and ``steps`` map each
    identity check and each chain step to its worst residual.  The
    instances run as stacks of at most CHAIN_BLOCK; one block's draw
    (seed, phi1/phi2, cell) takes the same values from ``rng`` as one
    f1, f2 draw per seed would.
    """
    for name, pair in pairs:
        g = pair.group
        for p1, p2 in TRIPLES:
            exc = young_p(p1, p2)
            rep, ids, steps = 0.0, {}, {}
            for done in range(0, seeds, CHAIN_BLOCK):
                draws = 0.05 + rng.random((min(CHAIN_BLOCK, seeds - done), 2) + g.shape)
                po = build_coset_functionals(pair, exc, draws[:, 0], draws[:, 1])
                rep = max(rep, float(np.max(po.rep_independence_residual)))
                for c in identity_checks(po):
                    ids[c.name] = max(ids.get(c.name, 0.0), c.residual)
                for c in chain_check(po, 1.0).steps:
                    steps[c.name] = max(steps.get(c.name, 0.0), c.residual)
            yield name, p1, p2, rep, ids, steps


def run_battery(
    seeds: int = 5,
    proof_seeds: int = 10,
    corrupt: str = None,
    with_estimates: bool = True,
):
    """Run the full battery, building each model once; returns (items, all_passed)."""
    rng = np.random.default_rng(20240801)
    items = []
    young = _young_models()
    *finite, _, line = young

    # 1. modular identities
    worst = 0.0
    for model in finite + [make_torus(12), line]:
        phi = GroupFunction(model, rng.random(model.shape))
        worst = max(worst, check_modular_identity(model, phi))
    items.append(BatteryItem("modular-identity-exact-kinds", worst, 1e-12))
    aff = make_affine_group(0.02, 0.6, 0.02, 3.0)
    b1 = _affine_bump(aff, rng)
    b2 = _affine_bump(aff, rng)
    items.append(
        BatteryItem(
            "modular-identity-affine",
            check_modular_identity(aff, GroupFunction(aff, b1)),
            1e-3,
            detail="h=0.02",
        )
    )

    # 2. transform identity
    worst = 0.0
    for model in finite:
        for p1, p2 in TRIPLES:
            ex = young_p(p1, p2)
            f1 = GroupFunction(model, rng.random(model.shape))
            f2 = GroupFunction(model, rng.random(model.shape))
            worst = max(worst, transform_identity_check(f1, f2, ex))
    items.append(BatteryItem("transform-identity-finite", worst, 1e-12))
    ex = young_p("4/3", "4/3")
    items.append(
        BatteryItem(
            "transform-identity-affine",
            transform_identity_check(GroupFunction(aff, b1), GroupFunction(aff, b2), ex),
            1e-3,
            detail="h=0.02",
        )
    )

    # 3. quotient decomposition
    z6, _, af5, _ = finite
    pairs = _finite_pairs(z6, af5, corrupt)
    worst = _weil_worst(pairs, rng, seeds * 20)
    items.append(BatteryItem("weil-finite", worst, 1e-12, detail=f"{seeds * 20} random fns x 3 pairs"))
    tpair = build_subgroup_pair(aff, "translations")
    dpair = build_subgroup_pair(aff, "dilations")
    if corrupt == "delta":
        tpair, dpair = corrupt_delta(tpair), corrupt_delta(dpair)
    phi_aff = GroupFunction(aff, b1)
    items.append(
        BatteryItem(
            "weil-affine-translations", weil_decompose_check(tpair, phi_aff), 1e-3, detail="h=0.02"
        )
    )
    items.append(
        BatteryItem("weil-affine-dilations", weil_decompose_check(dpair, phi_aff), 1e-3)
    )
    items.append(
        BatteryItem(
            "invariance-affine-translations",
            left_invariance_check(tpair, phi_aff, -0.137),
            1e-3,
        )
    )
    # the dilation fiber lives on the log-scale window, so its invariance
    # needs a profile that dies out before the shifted window ends
    narrow = aff.gaussian(0.0, 0.0, 0.13, 0.5)
    items.append(
        BatteryItem(
            "invariance-affine-dilations",
            left_invariance_check(dpair, GroupFunction(aff, narrow), 0.06),
            1e-3,
        )
    )

    # 4. proof chain
    worst_id, worst_step = 0.0, 0.0
    for _, _, _, rep, ids, steps in _chain_worst(pairs, rng, proof_seeds):
        worst_id = max([worst_id, rep, *ids.values()])
        worst_step = max([worst_step, *steps.values()])
    items.append(
        BatteryItem(
            "chain-identities",
            worst_id,
            CHAIN_TOL,
            detail=f"{proof_seeds} seeds x 3 pairs x 3 triples",
        )
    )
    items.append(BatteryItem("chain-inequalities", worst_step, CHAIN_TOL))

    # 5. classical bound on random draws
    items.append(BatteryItem("classical-young", _young_worst(young, rng, seeds * 10), 1e-9))

    # 6. monotonicity audit (estimates against subgroup references)
    if with_estimates:
        cfg = EstimatorConfig(restarts=3, max_iters=60, tol=1e-8)
        y1 = beckner_Y_Rn("4/3", "4/3", 1)
        entries = [
            {
                "model": make_real_line(0.1, 4.0),
                "refs": [("beckner-R", y1)],
            },
            {
                "model": make_affine_group(0.1, 1.5, 0.1, 3.0),
                "refs": [("subgroup-R", y1), ("nielsen-AffR", y1 * y1)],
            },
            {
                "model": make_plane(0.25, 3.0),
                "refs": [("subgroup-R", y1), ("beckner-R2", y1 * y1)],
            },
            {
                "model": cyclic_group(8),
                "refs": [("trivial-subgroup", 1.0)],
            },
        ]
        rows, ok = monotonicity_audit(entries, ex, cfg)
        worst = max(
            (r.lower_bound - r.reference_value - r.tolerance for r in rows if r.reference != "quality_floor"),
            default=0.0,
        )
        items.append(
            BatteryItem(
                "monotonicity-audit",
                max(worst, 0.0) if ok else max(worst, 1.0),
                0.0,
                detail="; ".join(
                    f"{r.group}: {r.lower_bound:.4f} <= {r.reference} {r.reference_value:.4f}"
                    for r in rows
                ),
            )
        )

    # 7. catalog consistency
    report = catalog_consistency_check(builtin_catalog(), ex)
    items.append(
        BatteryItem(
            "catalog-consistency",
            0.0 if report.ok else float(len(report.violations)),
            0.0,
            detail="; ".join(str(v) for v in report.violations) or "all entries consistent",
        )
    )

    return items, all(item.passed for item in items)


def proof_chain_table(seeds: int = 100, corrupt: str = None):
    """Per-step residual rows over seeds x pairs x triples (CSV/JSON form)."""
    rng = np.random.default_rng(77)
    rows = []
    pairs = _finite_pairs(cyclic_group(6), affine_prime_field(5), corrupt)
    for name, p1, p2, _, ids, steps in _chain_worst(pairs, rng, seeds):
        for label, value in list(ids.items()) + list(steps.items()):
            rows.append(
                {
                    "pair": name,
                    "p1": p1,
                    "p2": p2,
                    "step": label,
                    "worst_residual": float(value),
                    "tolerance": CHAIN_TOL,
                    "passed": bool(value <= CHAIN_TOL),
                }
            )
    return rows, all(r["passed"] for r in rows)

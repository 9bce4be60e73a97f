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
from .chain import build_coset_functionals, chain_check, identity_checks
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


def _finite_models():
    return [cyclic_group(6), cyclic_group(8), affine_prime_field(5),
            finite_product(cyclic_group(2), cyclic_group(3))]


def _affine_small():
    return make_affine_group(0.02, 0.6, 0.02, 3.0)


def _affine_bump(model, rng):
    uu = model.u_centers[:, None]
    bb = model.b_centers[None, :]
    cu = rng.uniform(-0.08, 0.08)
    cb = rng.uniform(-0.15, 0.15)
    su = rng.uniform(0.22, 0.3)
    sb = rng.uniform(0.45, 0.6)
    return np.exp(-((uu - cu) ** 2) / (2 * su * su) - ((bb - cb) ** 2) / (2 * sb * sb))


def _finite_pairs(corrupt=None):
    af5 = affine_prime_field(5)
    pairs = [
        ("Z/6>{0,3}", build_subgroup_pair(cyclic_group(6), [0, 3])),
        ("Aff(F5)>translations", build_subgroup_pair(af5, list(range(5)))),
        ("Aff(F5)>dilations", build_subgroup_pair(af5, [(a - 1) * 5 for a in range(1, 5)])),
    ]
    if corrupt == "delta":
        pairs = [(name, corrupt_delta(p)) for name, p in pairs]
    return pairs


# instances per stack of the proof chain: a fixed size, so memory does not
# grow with the number of seeds
CHAIN_BLOCK = 32


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
    estimator_cfg: EstimatorConfig = None,
):
    """Run the full battery; returns (items, all_passed)."""
    rng = np.random.default_rng(20240801)
    items = []

    # 1. modular identities
    worst = 0.0
    for model in _finite_models() + [make_torus(12), make_real_line(0.25, 2.0)]:
        phi = GroupFunction(model, rng.random(model.shape))
        worst = max(worst, check_modular_identity(model, phi))
    items.append(BatteryItem("modular-identity-exact-kinds", worst, 1e-12))
    aff = _affine_small()
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
    for model in _finite_models():
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
    pairs = _finite_pairs(corrupt)
    worst = 0.0
    for name, pair in pairs:
        g = pair.group
        for _ in range(seeds * 20):
            worst = max(
                worst, weil_decompose_check(pair, GroupFunction(g, rng.random(g.shape)))
            )
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
    narrow = np.exp(
        -(aff.u_centers[:, None] ** 2) / (2 * 0.13**2)
        - (aff.b_centers[None, :] ** 2) / (2 * 0.5**2)
    )
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
            1e-10,
            detail=f"{proof_seeds} seeds x 3 pairs x 3 triples",
        )
    )
    items.append(BatteryItem("chain-inequalities", worst_step, 1e-10))

    # 5. classical bound on random draws
    worst = 0.0
    models = _finite_models() + [make_torus(16), make_real_line(0.25, 2.0)]
    for _ in range(seeds * 10):
        model = models[rng.integers(len(models))]
        p1, p2 = TRIPLES[rng.integers(len(TRIPLES))]
        exc = young_p(p1, p2)
        f1 = GroupFunction(model, rng.random(model.shape))
        f2 = GroupFunction(model, rng.random(model.shape))
        worst = max(worst, young_ratio(f1, f2, exc) - 1.0)
    items.append(BatteryItem("classical-young", max(worst, 0.0), 1e-9))

    # 6. monotonicity audit (estimates against subgroup references)
    if with_estimates:
        cfg = estimator_cfg or EstimatorConfig(restarts=3, max_iters=60, tol=1e-8)
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
    for name, p1, p2, _, ids, steps in _chain_worst(_finite_pairs(corrupt), rng, seeds):
        for label, value in list(ids.items()) + list(steps.items()):
            rows.append(
                {
                    "pair": name,
                    "p1": p1,
                    "p2": p2,
                    "step": label,
                    "worst_residual": float(value),
                    "tolerance": 1e-10,
                    "passed": bool(value <= 1e-10),
                }
            )
    return rows, all(r["passed"] for r in rows)

"""Quotient integration and the subgroup bound, step by executable step.

For a closed subgroup H of G, a left Haar integral decomposes through the
right cosets once the subgroup's modular function is extended to a delta
function on G.  On finite pairs every identity is an exact sum, which
makes the whole inequality chain behind

    Y(p1, p2; G) <= Y(p1, p2; H)

executable: Young's inequality on H applied fiberwise, two weighted
Hoelder steps, a Minkowski step, and a final contraction.  A corrupted
delta is the negative control: the identities must break.
"""

import numpy as np

from youngconv import (
    GroupFunction,
    affine_prime_field,
    build_coset_functionals,
    build_subgroup_pair,
    chain_check,
    corrupt_delta,
    cyclic_group,
    identity_checks,
    make_affine_group,
    left_invariance_check,
    weil_decompose_check,
    young_p,
)

rng = np.random.default_rng(0)
ex = young_p("4/3", "4/3")

print("== quotient decomposition on finite pairs (exact) ==")
af5 = affine_prime_field(5)
pairs = [
    ("Z/6 over {0,3}", build_subgroup_pair(cyclic_group(6), [0, 3])),
    ("Aff(F5) over translations", build_subgroup_pair(af5, list(range(5)))),
    ("Aff(F5) over dilations", build_subgroup_pair(af5, [(a - 1) * 5 for a in range(1, 5)])),
]
for name, pair in pairs:
    g = pair.group
    worst = max(
        weil_decompose_check(pair, GroupFunction(g, rng.random(g.shape)))
        for _ in range(50)
    )
    print(f"  {name:28s} worst residual over 50 random functions: {worst:.2e}")

print("\n== and on the continuum affine grid ==")
aff = make_affine_group(0.02, 0.6, 0.02, 3.0)
phi = GroupFunction(aff, aff.gaussian(0.0, 0.0, 0.25, 0.5))
tpair = build_subgroup_pair(aff, "translations")
dpair = build_subgroup_pair(aff, "dilations")
print(f"  translations: weil {weil_decompose_check(tpair, phi):.2e}, "
      f"invariance {left_invariance_check(tpair, phi, -0.137):.2e}")
print(f"  dilations:    weil {weil_decompose_check(dpair, phi):.2e}")

print("\n== the inequality chain on a random instance ==")
pair = pairs[1][1]
f1 = GroupFunction(af5, 0.05 + rng.random(20))
f2 = GroupFunction(af5, 0.05 + rng.random(20))
po = build_coset_functionals(pair, ex, f1, f2)
for check in identity_checks(po):
    print(f"  {check}")
report = chain_check(po, 1.0)
for step in report.steps:
    print(f"  {step}")
print(f"  end-to-end norm {report.end_to_end_lhs:.6f} <= Y(H) = 1")

print("\n== negative control: corrupt delta by +10% ==")
bad = corrupt_delta(pair)
po_bad = build_coset_functionals(bad, ex, f1, f2)
for check in identity_checks(po_bad):
    if not check.passed:
        print(f"  broken as expected -> {check}")

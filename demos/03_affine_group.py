"""The ax+b group: a non-unimodular model and its twisted convolution.

The affine group {x -> a x + b, a > 0} has left Haar measure da db / a^2
and modular function Delta(a, b) = 1/a, so the inequality needs the
twisted convolution phi1 * (phi2 Delta^(1/p1')).  The model lives on a
uniform grid in (u, b) with u = log a; the convention Delta = 1/a is
validated numerically, never assumed.
"""

from youngconv import (
    EstimatorConfig,
    GroupFunction,
    beckner_Y_Rn,
    check_modular_identity,
    estimate,
    make_affine_group,
    transform_identity_check,
    young_p,
)

ex = young_p("4/3", "4/3")
aff = make_affine_group(0.05, 1.0, 0.05, 2.0)
print(f"model: {aff.name} ({aff.size} cells)")


print("\n== the modular identity int phi(g^-1) dg = int phi/Delta dg ==")
phi = GroupFunction(aff, aff.gaussian(0.0, 0.0, 0.25, 0.18))
print(f"  residual on a bump: {check_modular_identity(aff, phi):.2e}")

print("\n== the reversal identity for the twisted convolution ==")
f1 = GroupFunction(aff, aff.gaussian(0.05, 0.1, 0.25, 0.25))
f2 = GroupFunction(aff, aff.gaussian(-0.05, -0.1, 0.3, 0.3))
print(f"  max relative residual: {transform_identity_check(f1, f2, ex):.2e}")

print("\n== the grid ratio vs the exact value ==")
exact = beckner_Y_Rn("4/3", "4/3", 1) ** 2  # dim 2, max compact dim 0
report = estimate(
    make_affine_group(0.05, 1.5, 0.05, 3.0),
    ex,
    EstimatorConfig(restarts=3, max_iters=50, tol=1e-8),
)
print(f"  exact value (simply connected solvable): {exact:.8f}")
print(f"  grid ratio (a diagnostic, not a bound):  {report.lower_bound:.8f}")
print(f"  truncation diagnostic:                   {report.truncation_mass:.2e}")
print(
    "\nthe grid sums its u rows as lattice points and snaps the dilated b axis,\n"
    "so its ratios can exceed the exact constant: the value above is a grid\n"
    "diagnostic, not a certified lower bound"
)

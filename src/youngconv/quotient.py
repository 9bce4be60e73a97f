"""Coset decomposition of left Haar integrals along a closed subgroup.

For a closed subgroup H of G there is a positive extension delta of the
modular function of H (delta(hg) = Delta_H(h) delta(g), delta|_H = Delta_H)
making the fiber functional

    g  |->  int_H phi(h g) dh * delta(g)

left H-invariant, and a measure on the right coset space X = H\\G with

    int_X int_H phi(h g) dh delta(g) dX = int_G phi(g) dg.

Finite pairs realize this exactly with counting measures (delta = 1, coset
mass 1).  On the affine grid two coordinate subgroups are supported:

* translations {(1, b)}: cosets are the log-scale rows, representatives
  (a, 0), delta(a, b) = 1/a (the full modular function), coset measure
  proportional to du = da/a;
* dilations {(a, 0)}: cosets are the rays b/a = const, representatives
  (1, c), delta = 1, coset measure proportional to dc.

Coset measures carry one global calibration factor fixed on a reference
function (constant 1 on finite groups, a fixed Gaussian bump on grids), so
the shipped measure is a concrete construction, not an existence claim.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import AffineModel, FiniteGroup, GroupFunction, GroupModelError


class SubgroupError(ValueError):
    """H specification is not a subgroup or fails invariance checks."""


class FiniteSubgroupPair:
    """Right cosets of an explicit subgroup of a finite group (all exact)."""

    kind = "finite"

    def __init__(self, group: FiniteGroup, h_indices):
        self.group = group
        h = np.unique(np.asarray(h_indices, dtype=int))
        if h.size == 0:
            raise SubgroupError("empty subgroup spec")
        if h.min() < 0 or h.max() >= group.size:
            raise SubgroupError("subgroup indices outside the carrier")
        if group.identity not in set(h.tolist()):
            raise SubgroupError("subgroup must contain the identity")
        closure = set(group.table[np.ix_(h, h)].ravel().tolist())
        if not closure <= set(h.tolist()):
            raise SubgroupError("subgroup spec is not closed under the product")
        if not set(group.inv[h].tolist()) <= set(h.tolist()):
            raise SubgroupError("subgroup spec is missing inverses")
        self.h_indices = h
        # right cosets Hg, represented by the smallest carrier index
        coset_of = np.full(group.size, -1)
        reps = []
        for g in range(group.size):
            if coset_of[g] >= 0:
                continue
            members = group.table[h, g]
            coset_of[members] = len(reps)
            reps.append(int(members.min()))
        self.coset_of = coset_of
        self.reps = np.array(reps, dtype=int)
        self.delta = np.ones(group.size)
        self.coset_measure = np.ones(len(reps))  # counting calibration

    @property
    def n_cosets(self):
        return self.reps.size

    def fiber_sum(self, values, g_index):
        """int_H phi(h g) dh at a carrier point (counting measure on H)."""
        return float(values[self.group.table[self.h_indices, g_index]].sum())

    def weil_residual(self, phi: GroupFunction) -> float:
        vals = phi.values
        lhs = 0.0
        for x, rep in enumerate(self.reps):
            lhs += (
                self.coset_measure[x] * self.fiber_sum(vals, rep) * self.delta[rep]
            )
        rhs = float(vals.sum())
        denom = float(np.abs(vals).sum())
        return abs(lhs - rhs) / denom if denom > 0 else 0.0

    def invariance_residual(self, phi: GroupFunction, h_element: int) -> float:
        """Residual of the left H-invariance of fiber * delta at h_element."""
        if int(h_element) not in set(self.h_indices.tolist()):
            raise SubgroupError(f"{h_element} is not in the subgroup")
        vals = phi.values
        worst, scale = 0.0, 0.0
        for rep in self.reps:
            a_rep = self.fiber_sum(vals, rep) * self.delta[rep]
            moved = self.group.op(int(h_element), int(rep))
            a_mov = self.fiber_sum(vals, moved) * self.delta[moved]
            worst = max(worst, abs(a_rep - a_mov))
            scale = max(scale, abs(a_rep))
        return worst / scale if scale > 0 else worst


class _AffinePair:
    """delta lookup shared by the coordinate subgroups of the affine grid."""

    def _delta_at(self, u, b):
        """delta at the cell holding (u, b); 1 outside the grid."""
        m = self.group
        row, col = int(m.u_index(u)), int(m.b_index(b))
        if row < 0 or col < 0:
            return 1.0
        return float(self.delta[row, col])


class AffineTranslationPair(_AffinePair):
    """H = translations {(1, b)} inside the affine grid; cosets = rows."""

    kind = "affine_translations"

    def __init__(self, model: AffineModel):
        self.group = model
        self.delta = model.delta.copy()  # delta = Delta here
        ref = self._reference_bump()
        raw = np.full(model.n_u, model.h_u)
        lhs = sum(
            raw[i]
            * self._fiber_at(ref, model.u_centers[i], 0.0)
            * self._delta_at(model.u_centers[i], 0.0)
            for i in range(model.n_u)
        )
        rhs = float(np.sum(model.weight * ref))
        self.coset_measure = raw * (rhs / lhs)

    def _reference_bump(self):
        m = self.group
        uu = m.u_centers[:, None]
        bb = m.b_centers[None, :]
        su = 0.4 * m.u_half_width
        sb = 0.4 * m.b_half_width
        return np.exp(-(uu**2) / (2 * su * su) - (bb**2) / (2 * sb * sb))

    def _fiber_at(self, values, u, b):
        """int_H phi(h g) dh at g = (u, b): h g = (u, b + beta).

        The H grid uses half-lattice offsets so that fibers through the
        representatives (b = 0) hit cell centers, never cell edges.
        """
        m = self.group
        row = int(m.u_index(u))
        if row < 0:
            return 0.0
        beta = (np.arange(-m.n_b, m.n_b) + 0.5) * m.h_b
        cols = m.b_index(b + beta)
        ok = cols >= 0
        return float(m.h_b * values[row, cols[ok]].sum())

    def weil_residual(self, phi: GroupFunction) -> float:
        m = self.group
        vals = phi.values
        lhs = sum(
            self.coset_measure[i]
            * self._fiber_at(vals, m.u_centers[i], 0.0)
            * self._delta_at(m.u_centers[i], 0.0)
            for i in range(m.n_u)
        )
        rhs = float(np.sum(m.weight * vals))
        denom = float(np.sum(m.weight * np.abs(vals)))
        return abs(lhs - rhs) / denom if denom > 0 else 0.0

    def invariance_residual(self, phi: GroupFunction, h_element) -> float:
        """h_element is the translation amount beta (any real)."""
        m = self.group
        beta = float(h_element)
        vals = phi.values
        worst, scale = 0.0, 0.0
        for i in range(m.n_u):
            u = m.u_centers[i]
            a_rep = self._fiber_at(vals, u, 0.0) * self._delta_at(u, 0.0)
            a_mov = self._fiber_at(vals, u, beta) * self._delta_at(u, beta)
            worst = max(worst, abs(a_rep - a_mov))
            scale = max(scale, abs(a_rep))
        return worst / scale if scale > 0 else worst


class AffineDilationPair(_AffinePair):
    """H = dilations {(a, 0)} inside the affine grid; cosets = rays b/a."""

    kind = "affine_dilations"

    def __init__(self, model: AffineModel, h_c=None):
        self.group = model
        self.delta = np.ones_like(model.delta)
        self.h_c = float(h_c) if h_c is not None else model.h_b
        reach = model.b_half_width * math.exp(model.u_half_width)
        kc = int(math.ceil(reach / self.h_c))
        self.c_centers = (np.arange(2 * kc) - kc + 0.5) * self.h_c
        ref = self._reference_bump()
        raw = np.full(self.c_centers.size, self.h_c)
        lhs = sum(
            raw[x] * self._fiber_at(ref, 0.0, c) for x, c in enumerate(self.c_centers)
        )
        rhs = float(np.sum(model.weight * ref))
        if lhs == 0.0:
            raise SubgroupError("reference bump misses every dilation fiber")
        self.coset_measure = raw * (rhs / lhs)

    def _reference_bump(self):
        m = self.group
        uu = m.u_centers[:, None]
        bb = m.b_centers[None, :]
        su = 0.4 * m.u_half_width
        sb = 0.25 * m.b_half_width
        return np.exp(-(uu**2) / (2 * su * su) - (bb**2) / (2 * sb * sb))

    def _fiber_at(self, values, u, b):
        """int_H phi(h g) dh at g = (u, b): h g = (u_k + u, e^{u_k} b)."""
        m = self.group
        rows = m.u_index(m.u_centers + u)
        cols = m.b_index(np.exp(m.u_centers) * b)
        ok = (rows >= 0) & (cols >= 0)
        if not np.any(ok):
            return 0.0
        picked = values[rows[ok], cols[ok]]
        return float(m.h_u * picked.sum())

    def weil_residual(self, phi: GroupFunction) -> float:
        m = self.group
        vals = phi.values
        lhs = sum(
            self.coset_measure[x] * self._fiber_at(vals, 0.0, c) * self._delta_at(0.0, c)
            for x, c in enumerate(self.c_centers)
        )
        rhs = float(np.sum(m.weight * vals))
        denom = float(np.sum(m.weight * np.abs(vals)))
        return abs(lhs - rhs) / denom if denom > 0 else 0.0

    def invariance_residual(self, phi: GroupFunction, h_element) -> float:
        """h_element is the dilation amount in log scale (any real)."""
        m = self.group
        du = float(h_element)
        vals = phi.values
        worst, scale = 0.0, 0.0
        for c in self.c_centers:
            a_rep = self._fiber_at(vals, 0.0, c) * self._delta_at(0.0, c)
            a_mov = self._fiber_at(vals, du, math.exp(du) * c) * self._delta_at(
                du, math.exp(du) * c
            )
            worst = max(worst, abs(a_rep - a_mov))
            scale = max(scale, abs(a_rep))
        return worst / scale if scale > 0 else worst


def build_subgroup_pair(group, h_spec, **kwargs):
    """Construct the coset data for a subgroup of ``group``.

    ``h_spec`` is a list of carrier indices for finite groups, or one of
    the declared coordinate subgroups "translations" / "dilations" on the
    affine grid.
    """
    if isinstance(group, FiniteGroup):
        return FiniteSubgroupPair(group, h_spec)
    if isinstance(group, AffineModel):
        if h_spec == "translations":
            return AffineTranslationPair(group)
        if h_spec == "dilations":
            return AffineDilationPair(group, **kwargs)
        raise SubgroupError(
            f"affine subgroups are 'translations' or 'dilations', got {h_spec!r}"
        )
    raise GroupModelError(f"no subgroup machinery for kind {group.kind}")


def weil_decompose_check(pair, phi: GroupFunction) -> float:
    """Relative residual of the quotient integration formula for phi."""
    return pair.weil_residual(phi)


def left_invariance_check(pair, phi: GroupFunction, h_element) -> float:
    """Max relative residual of left H-invariance of the fiber functional."""
    return pair.invariance_residual(phi, h_element)


def corrupt_delta(pair, factor=1.1):
    """Deterministically corrupted copy of a pair (negative-control tests).

    The factor multiplies delta on half the carrier, chosen so that the
    corruption is not constant on cosets and must break the invariances.
    """
    import copy

    bad = copy.copy(pair)
    bad.delta = pair.delta.copy()
    if isinstance(pair, FiniteSubgroupPair):
        bad.delta[::2] *= factor
    else:
        half = pair.group.n_b // 2
        bad.delta[:, half:] *= factor
    return bad

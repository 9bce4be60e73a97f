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

Every pair gathers the fibers over all cosets at once: one index array
per evaluation covers every representative (or every moved
representative), and the calibration, the Weil residual and the
invariance residual are sums over that array.  Each fiber and each sum
over the cosets is added in the order of the per-coset formula, so every
residual keeps the bits it has when the cosets are taken one at a time.
"""

from __future__ import annotations

import math

import numpy as np

from .groups import AffineModel, FiniteGroup, GroupFunction, GroupModelError


class SubgroupError(ValueError):
    """H specification is not a subgroup or fails invariance checks."""


def _in_coset_order(terms):
    """Sum of per-coset terms added one float at a time, in coset order.

    numpy's pairwise sum would round differently, and on a Weil residual
    of 1e-5 one ulp of the integral is already 1e-11 of the residual."""
    return sum(terms.tolist())


def _masked_row_sums(values, ok):
    """Sum of each row's entries where ``ok``, in row order.

    Every row is summed as its own 1-d array of the kept entries: rows
    with the same count are summed together along the last axis, which
    numpy reduces row by row in the same (pairwise) order as a lone 1-d
    sum, so each result has the bits of the per-row gather.
    """
    counts = ok.sum(axis=-1)
    packed = np.take_along_axis(values, np.argsort(~ok, axis=-1, kind="stable"), axis=-1)
    out = np.zeros(counts.shape)
    for n in np.unique(counts[counts > 0]):
        rows = counts == n
        out[rows] = packed[rows, :n].sum(axis=-1)
    return out


class _CosetPair:
    """Weil and invariance residuals from every coset's fiber at once.

    A pair supplies ``_fibers(values, h_element)``: the fiber integral
    int_H phi(h g) dh and delta(g) at every coset representative g, or at
    h_element * g, as two arrays over the cosets.
    """

    def weil_residual(self, phi: GroupFunction) -> float:
        vals = phi.values
        fib, dl = self._fibers(vals)
        lhs = _in_coset_order(self.coset_measure * fib * dl)
        rhs = float(np.sum(self.group.weight * vals))
        denom = float(np.sum(self.group.weight * np.abs(vals)))
        return abs(lhs - rhs) / denom if denom > 0 else 0.0

    def invariance_residual(self, phi: GroupFunction, h_element) -> float:
        """Residual of the left H-invariance of fiber * delta at h_element."""
        vals = phi.values
        fib, dl = self._fibers(vals)
        a_rep = fib * dl
        fib, dl = self._fibers(vals, h_element)
        worst = float(np.abs(a_rep - fib * dl).max(initial=0.0))
        scale = float(np.abs(a_rep).max(initial=0.0))
        return worst / scale if scale > 0 else worst


class FiniteSubgroupPair(_CosetPair):
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

    def _fibers(self, values, h_element=None):
        """Fiber sums (counting measure on H) and delta at the
        representatives, or at h_element times them."""
        points = self.reps
        if h_element is not None:
            if int(h_element) not in set(self.h_indices.tolist()):
                raise SubgroupError(f"{h_element} is not in the subgroup")
            points = self.group.table[int(h_element), points]
        cells = self.group.table[self.h_indices[None, :], points[:, None]]
        return values[cells].sum(axis=-1), self.delta[points]


class _AffinePair(_CosetPair):
    """Calibration and delta lookup shared by the coordinate subgroups of
    the affine grid."""

    def _calibrate(self, raw):
        """Scale the raw coset measure so the Weil formula holds on the
        reference bump."""
        m = self.group
        ref = self._reference_bump()
        fib, dl = self._fibers(ref)
        lhs = _in_coset_order(raw * fib * dl)
        if lhs == 0.0:
            raise SubgroupError("reference bump misses every fiber")
        self.coset_measure = raw * (float(np.sum(m.weight * ref)) / lhs)

    def _reference_bump(self):
        m = self.group
        uu = m.u_centers[:, None]
        bb = m.b_centers[None, :]
        su = 0.4 * m.u_half_width
        sb = self._bump_b * m.b_half_width
        return np.exp(-(uu**2) / (2 * su * su) - (bb**2) / (2 * sb * sb))

    def _delta_at(self, rows, cols):
        """delta at the cells (rows, cols) of the grid; 1 outside it."""
        inside = (rows >= 0) & (cols >= 0)
        return np.where(inside, self.delta[rows, cols], 1.0)


class AffineTranslationPair(_AffinePair):
    """H = translations {(1, b)} inside the affine grid; cosets = rows."""

    kind = "affine_translations"
    _bump_b = 0.4

    def __init__(self, model: AffineModel):
        self.group = model
        self.delta = model.delta.copy()  # delta = Delta here
        self._calibrate(np.full(model.n_u, model.h_u))

    def _fibers(self, values, h_element=None):
        """int_H phi(h g) dh at g = (u, b) for every row u, with b = 0 or
        the translation amount h_element: h g = (u, b + beta).

        The H grid uses half-lattice offsets so that fibers through the
        representatives (b = 0) hit cell centers, never cell edges.
        """
        m = self.group
        b = 0.0 if h_element is None else float(h_element)
        rows = m.u_index(m.u_centers)
        beta = (np.arange(-m.n_b, m.n_b) + 0.5) * m.h_b
        cols = m.b_index(b + beta)
        picked = values[rows[:, None], cols[None, :]]
        ok = (rows >= 0)[:, None] & (cols >= 0)[None, :]
        return m.h_b * _masked_row_sums(picked, ok), self._delta_at(rows, m.b_index(b))


class AffineDilationPair(_AffinePair):
    """H = dilations {(a, 0)} inside the affine grid; cosets = rays b/a."""

    kind = "affine_dilations"
    _bump_b = 0.25

    def __init__(self, model: AffineModel, h_c=None):
        self.group = model
        self.delta = np.ones_like(model.delta)
        self.h_c = float(h_c) if h_c is not None else model.h_b
        reach = model.b_half_width * math.exp(model.u_half_width)
        kc = int(math.ceil(reach / self.h_c))
        self.c_centers = (np.arange(2 * kc) - kc + 0.5) * self.h_c
        self._calibrate(np.full(self.c_centers.size, self.h_c))

    def _fibers(self, values, h_element=None):
        """int_H phi(h g) dh at g = (u, b) for every ray c, with
        (u, b) = (0, c) or, for the dilation amount du = h_element in log
        scale, (du, e^du c): h g = (u_k + u, e^{u_k} b)."""
        m = self.group
        u = 0.0 if h_element is None else float(h_element)
        b = self.c_centers if h_element is None else math.exp(u) * self.c_centers
        rows = m.u_index(m.u_centers + u)
        cols = m.b_index(np.exp(m.u_centers)[None, :] * b[:, None])
        picked = values[rows[None, :], cols]
        ok = (rows >= 0)[None, :] & (cols >= 0)
        return m.h_u * _masked_row_sums(picked, ok), self._delta_at(m.u_index(u), m.b_index(b))


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

    The factor multiplies delta on part of the carrier, chosen so that the
    corruption is not constant on cosets and must break the invariances:
    every other element of a finite group, and on the affine grid the cells
    on or above the diagonal b = u.  That half-plane cuts each u row (the
    translation cosets) and each ray b = c e^u (the dilation cosets), so
    delta changes along both; a quadrant such as u >= 0, b >= 0 holds the
    row u = 0 and its dilates at once and leaves the dilation invariance
    intact.
    """
    import copy

    bad = copy.copy(pair)
    bad.delta = pair.delta.copy()
    if isinstance(pair, FiniteSubgroupPair):
        bad.delta[::2] *= factor
    else:
        m = pair.group
        bad.delta[m.b_centers[None, :] >= m.u_centers[:, None]] *= factor
    return bad

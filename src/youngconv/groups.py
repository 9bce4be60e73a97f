"""Discretized models of locally compact groups.

Every model carries an indexed set of cells, a positive left Haar mass per
cell, and the modular function evaluated at cell centers.  Finite groups
are exact (counting measure, Delta = 1).  Continuum groups use
step-function semantics: a function is constant on each cell, so group
translations act by coordinate maps plus cell lookup, and the only
approximation parameters are the cell width and the window.

Kinds and conventions, one class each; each class is also its own
factory under a ``make_*`` name, listed after the last class.  The real
line and the plane are the 1- and 2-d step grids of one base class:

* ``finite``        group table, counting Haar, Delta = 1.
* ``real_line_steps`` cells of width h on [-L, L), Haar mass h.
* ``integer_line``  Z cut to [-L, L], counting Haar (discrete group window).
* ``torus_grid``    R/Z with n cells, Haar mass 1/n.
* ``product``       R^2 as a tensor grid of two real lines, Haar mass h^2.
* ``affine_grid``   ax+b group, uniform grid in (u, b) with u = log a.
  Product (a1,b1)(a2,b2) = (a1 a2, a1 b2 + b1), left Haar da db / a^2
  (cell mass h_b * exp(-u) * 2 sinh(h_u / 2), exact per cell), and
  Delta(a, b) = 1/a.  The convention is validated, not assumed, by
  check_modular_identity.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np


class GroupModelError(ValueError):
    """Invalid group table or degenerate grid parameters."""


# the least Haar mass of a cell: the square root of the least normal float
_MIN_CELL_MASS = math.sqrt(sys.float_info.min)


class GroupModel:
    """Base class; concrete kinds supply carrier geometry.

    The default inversion reverses every axis, as on the symmetric abelian
    grids; the default random start and bump carry no envelope, as on
    finite groups, the integer line and the torus.  Other kinds override.
    """

    kind = "abstract"

    def __init__(self, name, weight, delta):
        self.name = name
        self.weight = np.asarray(weight, dtype=float)
        self.delta = np.asarray(delta, dtype=float)
        # an overflowed cell area or modular function is an infinite entry,
        # which would make every norm on the model non-finite
        if not np.all(np.isfinite(self.weight) & (self.weight > 0)):
            raise GroupModelError(f"{name}: Haar weights must be finite and positive")
        if not np.all(np.isfinite(self.delta) & (self.delta > 0)):
            raise GroupModelError(f"{name}: modular function must be finite and positive")
        # a function of unit norm reaches about 1/mass on a cell, and a
        # convolution multiplies two such values, so 1/mass^2 must be finite
        if not np.all(self.weight >= _MIN_CELL_MASS):
            raise GroupModelError(
                f"{name}: a cell's Haar mass {self.weight.min():.3g} is below "
                f"{_MIN_CELL_MASS:.3g}; use wider cells"
            )

    @property
    def shape(self):
        return self.weight.shape

    @property
    def size(self) -> int:
        return int(self.weight.size)

    @property
    def total_mass(self) -> float:
        return float(self.weight.sum())

    def invert(self, values):
        """phi(g^-1) on the carrier; inversion reverses every axis."""
        return np.flip(values)

    def random_start(self, rng):
        """Nonnegative random start for the estimator."""
        return 0.25 + rng.random(self.shape)

    def default_bump(self):
        """Positive bump for the boundary witness."""
        idx = np.arange(self.size, dtype=float).reshape(self.shape)
        return 1.0 + 0.5 * np.cos(2.0 * np.pi * idx / self.size)

    def inverted_default_bump(self):
        """The default bump at g^-1, as the boundary witness reads it."""
        return self.invert(self.default_bump())

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} ({self.size} cells)>"


class GroupFunction:
    """Values attached to a model's carrier, one per cell.

    Leading axes in front of the carrier's make a stack of functions on
    one model, each row an independent function.  ``lp_norm``,
    ``twisted_convolve``, ``young_ratio``, ``build_coset_functionals`` and
    ``weil_decompose_check`` on a finite pair take a stack and give each
    row the bits it gets alone; the other checks take one function.
    """

    def __init__(self, model: GroupModel, values):
        values = np.asarray(values)
        if values.dtype.kind not in "fc":
            values = values.astype(float)
        if values.shape[values.ndim - len(model.shape) :] != model.shape:
            raise GroupModelError(
                f"values shape {values.shape} does not end in carrier {model.shape}"
            )
        if not np.all(np.isfinite(values)):
            raise GroupModelError("function values must be finite")
        self.model = model
        self.values = values

    def lone_values(self):
        """The values of one function; a stack is refused."""
        if self.values.shape != self.model.shape:
            raise GroupModelError(
                f"this check takes one function, not a stack of shape {self.values.shape}"
            )
        return self.values

    def __repr__(self):
        return f"<GroupFunction on {self.model.name}>"


def require_model(model: GroupModel, *functions: GroupFunction):
    """Refuse functions that do not live on ``model``: a check reads their
    values against its weights, modular function and table, which a
    function of the same shape on another model would not fit."""
    for phi in functions:
        if phi.model is not model:
            raise GroupModelError(f"a function on {phi.model!r} does not live on {model!r}")


# ---------------------------------------------------------------------------
# finite groups


class FiniteGroup(GroupModel):
    """A group given by its multiplication table.  ``from_law`` marks a
    table computed from a group law, associative by construction, whose
    O(n^3) associativity check is skipped; a table given as data keeps it."""

    kind = "finite"

    def __init__(self, table, name="finite", from_law=False):
        table = np.asarray(table, dtype=int)
        self.identity = _validate_group_table(table, name, from_law)
        self.table = table
        self.inv = _find_inverses(table, self.identity)
        super().__init__(name, np.ones(len(table)), np.ones(len(table)))

    def op(self, i: int, j: int) -> int:
        return int(self.table[i, j])

    def inv_index(self, i: int) -> int:
        return int(self.inv[i])

    def invert(self, values):
        return values[self.inv]


def _validate_group_table(table, name, from_law=False):
    """Check the group table; returns the index of its identity."""
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise GroupModelError(f"{name}: table must be square")
    n = table.shape[0]
    if n == 0:
        raise GroupModelError(f"{name}: empty table")
    if table.min() < 0 or table.max() >= n:
        raise GroupModelError(f"{name}: table entries outside 0..{n - 1}")
    identity = _find_identity(table)
    if from_law:
        return identity
    # associativity (ij)k == i(jk) for all triples, gathered over blocks of
    # rows i of at most 2^18 elements (or one row), so memory stays O(n^2);
    # a table of n <= 64 takes one block
    rows = max(1, 2**18 // (n * n))
    for start in range(0, n, rows):
        block = table[start:start + rows]
        if not np.array_equal(table[block, :], block[:, table]):
            raise GroupModelError(f"{name}: table is not associative")
    return identity


def _find_identity(table):
    n = table.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            return e
    raise GroupModelError("table has no identity element")


def _find_inverses(table, e):
    n = table.shape[0]
    inv = np.full(n, -1)
    rows, cols = np.nonzero(table == e)
    for i, j in zip(rows, cols):
        inv[i] = j
    if np.any(inv < 0) or np.any(table[np.arange(n), inv] != e):
        raise GroupModelError("table has elements without inverses")
    return inv


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupModelError(f"cyclic group order must be >= 1, got {n}")
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, name=f"Z/{n}", from_law=True)


def finite_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with index (i, j) -> i * |b| + j."""
    na, nb = a.size, b.size
    ia, ja = np.divmod(np.arange(na * nb), nb)
    ta = a.table[np.ix_(ia, ia)]
    tb = b.table[np.ix_(ja, ja)]
    return FiniteGroup(ta * nb + tb, name=f"{a.name}x{b.name}", from_law=True)


def affine_prime_field(q: int) -> FiniteGroup:
    """The ax+b group over F_q (q prime): order q(q-1), non-abelian for q > 2.

    Element (a, b) with a in 1..q-1, b in 0..q-1 gets index (a-1)*q + b.
    """
    if q < 2 or any(q % d == 0 for d in range(2, int(q**0.5) + 1)):
        raise GroupModelError(f"field size must be prime, got {q}")
    n = q * (q - 1)
    idx = np.arange(n)
    a, b = idx // q + 1, idx % q
    a1, b1 = a[:, None], b[:, None]
    a2, b2 = a[None, :], b[None, :]
    prod_a = (a1 * a2) % q
    prod_b = (a1 * b2 + b1) % q
    table = (prod_a - 1) * q + prod_b
    return FiniteGroup(table, name=f"Aff(F{q})", from_law=True)


def load_group_table(path) -> FiniteGroup:
    """Read a finite group from a JSON file {"name": ..., "table": [[...]]};
    the name, if given, is a string."""
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if not isinstance(obj, dict):
        raise GroupModelError('a group file holds one JSON object {"name": ..., "table": [[...]]}')
    extra = set(obj) - {"name", "table"}
    if extra:
        raise GroupModelError(f"unknown group file fields: {sorted(extra)}")
    if "table" not in obj:
        raise GroupModelError("group file missing 'table'")
    table = obj["table"]
    # JSON integers only: int casting would read 0.7, true and "0" as entries
    if not isinstance(table, list) or not all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in table
    ):
        raise GroupModelError("group table entries must be JSON integers")
    name = obj.get("name", "file")
    if not isinstance(name, str):
        raise GroupModelError("group file 'name' must be a JSON string")
    return FiniteGroup(table, name=name)


# ---------------------------------------------------------------------------
# abelian continuum grids


def _cell_count(half_width, h, name):
    if not 0 < h < math.inf:
        raise GroupModelError(f"{name}: cell width must be positive and finite, got {h}")
    if not 0 < half_width < math.inf:
        raise GroupModelError(f"{name}: window must be positive and finite, got {half_width}")
    k = half_width / h
    if abs(k - round(k)) > 1e-9:
        raise GroupModelError(
            f"{name}: window {half_width} must be a multiple of the cell width {h}"
        )
    return int(round(k))


class _StepGrid(GroupModel):
    """(R^dim, +) as step functions on the tensor grid of ``dim`` copies
    of the cells of width h over [-L, L); each subclass names its kind,
    ``dim``, the ``prefix`` of its name and the ``label`` of its errors."""

    def __init__(self, h, half_width):
        n = 2 * _cell_count(half_width, h, self.label)
        self.h = float(h)
        self.half_width = float(half_width)
        self.centers = -self.half_width + (np.arange(n) + 0.5) * self.h
        shape = (n,) * self.dim
        weight = np.full(shape, math.prod((self.h,) * self.dim))
        super().__init__(f"{self.prefix}[h={h},L={half_width}]", weight, np.ones(shape))

    def _envelope(self, c, s):
        """exp(-|x - c|^2 / (2 s^2)) at the cell centers; c has dim entries."""
        r2 = sum(d**2 for d in np.ix_(*(self.centers - ci for ci in c)))
        return np.exp(-r2 / (2 * s * s))

    def random_start(self, rng):
        """Noise under a random bump envelope, so mass begins away from the
        window edge."""
        noise = super().random_start(rng)
        c = rng.uniform(-0.2, 0.2, size=self.dim) * self.half_width
        s = rng.uniform(0.2, 0.6) * self.half_width
        return noise * self._envelope(c, s)

    def default_bump(self):
        return self._envelope(np.zeros(self.dim), 0.3 * self.half_width)


class RealLineModel(_StepGrid):
    """(R, +) as step functions on cells of width h over [-L, L)."""

    kind, dim, prefix, label = "real_line_steps", 1, "R", "real line"


class IntegerLineModel(GroupModel):
    """Z cut to [-L, L] with counting Haar; a discrete-group window."""

    kind = "integer_line"

    def __init__(self, half_width: int):
        if half_width < 1:
            raise GroupModelError("integer window must be >= 1")
        self.half_width = int(half_width)
        n = 2 * self.half_width + 1
        self.centers = np.arange(-self.half_width, self.half_width + 1, dtype=float)
        super().__init__(f"Z[L={half_width}]", np.ones(n), np.ones(n))


class TorusModel(GroupModel):
    """R/Z with n cells of width 1/n (compact, total mass 1).

    -(j + 1/2)/n mod 1 is the center n-1-j, so inversion is reversal.
    """

    kind = "torus_grid"

    def __init__(self, n: int):
        if n < 2:
            raise GroupModelError(f"torus needs at least 2 cells, got {n}")
        self.n = int(n)
        self.h = 1.0 / n
        self.centers = (np.arange(n) + 0.5) * self.h
        super().__init__(f"T[n={n}]", np.full(n, self.h), np.ones(n))


class PlaneModel(_StepGrid):
    """(R^2, +) as a tensor grid of two real lines (kind 'product')."""

    kind, dim, prefix, label = "product", 2, "R2", "plane"


# ---------------------------------------------------------------------------
# the affine group of the real line


class AffineModel(GroupModel):
    """Aff+(R) = {x -> a x + b, a > 0} on a uniform (u, b) grid, u = log a.

    The u grid is the lattice -U, -U+h_u, ..., U including both endpoints,
    so sums and differences of grid values stay exactly on the lattice of
    step h_u (products of carrier points never need u snapping; only the b
    axis snaps, since the group action dilates it).  Each point carries the
    mass of the cell [u - h_u/2, u + h_u/2] x [b - h_b/2, b + h_b/2].
    ``out_b_centers`` is the enlarged b window that covers every product of
    two carrier points, where the certified convolution is evaluated; it is
    built here, so a window too wide to hold fails at construction.
    """

    kind = "affine_grid"

    def __init__(self, h_u, u_half_width, h_b, b_half_width):
        ku = _cell_count(u_half_width, h_u, "affine u-grid")
        kb = _cell_count(b_half_width, h_b, "affine b-grid")
        self.h_u = float(h_u)
        self.h_b = float(h_b)
        self.u_half_width = float(u_half_width)
        self.b_half_width = float(b_half_width)
        self.n_u, self.n_b = 2 * ku + 1, 2 * kb
        self.u_centers = (np.arange(self.n_u) - ku) * self.h_u
        self.b_centers = -self.b_half_width + (np.arange(self.n_b) + 0.5) * self.h_b
        # exact left Haar mass of the cell [u +- h_u/2] x [b +- h_b/2]
        u_mass = np.exp(-self.u_centers) * 2.0 * math.sinh(self.h_u / 2.0)
        weight = u_mass[:, None] * np.full(self.n_b, self.h_b)[None, :]
        delta = np.exp(-self.u_centers)[:, None] * np.ones(self.n_b)[None, :]
        super().__init__(
            f"Aff[h_u={h_u},U={u_half_width},h_b={h_b},B={b_half_width}]",
            weight,
            delta,
        )
        reach = math.exp(self.u_half_width) * self.b_half_width + self.b_half_width
        kb_out = int(math.ceil(reach / self.h_b))
        self.out_b_centers = (np.arange(2 * kb_out) - kb_out + 0.5) * self.h_b

    def b_index(self, b_values):
        """Cell lookup along b (step semantics); -1 marks window exit."""
        idx = np.floor(
            (np.asarray(b_values) + self.b_half_width) / self.h_b
        ).astype(int)
        bad = (idx < 0) | (idx >= self.n_b)
        return np.where(bad, -1, idx)

    def u_index(self, u_values):
        """Nearest-lattice lookup along u; -1 marks window exit."""
        idx = np.floor(
            (np.asarray(u_values) + self.u_half_width) / self.h_u + 0.5
        ).astype(int)
        bad = (idx < 0) | (idx >= self.n_u)
        return np.where(bad, -1, idx)

    def op_coords(self, g1, g2):
        """(u1,b1)(u2,b2) = (u1+u2, exp(u1) b2 + b1) in (u, b) coordinates."""
        u1, b1 = g1
        u2, b2 = g2
        return (u1 + u2, math.exp(u1) * b2 + b1)

    def inv_coords(self, g):
        u, b = g
        return (-u, -math.exp(-u) * b)

    def delta_at(self, g):
        return math.exp(-g[0])

    def invert(self, values):
        """phi(g^-1) by cell lookup; 0 where the inverse leaves the window."""
        uu, bb = np.meshgrid(self.u_centers, self.b_centers, indexing="ij")
        iu = self.u_index(-uu)
        ib = self.b_index(-np.exp(-uu) * bb)
        inside = (iu >= 0) & (ib >= 0)
        return np.where(inside, values[np.clip(iu, 0, None), np.clip(ib, 0, None)], 0.0)

    def gaussian(self, cu, cb, su, sb, b=None):
        """The Gaussian centered at (cu, cb) with widths (su, sb), at the
        carrier's rows and at b-coordinates ``b`` (default: the cell
        centers)."""
        uu = self.u_centers[:, None]
        bb = self.b_centers[None, :] if b is None else b
        return np.exp(-((uu - cu) ** 2) / (2 * su * su) - ((bb - cb) ** 2) / (2 * sb * sb))

    def random_start(self, rng):
        noise = super().random_start(rng)
        cu = rng.uniform(-0.2, 0.2) * self.u_half_width
        cb = rng.uniform(-0.2, 0.2) * self.b_half_width
        su = rng.uniform(0.2, 0.5) * self.u_half_width
        sb = rng.uniform(0.2, 0.5) * self.b_half_width
        return noise * self.gaussian(cu, cb, su, sb)

    def default_bump(self, b=None):
        """Centered Gaussian bump at b-coordinates ``b`` (default: the cell
        centers).  Its inverse stays inside the window: inversion stretches
        b-support by e^U, so the b width budget shrinks by that."""
        su = 0.3 * self.u_half_width
        sb = 0.28 * self.b_half_width * math.exp(-self.u_half_width)
        return self.gaussian(0.0, 0.0, su, sb, b)

    def inverted_default_bump(self):
        """The bump is even in u, so phi(g^-1) is exactly
        ``default_bump(-exp(-u) b)``; cell lookup would be O(h) off, since
        inversion bends b off the grid."""
        return self.default_bump(-np.exp(-self.u_centers[:, None]) * self.b_centers)


# the model classes are their own factories
make_finite_group = FiniteGroup
make_real_line = RealLineModel
make_integer_line = IntegerLineModel
make_torus = TorusModel
make_plane = PlaneModel
make_affine_group = AffineModel


# ---------------------------------------------------------------------------
# modular identity


def check_modular_identity(model: GroupModel, phi: GroupFunction) -> float:
    """Residual of int phi(g^{-1}) dg = int phi(g)/Delta(g) dg, relative to
    the L1 mass of phi.  Exact (up to float roundoff) for finite and for the
    symmetric abelian grids; O(h) on the affine grid where inversion bends
    the b coordinate off the grid.  Returns 0 for the zero function.
    """
    require_model(model, phi)
    vals = phi.lone_values()
    l1 = float(np.sum(model.weight * np.abs(vals)))
    if l1 == 0.0:
        return 0.0
    rhs = float(np.sum(model.weight * vals / model.delta))
    lhs = float(np.sum(model.weight * model.invert(vals)))
    return abs(lhs - rhs) / l1

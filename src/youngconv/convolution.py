"""Twisted convolution, Lp norms, and the Young ratio on group models.

The twisted convolution is phi1 * (phi2 Delta^(1/p1')), the Delta-corrected
convolution whose Lp bound defines the optimal constant on non-unimodular
groups; the Delta power is skipped exactly when p1 = 1 (exponent 0).
The other kinds are unimodular: their kernels take no Delta factor and
share one reversal residual, so only the affine code does Delta arithmetic.

On the abelian step grids the convolution of two step functions is
evaluated exactly as a piecewise-(bi)linear function, and Lp norms of those
results use Gauss-Legendre quadrature per knot interval: 8 nodes, or, for
an integer p <= 15, floor(p/2) + 1 nodes (2 at p = 2; node pairs on the
plane).  On a knot interval |f|^p is then a polynomial of degree p in each
coordinate, which that short rule integrates exactly, as the 8-node rule
does, so the two agree to rounding.  Cell-sampled convolution would make
point masses saturate the ratio at 1 and destroy convergence of the lower
bounds, so it is never used there.  The Gauss sums run one node at a time:
the values at that node on every cell (on the plane, at the q node pairs
of one node row) are formed in one array, raised to p and summed over the
cells, and the node sums are weighted in node order.  They agree with
the per-cell order to about 1e-15 relative, and a row of a stack gets bit
for bit the norm of the same function alone.  Each call makes the arrays
it writes, and no call writes to the model but an affine grid's first,
which adds its read-only index tables, so threads may share a model.

On the affine grid the convolution is a direct double sum over cells; the
group is non-abelian so there is no FFT shortcut, but for each pair of
log-scale rows the b-axis coupling is a Toeplitz matrix, which the code
applies as a batched 1-d convolution.  An operand shared by every row of
such a loop is transformed once and reused as a spectrum.  The forward
convolution and A* add the products of all phi2 rows into one spectrum,
at each row's shift, and take one inverse FFT per call; they agree with a
sum of per-row inverses to about 1e-15 relative.  Each reads only the
central window of its row convolutions, as wide as the kernel (W columns),
so they transform at the least fast length >= W: a circular convolution
that long aliases only outside the window, and it is shorter than the
full linear length by the carrier width.  A* is a correlation with the
forward's own kernel rows, so it multiplies their spectra by the conjugate
of the dual's spectrum and reads the lags below n_b, which do not wrap.
B* samples each inverse at dilated positions across the whole
correlation, so it keeps the full length and one inverse per output row.
The affine reversal check reads its right side's enlarged convolution
only at the carrier's u rows and at the b columns that the inverses
-e^{-u} b reach, so it convolves only that window, with kernel columns
sliced from the enlarged output's own table so that every kernel cell is
the one the whole enlarged output uses.

The kernel rows depend on phi2 alone, and the estimator's loop convolves
with one phi2 many times, so it runs its ascent inside
``kept_kernel_spectra(model)``: there the forward and A* keep the kernel
spectra of the last phi2 stack they convolved with in a context variable,
one per thread, keyed on the output window, the Delta exponent and an
exact copy of phi2, and read them in place of their gather and rfft
while the key holds.  On the carrier window they take 5.4 MB per
function on the 61 x 120 criterion-6 grid, growing as n_u^2 n_b, and
they are dropped before certification.

Every kernel, adjoint and norm also takes a stack of functions: leading
axes in front of the model's own (numpy ``...`` style), reduced only over
the model's axes, so the estimator advances all its restarts in one call.
A row of a stack gets the arithmetic the same function gets alone; the
1-d grids convolve a stack row by row with np.convolve, which has no
batched form.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
import types
from collections import namedtuple

import numpy as np

from .exponents import Exponent, YoungExponents
from .groups import (
    AffineModel,
    FiniteGroup,
    GroupFunction,
    GroupModelError,
    IntegerLineModel,
    PlaneModel,
    RealLineModel,
    TorusModel,
    require_model,
)


@functools.cache
def _gauss_01(q):
    """The q-node Gauss-Legendre nodes and weights on [0, 1], and the
    weight of each node pair (t, s) of the product rule, at q t + s."""
    nodes, weights = np.polynomial.legendre.leggauss(q)
    w01 = 0.5 * weights
    return 0.5 * (nodes + 1.0), w01, np.outer(w01, w01).reshape(-1)


_T01, _W01 = _gauss_01(8)[:2]  # the 8-node rule


def _gauss_rule(pf):
    """The Gauss rule of the PWL norms at exponent pf: floor(p/2) + 1 nodes
    for an integer p <= 15, exact for the degree-p integrand, else 8."""
    return _gauss_01(int(pf) // 2 + 1 if pf <= 15 and pf.is_integer() else 8)


def fftconvolve(in1, in2, n=None, axes=None, out=None):
    """Full linear convolution of real arrays by FFT (numpy.fft).

    Without ``n`` it convolves over ``axes`` (default: every axis) and is,
    over one or two axes, bit for bit what ``scipy.signal.fftconvolve``
    computes in 'full' mode for real inputs longer than 1 along each of
    them: rfftn of both inputs at ``_next_fast_len`` of the full lengths,
    their product, irfftn and the 'full' slice.  numpy's irfftn scales
    once per axis and scipy's once in all, so the inverse runs unscaled
    and is multiplied by 1/prod(fshape) once, as scipy does.  Over three
    or more axes numpy's rfftn takes the leading axes in reverse order,
    so the last bits can differ from scipy's.

    With ``n`` it convolves along the last axis at FFT length n and returns
    all n samples, of which the first len1 + len2 - 1 are the full
    convolution.  Either input may then be its ``rfft(x, n)`` spectrum (a
    complex array), so an operand shared by many calls is transformed once,
    and ``out`` may take the n samples in place of a new array.
    """
    if n is not None:
        sp1 = in1 if np.iscomplexobj(in1) else np.fft.rfft(in1, n)
        sp2 = in2 if np.iscomplexobj(in2) else np.fft.rfft(in2, n)
        return np.fft.irfft(sp1 * sp2, n, out=out)
    axes = tuple(range(in1.ndim)) if axes is None else axes
    shape = [in1.shape[a] + in2.shape[a] - 1 for a in axes]
    fshape = [_next_fast_len(k) for k in shape]
    spec = np.fft.rfftn(in1, fshape, axes) * np.fft.rfftn(in2, fshape, axes)
    full = np.fft.irfftn(spec, fshape, axes, norm="forward")
    full *= 1.0 / math.prod(fshape)
    index = [slice(None)] * full.ndim
    for a, k in zip(axes, shape):
        index[a] = slice(k)
    return full[tuple(index)]


def _next_fast_len(k):
    """The least 2^a 3^b 5^c >= k: a fast real FFT length, as
    ``scipy.fft.next_fast_len(k, True)`` picks it."""
    best = 1 << (k - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the least power of two taking p35 to k or past it
            best = min(best, p35 << (-(-k // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _convolve_last(a, b, mode="full", out=None):
    """Linear convolution along the last axis of two functions, or of two
    stacks with the same leading axes, row by row with np.convolve in
    ``mode``, so a row of a stack gets exactly the values it has alone.
    ``out`` may take the result in place of a new array: a C-contiguous
    array or a slice of one along the last axis, so that out.reshape(-1, n)
    is a view of it."""
    la, lb = a.shape[-1], b.shape[-1]
    if out is None:
        out = np.empty(a.shape[:-1] + (la + lb - 1 if mode == "full" else abs(la - lb) + 1,))
    for row, x, y in zip(out.reshape(-1, out.shape[-1]), a.reshape(-1, la), b.reshape(-1, lb)):
        row[:] = np.convolve(x, y, mode)
    return out


def _pf(p) -> float:
    return float(p if isinstance(p, Exponent) else Exponent(p))


def _scalar_or_rows(x):
    """A float for one function, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _divisor(peak, axes):
    """Peaks as divisors of values with ``axes`` trailing axes; a zero peak
    divides by 1 (its values are all 0), and so does an infinite or NaN
    one, whose norm is not finite anyway (inf / inf would warn).  A float
    for one function."""
    if np.ndim(peak) == 0:
        pk = float(peak)
        return pk if 0.0 < pk < math.inf else 1.0
    div = np.where((peak > 0.0) & (peak < np.inf), peak, 1.0)
    return div.reshape(peak.shape + (1,) * axes)


def _scaled_root(peak, total, pf):
    """peak * total^(1/p), 0 where the peak is 0.  The last step is float
    arithmetic per row, so a row of a stack gets exactly the value that
    the same function has alone."""
    inv = 1.0 / pf
    if np.ndim(peak) == 0:
        return float(peak) * float(total) ** inv if peak != 0.0 else 0.0
    rows = zip(peak.ravel().tolist(), total.ravel().tolist())
    return np.array([pk * t**inv if pk != 0.0 else 0.0 for pk, t in rows]).reshape(peak.shape)


def _weighted_norm(weight, values, pf: float):
    """(sum w |v|^p)^(1/p) over the trailing ``weight.ndim`` axes, with
    overflow-safe rescaling; max for p = inf."""
    batch = values.shape[: values.ndim - weight.ndim]
    mags = np.abs(values).reshape(batch + (-1,))
    peak = mags.max(axis=-1, initial=0.0)
    if math.isinf(pf):
        return _scalar_or_rows(peak)
    mags /= _divisor(peak, 1)
    mags **= pf
    mags *= weight.reshape(-1)
    return _scaled_root(peak, mags.sum(axis=-1), pf)


# ---------------------------------------------------------------------------
# convolution results


class ConvolutionResult:
    """Convolution output with its own domain geometry and a certified norm."""

    # the input mass the model's window cut off the result; none on the
    # kinds whose results keep their whole support
    truncation_mass = 0.0

    def __init__(self, model):
        self.model = model

    def lp_norm(self, p):
        """The Lp norm: a float, or one per function of a stack."""
        raise NotImplementedError

    def inverted_values(self):
        """The values at the inverses of the output's own points."""
        return self.model.invert(self.values)  # symmetric outputs

    def dual_power(self, exponent: float) -> "ConvolutionResult":
        """Same domain, values raised entrywise to a positive power."""
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        clone.values = np.abs(self.values)
        clone.values **= exponent
        return clone


class CellConvolution(ConvolutionResult):
    """Values on a weighted cell set (finite groups, integer line, affine)."""

    def __init__(self, model, values, weight):
        super().__init__(model)
        self.values = values
        self.weight = weight

    def lp_norm(self, p):
        return _weighted_norm(self.weight, self.values, _pf(p))


class AffineConvolution(CellConvolution):
    """Affine convolution sampled on a (u, b) grid: the enlarged one that
    holds its whole support, or the carrier window."""

    def __init__(self, model, values, weight, u_points, b_centers, v1, v2, de):
        super().__init__(model, values, weight)
        self.u_points = u_points
        self.b_centers = b_centers
        self._operands = (v1, v2, de, values)

    def inverted_values(self):
        raise NotImplementedError("affine inversion leaves the grid; see _affine_residual")

    @functools.cached_property
    def truncation_mass(self):
        """||phi1||_1 ||phi2 Delta^de||_1 less the L1 mass of psi on this
        grid, clipped at 0: a float, or one per function of a stack.  The
        estimator's loop never reads it, so it is formed on first read,
        from the operands and values as they are then."""
        v1, v2, de, psi = self._operands
        model = self.model

        def mass(x):
            return x.reshape(x.shape[:-2] + (-1,)).sum(axis=-1)

        in_mass = mass(model.weight * np.abs(v1)) * mass(model.weight * np.abs(v2) * model.delta**de)
        return _scalar_or_rows(np.maximum(0.0, in_mass - mass(self.weight * np.abs(psi))))


class _KnotGrid(ConvolutionResult):
    """Values at equispaced knots of spacing h from x0 along every axis."""

    def __init__(self, model, x0, h, values):
        super().__init__(model)
        self.x0 = float(x0)
        self.h = float(h)
        self.values = values


class LinePWL(_KnotGrid):
    """Piecewise-linear function with equispaced knots (exact on the line)."""

    def lp_norm(self, p):
        return _pwl_norm(self.values, self.h, _pf(p), cyclic=False)


class TorusPWL(ConvolutionResult):
    """Piecewise-linear function on the circle; knots at the cell edges."""

    def __init__(self, model, values):
        super().__init__(model)
        self.h = model.h
        self.values = values

    def lp_norm(self, p):
        return _pwl_norm(self.values, self.h, _pf(p), cyclic=True)

    def inverted_values(self):
        # circle inversion maps edge knot k to edge knot -k mod n
        return np.roll(self.values[::-1], 1)


class PlanePWL(_KnotGrid):
    """Piecewise-bilinear function on an equispaced 2-d knot grid."""

    def lp_norm(self, p):
        pf = _pf(p)
        # one function at a time: the Gauss-node surface below is up to 64
        # times the knot grid, so it is not built for a whole stack
        stack = self.values.reshape((-1,) + self.values.shape[-2:])
        q = _gauss_rule(pf)[0].size
        row = np.empty((q, stack.shape[1] - 1, stack.shape[2] - 1))
        norms = np.array([self._knot_norm(v, pf, row) for v in stack])
        return _scalar_or_rows(norms.reshape(self.values.shape[:-2]))

    def _knot_norm(self, values, pf, row):
        v = np.abs(values)
        peak = float(v.max())
        if math.isinf(pf) or peak == 0.0:
            return peak
        v /= peak
        # the bilinear surface at the Gauss nodes (t, s), one node row t at
        # a time: its edges lo (s = 0) and hi (s = 1) are (m, n) arrays, and
        # the row's (q, m, n) block is lo + s (hi - lo), raised to p and
        # summed over the cells in ``row``
        nodes, _, weights = _gauss_rule(pf)
        q = nodes.size
        sums = np.empty((q, q))
        v00, v10, v01, v11 = v[:-1, :-1], v[1:, :-1], v[:-1, 1:], v[1:, 1:]
        for k, t in enumerate(nodes):
            lo = v00 * (1 - t) + v10 * t
            hi = v01 * (1 - t) + v11 * t
            hi -= lo
            np.multiply.outer(nodes, hi, out=row)
            row += lo
            row **= pf
            row.reshape(q, -1).sum(axis=-1, out=sums[k])
        cell = weights @ sums.reshape(-1)
        return peak * float(cell * self.h * self.h) ** (1.0 / pf)


def _pwl_norm(values, h, pf, cyclic):
    """Lp norm of the piecewise-linear function through ``values`` (knots
    of common spacing h along the last axis; ``cyclic`` closes the last
    segment back to the first knot), by Gauss quadrature on every segment
    (``_gauss_rule``).

    The sum runs one node at a time: the values a + t (b - a) at node t on
    every segment of the stack are formed in one array the size of the
    knot stack, raised to p and summed over the segments of each function,
    and the q node sums are weighted and added in node order, elementwise:
    a row of a stack gets exactly the value the same function has alone.
    (One BLAS matvec over all rows would not: OpenBLAS's dgemv rounds a
    column by its position when the row length is not a multiple of 4.)
    """
    mags = np.abs(values)
    peak = mags.max(axis=-1, initial=0.0)
    if math.isinf(pf):
        return _scalar_or_rows(peak)
    mags /= _divisor(peak, 1)
    a = mags if cyclic else mags[..., :-1]
    b = np.roll(mags, -1, axis=-1) if cyclic else mags[..., 1:]
    # one block for both: as two arrays, on a 16 x 640 stack, glibc's heap
    # trimmed and faulted them in afresh on every norm (1e5 minor faults in
    # a line_ladder job against 5e2)
    slope, node = np.empty((2,) + a.shape)
    np.subtract(b, a, out=slope)
    total = 0.0  # the node sums are >= 0, so 0.0 + s is s exactly
    for t, w in zip(*_gauss_rule(pf)[:2]):
        np.multiply(t, slope, out=node)
        node += a
        node **= pf
        total += node.sum(axis=-1) * w
    return _scaled_root(peak, total * h, pf)


# ---------------------------------------------------------------------------
# the twisted convolution


def _delta_exponent(ex: YoungExponents):
    """1/p1' as an exact Fraction; 0 exactly when p1 = 1."""
    return ex.p1.conjugate().inv


def twisted_convolve(
    phi1: GroupFunction, phi2: GroupFunction, ex: YoungExponents
) -> ConvolutionResult:
    """phi1 * (phi2 Delta^(1/p1')) evaluated per model kind, on the full
    support of the result: on the affine grid that is the enlarged b
    window, where the certified ratio is read.
    """
    require_model(phi1.model, phi2)
    de = float(_delta_exponent(ex))
    return _convolve(phi1.model, phi1.values, phi2.values, de)


def _convolve(model, v1, v2, de, enlarged=True):
    """The model's convolution kernel."""
    return _KERNELS[type(model)].convolve(model, v1, v2, de, enlarged)


def _integer_line_convolve(model, v1, v2, de, enlarged):
    vals = _convolve_last(v1, v2)
    return CellConvolution(model, vals, np.ones(vals.shape[-1]))


def _real_line_convolve(model, v1, v2, de, enlarged):
    # the convolution goes straight into the interior of the knot array,
    # whose two end knots stay 0
    knots = np.zeros(v1.shape[:-1] + (v1.shape[-1] + v2.shape[-1] + 1,))
    core = _convolve_last(v1, v2, out=knots[..., 1:-1])
    core *= model.h
    return LinePWL(model, -2.0 * model.half_width, model.h, knots)


def _torus_convolve(model, v1, v2, de, enlarged):
    n = model.n
    full = _convolve_last(v1, v2)
    folded = full[..., :n].copy()
    folded[..., : n - 1] += full[..., n:]
    # knot k sits at position k*h and collects pairs with i+j = k-1 mod n
    return TorusPWL(model, model.h * np.roll(folded, 1, axis=-1))


def _plane_convolve(model, v1, v2, de, enlarged):
    core = model.h * model.h * fftconvolve(v1, v2, axes=(-2, -1))
    knots = np.zeros(core.shape[:-2] + (core.shape[-2] + 2, core.shape[-1] + 2))
    knots[..., 1:-1, 1:-1] = core
    return PlanePWL(model, -2.0 * model.half_width, model.h, knots)


def _finite_kernel(model: FiniteGroup, v2):
    """kernel[i, k] = phi2(g_i^-1 g_k); finite groups are unimodular."""
    return np.take(v2, model.table[model.inv, :], axis=-1)  # C order, as for one function


def _vec_mat(v, m):
    """v @ m for row vectors v; both may carry leading stack axes."""
    return (v[..., None, :] @ m)[..., 0, :]


def _mat_vec(m, v):
    """m @ v for column vectors v; both may carry leading stack axes."""
    return (m @ v[..., None])[..., 0]


def _finite_convolve(model, v1, v2, de, enlarged):
    return CellConvolution(model, _vec_mat(v1, _finite_kernel(model, v2)), model.weight)


def _window_table(build):
    """build(model, out_b), an affine index table for the output b grid (the
    dual's in A* and B*), built once per grid and kept on the model, read-only."""

    @functools.wraps(build)
    def table(model, out_b):
        cache = vars(model).setdefault("_window_tables", {})
        key = (build.__name__, out_b.size, float(out_b[0]))
        if key not in cache:
            cache[key] = build(model, out_b)
            cache[key].flags.writeable = False
        return cache[key]

    return table


@_window_table
def _affine_kernel_cols(model: AffineModel, out_b):
    """Cell column of e^{-u_i} x_d for every carrier row i and every b offset
    x_d from the carrier to the output grid ``out_b``, padded to the FFT
    length of the row convolutions.

    A row convolution with these W = n_b + out_b.size - 1 offsets is read
    only on its W-wide central window, which a circular convolution of any
    length N >= W leaves free of aliasing, so N is the least fast length
    >= W.  A column outside the window, and every column past the W
    offsets, is n_b, the zero that _summed_row_spectrum puts past the
    end of every phi2 row, so a kernel row is gathered whole.  A few
    hundred kilobytes on the criterion-6 grid; the FFT length is the width.
    """
    nb = model.n_b
    d = np.arange(nb + out_b.size - 1) - (nb - 1)
    x_d = (out_b[0] - model.b_centers[0]) + d * model.h_b
    args = np.exp(-model.u_centers)[:, None] * x_d[None, :]  # e^{-u_i} is Delta at row i
    col = np.floor((args + model.b_half_width) / model.h_b).astype(int)
    col = np.where((col >= 0) & (col < nb), col, nb)
    cols = np.full((model.n_u, _next_fast_len(d.size)), nb)
    cols[:, : d.size] = col
    return cols


@_window_table
def _affine_sample_index(model: AffineModel, w_b):
    """B*'s flat index of e^{u_i} b_c inside its correlation buffer for a
    dual on the b grid ``w_b``: row i of the buffer holds the inverse for
    carrier row i, and a sample outside the correlation reads the row's
    last column, which stays 0."""
    nb = model.n_b
    full = w_b.size + nb - 1
    nfft = _next_fast_len(full)
    targets = np.exp(model.u_centers)[:, None] * model.b_centers[None, :]
    rel = (targets + (model.b_centers[0] - w_b[0])) / model.h_b + 0.5
    gather = np.floor(rel).astype(int) + (nb - 1)
    gather = np.where((gather >= 0) & (gather < full), gather, nfft)
    gather += (nfft + 1) * np.arange(model.n_u)[:, None]
    return gather


_kept = contextvars.ContextVar("kept_kernel_spectra", default=None)


@contextlib.contextmanager
def kept_kernel_spectra(model):
    """A block in which the affine forward and A* on ``model`` keep the
    kernel spectra of the last phi2 stack they convolved with (see
    _summed_row_spectrum); the other kinds have none.  The spectra live in
    a context variable, not on the model, so every thread has its own;
    on exit they are dropped and an enclosing block's are back in force."""
    token = _kept.set(types.SimpleNamespace(model=model, key=None, buffer=np.empty(0, dtype=complex)))
    try:
        yield
    finally:
        _kept.reset(token)


def _kernel_spectra(row, cols, kern, out):
    """The rfft, into ``out``, of the kernel rows that the phi2 row ``row``
    (padded with its zero) gives at the columns ``cols``, gathered into
    ``kern``."""
    np.take(row, cols, axis=-1, out=kern, mode="clip")
    return np.fft.rfft(kern, out=out)


def _summed_row_spectrum(model, spec, v2, de, cols, n_rows, terms):
    """The spectrum of a sum of row-wise circular convolutions with phi2
    rows, at the FFT length nfft = cols.shape[1].

    ``terms`` yields (r, rows, src, dst): phi2 row r, scaled by its
    Delta^de = e^{-de u_r} and gathered at the columns ``cols[rows]``, gives
    one kernel row per carrier row in ``rows``; the rfft of each kernel row
    times the rows ``src`` of the spectrum ``spec`` is added into the rows
    ``dst`` of the sum.  A phi2 row that is all zero in every function is
    skipped.  The inverse FFT is linear, so the products are summed in the
    frequency domain, and the caller takes one irfft of its n_rows rows
    instead of one per phi2 row, once the buffers here are freed.  Each
    gather writes one contiguous block of whole kernel rows, which rfft
    takes as they are.  A row of a stack is summed on its own, so it gets
    the values it has alone.

    Inside a kept_kernel_spectra block on ``model`` the kernel spectra are
    kept in the block's namespace in the order of ``terms``, which the
    forward and A* on one window share, keyed on ``cols``, ``de`` and an
    exact copy of ``v2``.  A call with an equal key reads them and gathers
    and transforms nothing; any other writes its own over them, and the
    key is set once they are complete.
    """
    nfft = cols.shape[1]
    nfreq = nfft // 2 + 1
    terms = list(terms)
    batch = np.broadcast_shapes(spec.shape[:-2], v2.shape[:-2])
    vbatch = v2.shape[:-2]  # the spectra depend on phi2 alone
    live = v2.any(axis=tuple(range(v2.ndim - 2)) + (-1,)).tolist()
    n, nv = math.prod(batch), math.prod(vbatch)
    kept = _kept.get()
    kept = kept if getattr(kept, "model", None) is model else None
    key = getattr(kept, "key", None)
    hit = key is not None and key[0] is cols and key[1] == de and np.array_equal(key[2], v2)
    if kept is not None:
        if not hit:
            # no key, and no old copy of phi2, while the spectra are written
            kept.key = key = None
        shape = vbatch + (sum(rows.stop - rows.start for _, rows, _, _ in terms), nfreq)
        if kept.buffer.size < math.prod(shape):
            kept.buffer = np.empty(math.prod(shape), dtype=complex)
        spectra = kept.buffer[: math.prod(shape)].reshape(shape)
    if not hit:
        padded = np.zeros(v2.shape[:-1] + (v2.shape[-1] + 1,))
        if de != 0.0:
            # each phi2 row is scaled once before its gathers, which give
            # every kernel entry the product it would get after them
            dfac = np.array([math.exp(-de * x) for x in model.u_centers.tolist()])
            np.multiply(v2, dfac[:, None], out=padded[..., :-1])
        else:
            padded[..., :-1] = v2
        # a flat buffer, so the k kernel rows of every function of a stack
        # are one contiguous block
        kern = np.empty(nv * cols.shape[0] * nfft)
    prod = np.empty(n * cols.shape[0] * nfreq, dtype=complex)
    acc = np.zeros(batch + (n_rows, nfreq), dtype=complex)
    end = 0
    for r, rows, src, dst in terms:
        k = rows.stop - rows.start
        end += k
        if not live[r]:
            continue
        part = prod[: n * k * nfreq].reshape(batch + (k, nfreq))
        if kept is None:  # the spectra are formed in the product's place
            kspec = prod[: nv * k * nfreq].reshape(vbatch + (k, nfreq))
        else:
            kspec = spectra[..., end - k : end, :]
        if not hit:
            row_kern = kern[: nv * k * nfft].reshape(vbatch + (k, nfft))
            _kernel_spectra(padded[..., r, :], cols[rows], row_kern, kspec)
        np.multiply(kspec, spec[..., src, :], out=part)
        acc[..., dst, :] += part
    if kept is not None and not hit:
        kept.key = (cols, de, v2.copy())
    return acc


def _enlarged_window_cols(model: AffineModel, columns):
    """The kernel columns of the enlarged output's columns ``columns``, a
    slice of model.out_b_centers: the W = n_b + width - 1 offsets they read
    are sliced from the enlarged table, so every cell index is the one the
    whole enlarged output uses (offsets derived afresh from the window's
    first b would round differently and can snap to the next cell at an
    exact cell edge), and re-padded with n_b to the window's FFT length."""
    start = columns.start
    width = model.n_b + columns.stop - start - 1
    cols = np.full((model.n_u, _next_fast_len(width)), model.n_b)
    cols[:, :width] = _affine_kernel_cols(model, model.out_b_centers)[:, start : start + width]
    return cols


def _affine_convolve(model: AffineModel, v1, v2, de, enlarged, columns=None):
    """The convolution on the carrier (``enlarged`` false) or on the
    enlarged window that holds its whole support.  ``columns``, a slice of
    the enlarged b grid, computes only the enlarged output's carrier u rows
    (its rows ku to 3 ku) at those columns, which is all the affine reversal
    check reads."""
    h_u, h_b = model.h_u, model.h_b
    nu, nb = model.n_u, model.n_b
    u = model.u_centers
    ku = (nu - 1) // 2  # U / h_u
    if columns is not None:
        # enlarged row ku + i lies at u_i, so these rows are the carrier's
        out_u = u
        out_b = model.out_b_centers[columns]
        row_shift = ku
        cols = _enlarged_window_cols(model, columns)
    elif enlarged:
        out_u = (np.arange(2 * nu - 1) - 2 * ku) * h_u
        out_b = model.out_b_centers
        row_shift = 0
        cols = _affine_kernel_cols(model, out_b)
    else:
        out_u = u
        out_b = model.b_centers
        row_shift = ku  # row m = i + r - ku
        cols = _affine_kernel_cols(model, out_b)
    n_rows, n_out = out_u.size, out_b.size
    spec1 = np.fft.rfft(v1 * model.weight, cols.shape[1])

    def terms():
        for r in range(nu):
            lo = max(0, row_shift - r)
            hi = min(nu, n_rows + row_shift - r)
            dst = slice(r + lo - row_shift, r + hi - row_shift)
            yield r, slice(lo, hi), slice(lo, hi), dst

    acc = _summed_row_spectrum(model, spec1, v2, de, cols, n_rows, terms())
    full = np.fft.irfft(acc, cols.shape[1])
    psi = full[..., nb - 1 : nb - 1 + n_out]
    out_mass = (
        np.exp(-out_u)[:, None]
        * (2.0 * math.sinh(h_u / 2.0) * h_b)
        * np.ones(n_out)[None, :]
    )
    return AffineConvolution(model, psi, out_mass, out_u, out_b, v1, v2, de)


# ---------------------------------------------------------------------------
# norms and the ratio


def lp_norm(obj, p) -> float:
    """Lp norm against left Haar weights; max over the carrier for p = inf.

    Accepts a GroupFunction (step semantics) or a ConvolutionResult (exact
    piecewise-linear quadrature where applicable).
    """
    if isinstance(obj, ConvolutionResult):
        return obj.lp_norm(p)
    if isinstance(obj, GroupFunction):
        return _weighted_norm(obj.model.weight, obj.values, _pf(p))
    raise TypeError(f"cannot take an Lp norm of {type(obj).__name__}")


def young_ratio(phi1: GroupFunction, phi2: GroupFunction, ex: YoungExponents):
    """||phi1 * (phi2 Delta^(1/p1'))||_p / (||phi1||_p1 ||phi2||_p2).

    Scale invariant in each argument.  On finite groups and the abelian
    grids, where the model's convolution is the group's own convolution of
    the step functions, every returned value is a lower bound for the
    optimal constant of the represented group, up to the truncation
    diagnostics of the model.  The affine grid sums its u rows as lattice
    points and snaps the dilated b axis, so an affine value is a grid
    diagnostic and can exceed the group's constant.  The convolution keeps
    its full support, the enlarged b window on the affine grid.  Inputs are
    normalized before convolving so large values cannot overflow.

    phi1 and phi2 may hold stacks of functions of one shape (see
    GroupFunction): the result is then one ratio per row, and each row
    gets the bits it gets alone.
    """
    require_model(phi1.model, phi2)
    return _normalized_convolve(phi1, phi2, ex).lp_norm(ex.p)


def _normalized_convolve(phi1, phi2, ex) -> ConvolutionResult:
    """The convolution whose p-norm young_ratio returns."""
    model = phi1.model
    n1 = np.asarray(lp_norm(phi1, ex.p1))
    n2 = np.asarray(lp_norm(phi2, ex.p2))
    if np.any(n1 == 0.0) or np.any(n2 == 0.0):
        raise ValueError("young_ratio needs nonzero functions")
    de = float(_delta_exponent(ex))
    axes = (1,) * len(model.shape)  # each row divided by its own norm
    v1 = phi1.values / n1.reshape(n1.shape + axes)
    return _convolve(model, v1, phi2.values / n2.reshape(n2.shape + axes), de)


# ---------------------------------------------------------------------------
# the convolution transform identity


def transform_identity_check(
    phi1: GroupFunction, phi2: GroupFunction, ex: YoungExponents
) -> float:
    """Max relative residual of the reversal identity

        phi1 * (phi2 Delta^(1/p1'))(g')
          = [(phi2 o inv)/Delta^(1/p2)] * [(phi1 o inv)/Delta^(1/p)] (g'^-1)
            * Delta(g')^(-1/p)

    at every point of the output.  On the five unimodular kinds (finite
    groups, integer line, real line, torus, plane) one residual runs both
    sides through the kind's own convolution: zero up to float roundoff.
    O(h) on the affine grid at the carrier points, where inversion bends
    the b axis off the grid.  There the right side's convolution is
    evaluated only on the window the check reads: the carrier's u rows of
    the enlarged output, and its b columns from the cell of the least
    inverse b to the one after the greatest (see _affine_residual).
    """
    model = phi1.model
    require_model(model, phi2)
    v1, v2 = phi1.lone_values(), phi2.lone_values()
    return _KERNELS[type(model)].transform_residual(model, v1, v2, ex)


def _unimodular_residual(model, v1, v2, ex):
    """With Delta = 1 the identity is phi1 * phi2 = [(phi2 o inv) *
    (phi1 o inv)] o inv, the last inversion on the output's own domain."""
    lhs = _convolve(model, v1, v2, float(_delta_exponent(ex))).values
    rhs = _convolve(model, model.invert(v2), model.invert(v1), 0.0).inverted_values()
    return _max_rel(lhs, rhs)


def _max_rel(lhs, rhs):
    """The largest gap between two arrays over the largest entry of lhs, or
    the largest gap alone where lhs is 0."""
    scale = float(np.abs(lhs).max())
    if scale == 0.0:
        return float(np.abs(rhs).max())
    return float(np.abs(lhs - rhs).max()) / scale


def _interp_rows(values, rows, b_positions, b0, h_b, first=0):
    """Linear interpolation along b at exact integer rows; 0 outside.
    ``values`` holds the columns from ``first`` on of a grid whose column 0
    is at b0; they must include every column in the grid that a position
    reads."""
    n_b = values.shape[1]
    frac = (b_positions - b0) / h_b
    lo = np.floor(frac).astype(int)
    t = frac - lo
    lo -= first
    lo_ok = (lo >= 0) & (lo < n_b)
    hi_ok = (lo + 1 >= 0) & (lo + 1 < n_b)
    row_idx = np.broadcast_to(rows, frac.shape)
    left = np.where(lo_ok, values[row_idx, np.clip(lo, 0, n_b - 1)], 0.0)
    right = np.where(hi_ok, values[row_idx, np.clip(lo + 1, 0, n_b - 1)], 0.0)
    return left * (1.0 - t) + right * t


def _read_columns(model, b_positions):
    """The columns of the enlarged b grid that _interp_rows reads at
    ``b_positions``: from the least cell a position falls in to the one
    after the greatest, cut to the grid."""
    lo = np.floor((b_positions - model.out_b_centers[0]) / model.h_b).astype(int)
    return slice(max(0, int(lo.min())), min(model.out_b_centers.size, int(lo.max()) + 2))


def _affine_residual(model, v1, v2, ex):
    """Both sides of the reversal identity on the carrier; the u coordinate
    of every inverse lands exactly on the lattice and the b coordinate is
    read by linear interpolation (the identity concerns the underlying
    smooth functions, so the checker avoids first-order snapping noise).

    The right side's convolution is evaluated only on the window of its
    enlarged output that the interpolation reads: the carrier's u rows
    (enlarged rows ku to 3 ku, the rows of -u_i) and the b columns from
    the least cell that an inverse b = -e^{-u} b' falls in to one past the
    greatest, as _interp_rows computes them.  On the h = 0.02 verify grid
    that is 61 of 121 rows and 546 of 848 columns."""
    de = float(_delta_exponent(ex))
    inv_p = float(ex.p.inv)
    inv_p2 = float(ex.p2.inv)
    lhs = _affine_convolve(model, v1, v2, de, enlarged=False).values
    uu = model.u_centers[:, None]
    bb = model.b_centers[None, :]
    inv_rows = np.arange(model.n_u)[::-1]  # row of -u_i on the carrier
    binv = -np.exp(-uu) * bb
    a = _interp_rows(v2, inv_rows[:, None], binv, model.b_centers[0], model.h_b)
    a = a * np.exp(uu * inv_p2)  # 1/Delta^(1/p2), Delta = e^{-u}
    b = _interp_rows(v1, inv_rows[:, None], binv, model.b_centers[0], model.h_b)
    b = b * np.exp(uu * inv_p)
    columns = _read_columns(model, binv)
    conv0 = _affine_convolve(model, a, b, 0.0, enlarged=True, columns=columns)
    # the window's rows are the carrier's, so -u_i is in row inv_rows[i]
    rhs = _interp_rows(
        conv0.values, inv_rows[:, None], binv, model.out_b_centers[0], model.h_b, columns.start
    )
    rhs = rhs * np.exp(uu * inv_p)  # Delta(g')^(-1/p)
    return _max_rel(lhs, rhs)



# ---------------------------------------------------------------------------
# adjoint directions for the alternating ascent (estimator support)
#
# With psi = phi1 * (phi2 Delta^de) and w the dual of psi on its own domain,
# the first-order ascent directions are
#
#   (A* w)(g) = int w(g') phi2(g^-1 g') Delta(g^-1 g')^de dg'      (for phi1)
#   (B* w)(k) = Delta(k)^de int phi1(g) w(g k) dg                  (for phi2)
#
# Exact pairings against the piecewise-linear duals on the abelian grids
# reduce to short filters: the integral of a PWL function over a knot-
# centered window [y_m - h/2, y_m + h/2] is (h/8)(v_{m-1} + 6 v_m + v_{m+1}),
# and the offsets of step cells against convolution knots land exactly on
# those windows.  Only proposals come from here; step acceptance is always
# decided by the exactly evaluated ratio.


def centered_integrals(values, h, axis=-1, cyclic=False):
    """Exact integrals of a PWL function over [knot - h/2, knot + h/2],
    with knots along ``axis``: (h/8) (left + 6 v + right), zero beyond the
    ends, or with the ends each other's neighbours if ``cyclic``, built in
    one array."""
    v = np.asarray(values, dtype=float)
    # all knots but the last, all but the first, the first and the last
    head, tail, first, last = (
        (slice(None),) * (axis % v.ndim) + (at,) for at in (slice(-1), slice(1, None), 0, -1)
    )
    out = 6.0 * v
    out[tail] += v[head]  # left neighbours
    if cyclic:
        out[first] += v[last]
    out[head] += v[tail]  # right neighbours
    if cyclic:
        out[last] += v[first]
    out *= h / 8.0
    return out


def _centered_integrals_2d(values, h):
    return centered_integrals(centered_integrals(values, h, axis=-2), h, axis=-1)


def ascent_direction_phi1(model, phi2_vals, w, de):
    """A* w on the carrier; the proposal direction for the first argument."""
    return _KERNELS[type(model)].adjoint_phi1(model, phi2_vals, w, de)


def ascent_direction_phi2(model, phi1_vals, w, de):
    """B* w on the carrier; the proposal direction for the second argument."""
    return _KERNELS[type(model)].adjoint_phi2(model, phi1_vals, w, de)


def _finite_ascent_phi1(model, phi2_vals, w, de):
    return _mat_vec(_finite_kernel(model, phi2_vals), w.values)


def _finite_ascent_phi2(model, phi1_vals, w, de):
    return _vec_mat(phi1_vals, np.take(w.values, model.table, axis=-1))


# On the abelian grids Delta = 1 and A* w, B* w are one correlation of the
# dual with the other argument, so each grid has a single adjoint kernel.
# The 1-d kernels need only outputs where the reversed argument lies wholly
# inside the longer dual; np.convolve's 'valid' mode computes just those,
# with the dot products its 'full' mode computes for them.


def _integer_line_correlate(model, f, w, de):
    return _convolve_last(w.values, f[..., ::-1], "valid")


def _real_line_correlate(model, f, w, de):
    n = model.size
    windows = centered_integrals(w.values, model.h)
    valid = _convolve_last(windows, f[..., ::-1], "valid")  # full from n - 1 on
    return valid[..., 1 : n + 1]


def _torus_correlate(model, f, w, de):
    # out[k] = sum_j f[j] a[(j + k) mod n] for the shifted window integrals a
    n = model.n
    a = np.roll(centered_integrals(w.values, model.h, cyclic=True), -1, axis=-1)
    valid = _convolve_last(np.concatenate((a, a), axis=-1), f[..., ::-1], "valid")
    return valid[..., :n]


def _plane_correlate(model, f, w, de):
    n = model.centers.size
    windows = _centered_integrals_2d(w.values, model.h)
    full = fftconvolve(windows, f[..., ::-1, ::-1], axes=(-2, -1))
    return full[..., n : 2 * n, n : 2 * n]


def _affine_ascent_phi1(model: AffineModel, v2, w: AffineConvolution, de):
    """Batched Toeplitz evaluation of A* w on the affine carrier.

    For carrier row i and dual row m the middle coordinate is
    u_m^w - u_i = u_r for the integer phi2 row r, so the sum splits into
    per-r batches; along b it is a correlation of the dual row with the
    dilated, step-sampled phi2 row, the forward's kernel row k for the
    dual's grid: A*[j] = sum_o k[n_b - 1 - j + o] w[o].  That is the
    circular correlation of k and w at lag n_b - 1 - j, the inverse of
    K conj(W) at the forward's FFT length N, where lags up to n_b - 1 read
    only the W kernel columns and do not wrap.  So A* runs the forward's
    row sums on the conjugate of the dual's spectrum.  On the dual's window
    its terms are the forward's with src and dst swapped, in the same
    order, so inside kept_kernel_spectra it reads the spectra that the
    forward kept for the same phi2.
    """
    nu, nb = model.n_u, model.n_b
    ku = (nu - 1) // 2
    base = int(round(w.u_points[0] / model.h_u))
    cols = _affine_kernel_cols(model, w.b_centers)
    spec_w = np.fft.rfft(w.values * w.weight, cols.shape[1])
    np.conjugate(spec_w, out=spec_w)
    n_rows = w.values.shape[-2]

    def terms():
        for r in range(nu):
            shift = r - base - 2 * ku  # dual row m = i + shift
            lo = max(0, -shift)
            hi = min(nu, n_rows - shift)
            if lo >= hi:
                continue
            yield r, slice(lo, hi), slice(lo + shift, hi + shift), slice(lo, hi)

    acc = _summed_row_spectrum(model, spec_w, v2, de, cols, nu, terms())
    full = np.fft.irfft(acc, cols.shape[1])
    return full[..., nb - 1 :: -1]


def _affine_ascent_phi2(model: AffineModel, v1, w: AffineConvolution, de):
    """Batched evaluation of B* w on the affine carrier.

    For output row c the dual row is m = i + c - 2 ku - base for every
    integration row i; along b the pairing is a correlation of the dual
    row with the phi1 row, sampled at the dilated positions e^{u_i} b_c.
    The samples come after each inverse FFT, so the rows cannot be summed
    in the frequency domain as in A*; the inverse runs into one buffer
    kept for the call instead.
    """
    nu, nb = model.n_u, model.n_b
    u = model.u_centers
    ku = (nu - 1) // 2
    base = int(round(w.u_points[0] / model.h_u))
    n_rows = w.values.shape[-2]
    v1w = v1 * model.weight
    nfft = _next_fast_len(w.b_centers.size + nb - 1)
    spec_w = np.fft.rfft(w.values, nfft)
    spec1 = np.fft.rfft(v1w[..., ::-1], nfft)
    gather = _affine_sample_index(model, w.b_centers)
    batch = np.broadcast_shapes(w.values.shape[:-2], v1.shape[:-2])
    corr = np.zeros(batch + (nu, nfft + 1))
    flat = corr.reshape(batch + (-1,))
    out = np.zeros(v1.shape)
    for c in range(nu):
        shift = c - 2 * ku - base  # dual row m = i + shift
        lo = max(0, -shift)
        hi = min(nu, n_rows - shift)
        if lo >= hi:
            continue
        if not np.any(v1w[..., lo:hi, :]):
            continue
        fftconvolve(
            spec_w[..., lo + shift : hi + shift, :], spec1[..., lo:hi, :], n=nfft,
            out=corr[..., lo:hi, :nfft],
        )
        acc = np.take(flat, gather[lo:hi], axis=-1).sum(axis=-2)
        dfac = math.exp(-de * u[c]) if de != 0.0 else 1.0
        out[..., c, :] = dfac * acc
    return out


# ---------------------------------------------------------------------------
# the per-kind kernel table: a new model kind adds one entry here


_Kernels = namedtuple("_Kernels", "convolve adjoint_phi1 adjoint_phi2 transform_residual")


def _row(convolve, adjoint_phi1, adjoint_phi2=None, transform_residual=_unimodular_residual):
    """A kind's row: an abelian grid names its one correlation once, as A*
    and B* alike, and every kind but the affine grid is unimodular."""
    return _Kernels(convolve, adjoint_phi1, adjoint_phi2 or adjoint_phi1, transform_residual)


class _KernelTable(dict):
    def __missing__(self, cls):
        raise GroupModelError(f"unsupported model kind {cls.kind}")


_KERNELS = _KernelTable({
    FiniteGroup: _row(_finite_convolve, _finite_ascent_phi1, _finite_ascent_phi2),
    IntegerLineModel: _row(_integer_line_convolve, _integer_line_correlate),
    RealLineModel: _row(_real_line_convolve, _real_line_correlate),
    TorusModel: _row(_torus_convolve, _torus_correlate),
    PlaneModel: _row(_plane_convolve, _plane_correlate),
    AffineModel: _row(
        _affine_convolve, _affine_ascent_phi1, _affine_ascent_phi2, _affine_residual
    ),
})

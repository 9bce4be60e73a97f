"""Twisted convolution, Lp norms, and the Young ratio on group models.

The twisted convolution is phi1 * (phi2 Delta^(1/p1')), the Delta-corrected
convolution whose Lp bound defines the optimal constant on non-unimodular
groups; the Delta power is skipped exactly when p1 = 1 (exponent 0).

On the abelian step grids the convolution of two step functions is
evaluated exactly as a piecewise-(bi)linear function, and Lp norms of those
results use fixed 8-node Gauss-Legendre quadrature per knot interval.
Cell-sampled convolution would make point masses saturate the ratio at 1
and destroy convergence of the lower bounds, so it is never used there.

On the affine grid the convolution is a direct double sum over cells; the
group is non-abelian so there is no FFT shortcut, but for each pair of
log-scale rows the b-axis coupling is a Toeplitz matrix, which the code
applies as a batched 1-d convolution.  An operand shared by every row of
such a loop is transformed once and reused as a spectrum.  The forward
convolution and A* add the products of all phi2 rows into one spectrum,
at each row's shift, and take one inverse FFT per call; they agree with a
sum of per-row inverses to about 1e-15 relative.  B* samples each inverse
at dilated positions, so it keeps one inverse per output row.

Every kernel, adjoint and norm also takes a stack of functions: leading
axes in front of the model's own (numpy ``...`` style), reduced only over
the model's axes, so the estimator advances all its restarts in one call.
A row of a stack gets the arithmetic the same function gets alone; the
1-d grids convolve a stack row by row with np.convolve, which has no
batched form.
"""

from __future__ import annotations

import math
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
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)
_T01 = 0.5 * (_GL_NODES + 1.0)
_W01 = 0.5 * _GL_WEIGHTS


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


def _convolve_last(a, b, mode="full"):
    """Linear convolution along the last axis of two functions, or of two
    stacks with the same leading axes, row by row with np.convolve in
    ``mode``, so a row of a stack gets exactly the values it has alone."""
    if a.ndim == 1:
        return np.convolve(a, b, mode)
    la, lb = a.shape[-1], b.shape[-1]
    out = np.empty(a.shape[:-1] + (la + lb - 1 if mode == "full" else abs(la - lb) + 1,))
    for row, x, y in zip(out.reshape(-1, out.shape[-1]), a.reshape(-1, la), b.reshape(-1, lb)):
        row[:] = np.convolve(x, y, mode)
    return out


def _row_spectrum(values, full):
    """FFT length for a row-wise convolution of full length ``full``, and the
    rfft of every row of ``values`` at that length."""
    nfft = _next_fast_len(full)
    return nfft, np.fft.rfft(values, nfft)


def _pf(p) -> float:
    return float(p if isinstance(p, Exponent) else Exponent(p))


def _scalar_or_rows(x):
    """A float for one function, the array itself for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _divisor(peak, axes):
    """Peaks as divisors of values with ``axes`` trailing axes; a zero peak
    divides by 1 (its values are all 0).  A float for one function."""
    if np.ndim(peak) == 0:
        return float(peak) or 1.0
    return np.where(peak == 0.0, 1.0, peak).reshape(peak.shape + (1,) * axes)


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

    def __init__(self, model, truncation_mass=0.0):
        self.model = model
        self.truncation_mass = _scalar_or_rows(truncation_mass)

    def lp_norm(self, p):
        """The Lp norm: a float, or one per function of a stack."""
        raise NotImplementedError

    def dual_power(self, exponent: float) -> "ConvolutionResult":
        """Same domain, values raised entrywise to a positive power."""
        clone = self.__class__.__new__(self.__class__)
        clone.__dict__.update(self.__dict__)
        clone.values = np.abs(self.values) ** exponent
        return clone


class CellConvolution(ConvolutionResult):
    """Values on a weighted cell set (finite groups, integer line, affine)."""

    def __init__(self, model, values, weight, truncation_mass=0.0):
        super().__init__(model, truncation_mass)
        self.values = values
        self.weight = weight

    def lp_norm(self, p):
        return _weighted_norm(self.weight, self.values, _pf(p))


class AffineConvolution(CellConvolution):
    """Affine convolution sampled on an enlarged (u, b) grid."""

    def __init__(self, model, values, weight, u_points, b_centers, truncation_mass):
        super().__init__(model, values, weight, truncation_mass)
        self.u_points = u_points
        self.b_centers = b_centers


class LinePWL(ConvolutionResult):
    """Piecewise-linear function with equispaced knots (exact on the line)."""

    def __init__(self, model, x0, h, values, truncation_mass=0.0):
        super().__init__(model, truncation_mass)
        self.x0 = float(x0)
        self.h = float(h)
        self.values = values

    def lp_norm(self, p):
        pf = _pf(p)
        mags = np.abs(self.values)
        if math.isinf(pf):
            return _scalar_or_rows(mags.max(axis=-1))
        return _pwl_norm(self.model, mags[..., :-1], mags[..., 1:], self.h, pf)


class TorusPWL(ConvolutionResult):
    """Piecewise-linear function on the circle; knots at the cell edges."""

    def __init__(self, model, values, truncation_mass=0.0):
        super().__init__(model, truncation_mass)
        self.h = model.h
        self.values = values

    def lp_norm(self, p):
        pf = _pf(p)
        mags = np.abs(self.values)
        if math.isinf(pf):
            return _scalar_or_rows(mags.max(axis=-1))
        return _pwl_norm(self.model, mags, np.roll(mags, -1, axis=-1), self.h, pf)


class PlanePWL(ConvolutionResult):
    """Piecewise-bilinear function on an equispaced 2-d knot grid."""

    def __init__(self, model, x0, h, values, truncation_mass=0.0):
        super().__init__(model, truncation_mass)
        self.x0 = float(x0)
        self.h = float(h)
        self.values = values

    def lp_norm(self, p):
        pf = _pf(p)
        # one function at a time: the Gauss-node surface below is 64 times
        # the knot grid, so it is not built for a whole stack
        stack = self.values.reshape((-1,) + self.values.shape[-2:])
        norms = np.array([self._knot_norm(v, pf) for v in stack])
        return _scalar_or_rows(norms.reshape(self.values.shape[:-2]))

    def _knot_norm(self, values, pf):
        v = np.abs(values)
        peak = float(v.max())
        if math.isinf(pf) or peak == 0.0:
            return peak
        # the bilinear surface at the Gauss nodes, surf[i, j, t, s], built
        # one node row t at a time on (s, i, j) blocks so every multiply
        # runs a long inner loop; each term is formed as (v * ft) * fs and
        # added left to right, the order the einsum's reference fixes
        m, n, q = v.shape[0] - 1, v.shape[1] - 1, _T01.size
        surf = np.empty((m, n, q, q))
        block, term = np.empty((q, m, n)), np.empty((q, m, n))
        v00, v10, v01, v11 = v[:-1, :-1], v[1:, :-1], v[:-1, 1:], v[1:, 1:]
        s = _T01[:, None, None]
        for k, t in enumerate(_T01):
            np.multiply(v00 * (1 - t), 1 - s, out=block)
            block += np.multiply(v10 * t, 1 - s, out=term)
            block += np.multiply(v01 * (1 - t), s, out=term)
            block += np.multiply(v11 * t, s, out=term)
            surf[:, :, k, :] = block.transpose(1, 2, 0)
        surf /= peak
        surf **= pf
        cell = np.einsum("ijts,t,s->", surf, _W01, _W01)
        return peak * float(cell * self.h * self.h) ** (1.0 / pf)


def _node_buffer(model, shape):
    """An uninitialized float array of ``shape`` for a norm's values at the
    Gauss nodes, carved from one buffer kept on the model and grown as
    needed, so an ascent's thousands of norms do not each allocate, and
    fault in, a block of this size.  Two threads must not take norms on
    one model at once."""
    size = math.prod(shape)
    buf = getattr(model, "_node_values", None)
    if buf is None or buf.size < size:
        buf = model._node_values = np.empty(size)
    return buf[:size].reshape(shape)


def _pwl_norm(model, a, b, h, pf):
    """Lp norm of linear segments a -> b of common width h (8-node Gauss)
    along the last axis; a and b are the magnitudes at the segment ends."""
    peak = np.maximum(a.max(axis=-1, initial=0.0), b.max(axis=-1, initial=0.0))
    seg = np.multiply.outer(b - a, _T01, out=_node_buffer(model, a.shape + _T01.shape))
    seg += a[..., None]
    seg /= _divisor(peak, 2)
    seg **= pf
    return _scaled_root(peak, (seg @ _W01).sum(axis=-1) * h, pf)


# ---------------------------------------------------------------------------
# the twisted convolution


def _delta_exponent(ex: YoungExponents):
    """1/p1' as an exact Fraction; 0 exactly when p1 = 1."""
    return ex.p1.conjugate().inv


def twisted_convolve(
    phi1: GroupFunction, phi2: GroupFunction, ex: YoungExponents, enlarged: bool = True
) -> ConvolutionResult:
    """phi1 * (phi2 Delta^(1/p1')) evaluated per model kind.

    ``enlarged`` keeps the full support of the result (always the case for
    the exact abelian paths); setting it False on the affine grid evaluates
    only on the base window, the fast path used inside estimator loops.
    """
    if phi1.model is not phi2.model:
        raise GroupModelError("convolution inputs live on different models")
    de = float(_delta_exponent(ex))
    return _convolve(phi1.model, phi1.values, phi2.values, de, enlarged)


def _convolve(model, v1, v2, de, enlarged=True):
    return _KERNELS[type(model)].convolve(model, v1, v2, de, enlarged)


def _integer_line_convolve(model, v1, v2, de, enlarged):
    vals = _convolve_last(v1, v2)
    return CellConvolution(model, vals, np.ones(vals.shape[-1]))


def _real_line_convolve(model, v1, v2, de, enlarged):
    core = _convolve_last(v1, v2)
    knots = np.zeros(core.shape[:-1] + (core.shape[-1] + 2,))
    np.multiply(model.h, core, out=knots[..., 1:-1])
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


def _finite_kernel(model: FiniteGroup, v2, de):
    """kernel[i, k] = phi2(g_i^-1 g_k) Delta(g_i^-1 g_k)^de."""
    lookup = getattr(model, "_conv_index", None)
    if lookup is None:
        lookup = model._conv_index = model.table[model.inv, :]
    kernel = np.take(v2, lookup, axis=-1)  # C order, as for one function
    if de != 0.0:
        kernel = kernel * model.delta[lookup] ** de
    return kernel


def _vec_mat(v, m):
    """v @ m for row vectors v; both may carry leading stack axes."""
    return (v[..., None, :] @ m)[..., 0, :]


def _mat_vec(m, v):
    """m @ v for column vectors v; both may carry leading stack axes."""
    return (m @ v[..., None])[..., 0]


def _finite_convolve(model, v1, v2, de, enlarged=True):
    return CellConvolution(model, _vec_mat(v1, _finite_kernel(model, v2, de)), model.weight)


def _affine_kernel_cols(model: AffineModel, out_b):
    """Cell column of e^{-u_i} x_d for every carrier row i and every b offset
    x_d from the carrier to the output grid ``out_b``; a column outside the
    window is n_b, the zero that _summed_row_convolutions puts past the end
    of every phi2 row."""
    nb = model.n_b
    d = np.arange(nb + out_b.size - 1) - (nb - 1)
    x_d = (out_b[0] - model.b_centers[0]) + d * model.h_b
    args = np.exp(-model.u_centers)[:, None] * x_d[None, :]  # e^{-u_i} is Delta at row i
    col = np.floor((args + model.b_half_width) / model.h_b).astype(int)
    return np.where((col >= 0) & (col < nb), col, nb)


def _summed_row_convolutions(spec, v2, cols, n_rows, nfft, terms):
    """One inverse FFT of a sum of row-wise convolutions with phi2 rows.

    ``terms`` yields (r, rows, src, dst, dfac): phi2 row r, gathered at the
    columns ``cols[rows]`` and scaled by the float dfac, gives one kernel
    row per carrier row in ``rows``; the rfft of each kernel row at length
    nfft times the rows ``src`` of the spectrum ``spec`` is added into the
    rows ``dst`` of the sum.  A phi2 row that is all zero is skipped.  The
    inverse FFT is linear, so the products are summed in the frequency
    domain and the call ends in one irfft of its n_rows rows instead of one
    per phi2 row.  Kernels are built inside a zeroed nfft-wide buffer, so
    rfft pads nothing.  A row of a stack is summed on its own, so it gets
    the values it has alone.
    """
    nfreq = nfft // 2 + 1
    batch = np.broadcast_shapes(spec.shape[:-2], v2.shape[:-2])
    padded = np.zeros(batch + v2.shape[-2:-1] + (v2.shape[-1] + 1,))
    padded[..., :-1] = v2
    kern = np.zeros(batch + (cols.shape[0], nfft))
    prod = np.empty(batch + (cols.shape[0], nfreq), dtype=complex)
    acc = np.zeros(batch + (n_rows, nfreq), dtype=complex)
    for r, rows, src, dst, dfac in terms:
        if not np.any(v2[..., r, :]):
            continue
        k = rows.stop - rows.start
        row_kern = kern[..., :k, : cols.shape[1]]
        np.take(padded[..., r, :], cols[rows], axis=-1, out=row_kern, mode="clip")
        if dfac != 1.0:
            row_kern *= dfac
        part = np.fft.rfft(kern[..., :k, :], out=prod[..., :k, :])
        part *= spec[..., src, :]
        acc[..., dst, :] += part
    del padded, kern, prod  # the inverse's output takes their place
    return np.fft.irfft(acc, nfft)


def _affine_convolve(model: AffineModel, v1, v2, de, enlarged):
    h_u, h_b = model.h_u, model.h_b
    nu, nb = model.n_u, model.n_b
    u = model.u_centers
    ku = (nu - 1) // 2  # U / h_u
    if enlarged:
        out_u = (np.arange(2 * nu - 1) - 2 * ku) * h_u
        out_b = model.out_b_centers
        row_shift = 0
    else:
        out_u = u
        out_b = model.b_centers
        row_shift = ku  # row m = i + r - ku
    n_rows, n_out = out_u.size, out_b.size
    cols = _affine_kernel_cols(model, out_b)
    nfft, spec1 = _row_spectrum(v1 * model.weight, nb + cols.shape[1] - 1)
    batch = v1.shape[:-2]

    def terms():
        for r in range(nu):
            lo = max(0, row_shift - r)
            hi = min(nu, n_rows + row_shift - r)
            dfac = math.exp(-de * u[r]) if de != 0.0 else 1.0
            dst = slice(r + lo - row_shift, r + hi - row_shift)
            yield r, slice(lo, hi), slice(lo, hi), dst, dfac

    full = _summed_row_convolutions(spec1, v2, cols, n_rows, nfft, terms())
    psi = full[..., nb - 1 : nb - 1 + n_out]
    out_mass = (
        np.exp(-out_u)[:, None]
        * (2.0 * math.sinh(h_u / 2.0) * h_b)
        * np.ones(n_out)[None, :]
    )

    def mass(x):
        return x.reshape(batch + (-1,)).sum(axis=-1)

    in_mass = mass(model.weight * np.abs(v1)) * mass(model.weight * np.abs(v2) * model.delta**de)
    trunc = np.maximum(0.0, in_mass - mass(out_mass * np.abs(psi)))
    return AffineConvolution(model, psi, out_mass, out_u, out_b, trunc)


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


def young_ratio(
    phi1: GroupFunction, phi2: GroupFunction, ex: YoungExponents, enlarged: bool = True
) -> float:
    """||phi1 * (phi2 Delta^(1/p1'))||_p / (||phi1||_p1 ||phi2||_p2).

    Scale invariant in each argument.  On finite groups and the abelian
    grids, where the model's convolution is the group's own convolution of
    the step functions, every returned value is a lower bound for the
    optimal constant of the represented group, up to the truncation
    diagnostics of the model.  The affine grid sums its u rows as lattice
    points and snaps the dilated b axis, so an affine value is a grid
    diagnostic and can exceed the group's constant.  Inputs are normalized
    before convolving so large values cannot overflow.
    """
    return _normalized_convolve(phi1, phi2, ex, enlarged).lp_norm(ex.p)


def _normalized_convolve(phi1, phi2, ex, enlarged=True) -> ConvolutionResult:
    """The convolution whose p-norm young_ratio returns."""
    n1 = lp_norm(phi1, ex.p1)
    n2 = lp_norm(phi2, ex.p2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("young_ratio needs nonzero functions")
    de = float(_delta_exponent(ex))
    return _convolve(phi1.model, phi1.values / n1, phi2.values / n2, de, enlarged)


# ---------------------------------------------------------------------------
# the convolution transform identity


def transform_identity_check(
    phi1: GroupFunction, phi2: GroupFunction, ex: YoungExponents
) -> float:
    """Max relative residual of the reversal identity

        phi1 * (phi2 Delta^(1/p1'))(g')
          = [(phi2 o inv)/Delta^(1/p2)] * [(phi1 o inv)/Delta^(1/p)] (g'^-1)
            * Delta(g')^(-1/p)

    evaluated at every carrier point.  Zero up to float roundoff wherever
    carrier inversion is exact (finite groups, symmetric abelian grids);
    O(h) on the affine grid where inversion bends the b axis off the grid.
    """
    model = phi1.model
    if phi2.model is not model:
        raise GroupModelError("functions live on different models")
    return _KERNELS[type(model)].transform_residual(model, phi1.values, phi2.values, ex)


def _finite_residual(model, v1, v2, ex):
    de = float(_delta_exponent(ex))
    inv_p = float(ex.p.inv)
    inv_p2 = float(ex.p2.inv)
    lhs = _finite_convolve(model, v1, v2, de).values
    a = model.invert(v2) / model.delta**inv_p2
    b = model.invert(v1) / model.delta**inv_p
    conv0 = _finite_convolve(model, a, b, 0.0).values
    rhs = model.invert(conv0) * model.delta ** (-inv_p)
    return _max_rel(lhs, rhs)


def _grid_residual(model, v1, v2, ex):
    """Line, integer line and plane: Delta = 1 and inversion reverses every
    axis of the carrier and of the convolution's support."""
    conv = np.convolve if v1.ndim == 1 else fftconvolve
    return _max_rel(conv(v1, v2), np.flip(conv(np.flip(v2), np.flip(v1))))


def _torus_residual(model, v1, v2, ex):
    lhs = _torus_convolve(model, v1, v2, 0.0, True).values
    rev = _torus_convolve(model, v2[::-1], v1[::-1], 0.0, True).values
    # circle inversion maps edge knot k to edge knot -k mod n
    return _max_rel(lhs, np.roll(rev[::-1], 1))


def _max_rel(lhs, rhs):
    scale = float(np.abs(lhs).max())
    if scale == 0.0:
        return float(np.abs(rhs).max())
    return float(np.abs(lhs - rhs).max()) / scale


def _interp_rows(values, rows, b_positions, b0, h_b):
    """Linear interpolation along b at exact integer rows; 0 outside."""
    n_b = values.shape[1]
    frac = (b_positions - b0) / h_b
    lo = np.floor(frac).astype(int)
    t = frac - lo
    lo_ok = (lo >= 0) & (lo < n_b)
    hi_ok = (lo + 1 >= 0) & (lo + 1 < n_b)
    row_idx = np.broadcast_to(rows, frac.shape)
    left = np.where(lo_ok, values[row_idx, np.clip(lo, 0, n_b - 1)], 0.0)
    right = np.where(hi_ok, values[row_idx, np.clip(lo + 1, 0, n_b - 1)], 0.0)
    return left * (1.0 - t) + right * t


def _affine_residual(model, v1, v2, ex):
    """Both sides of the reversal identity on the carrier; the u coordinate
    of every inverse lands exactly on the lattice and the b coordinate is
    read by linear interpolation (the identity concerns the underlying
    smooth functions, so the checker avoids first-order snapping noise)."""
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
    conv0 = _affine_convolve(model, a, b, 0.0, enlarged=True)
    ku = (model.n_u - 1) // 2
    rows = 3 * ku - np.arange(model.n_u)  # enlarged row of -u_i
    rhs = _interp_rows(
        conv0.values, rows[:, None], binv, conv0.b_centers[0], model.h_b
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


def centered_integrals(values, h, axis=-1):
    """Exact integrals of a PWL function over [knot - h/2, knot + h/2],
    with knots along ``axis``."""
    v = np.moveaxis(np.asarray(values, dtype=float), axis, -1)
    padded = np.zeros(v.shape[:-1] + (v.shape[-1] + 2,))
    padded[..., 1:-1] = v
    out = (h / 8.0) * (padded[..., :-2] + 6.0 * padded[..., 1:-1] + padded[..., 2:])
    return np.moveaxis(out, -1, axis)


def _centered_integrals_cyclic(values, h):
    return (h / 8.0) * (
        np.roll(values, 1, axis=-1) + 6.0 * values + np.roll(values, -1, axis=-1)
    )


def _centered_integrals_2d(values, h):
    return centered_integrals(centered_integrals(values, h, axis=-2), h, axis=-1)


def ascent_direction_phi1(model, phi2_vals, w, de):
    """A* w on the carrier; the proposal direction for the first argument."""
    return _KERNELS[type(model)].adjoint_phi1(model, phi2_vals, w, de)


def ascent_direction_phi2(model, phi1_vals, w, de):
    """B* w on the carrier; the proposal direction for the second argument."""
    return _KERNELS[type(model)].adjoint_phi2(model, phi1_vals, w, de)


def _finite_ascent_phi1(model, phi2_vals, w, de):
    return _mat_vec(_finite_kernel(model, phi2_vals, de), w.values)


def _finite_ascent_phi2(model, phi1_vals, w, de):
    out = _vec_mat(phi1_vals, np.take(w.values, model.table, axis=-1))
    if de != 0.0:
        out = out * model.delta**de
    return out


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
    a = np.roll(_centered_integrals_cyclic(w.values, model.h), -1, axis=-1)
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
    per-r batches; along b it is a correlation against the dilated,
    step-sampled phi2 row.
    """
    nu, nb = model.n_u, model.n_b
    u = model.u_centers
    ku = (nu - 1) // 2
    base = int(round(w.u_points[0] / model.h_u))
    n_out = w.b_centers.size
    cols = _affine_kernel_cols(model, w.b_centers)
    nfft, spec_w = _row_spectrum(w.values * w.weight, n_out + cols.shape[1] - 1)
    n_rows = w.values.shape[-2]

    def terms():
        for r in range(nu):
            shift = r - base - 2 * ku  # dual row m = i + shift
            lo = max(0, -shift)
            hi = min(nu, n_rows - shift)
            if lo >= hi:
                continue
            dfac = math.exp(-de * u[r]) if de != 0.0 else 1.0
            yield r, slice(lo, hi), slice(lo + shift, hi + shift), slice(lo, hi), dfac

    full = _summed_row_convolutions(spec_w, v2, cols[:, ::-1], nu, nfft, terms())
    return full[..., n_out - 1 : n_out - 1 + nb]


def _affine_ascent_phi2(model: AffineModel, v1, w: AffineConvolution, de):
    """Batched evaluation of B* w on the affine carrier.

    For output row c the dual row is m = i + c - 2 ku - base for every
    integration row i; along b the pairing is a correlation of the dual
    row with the phi1 row, sampled at the dilated positions e^{u_i} b_c.
    The samples come after each inverse FFT, so the rows cannot be summed
    in the frequency domain as in A*; the inverse runs into one buffer
    kept for the call instead.
    """
    h_b = model.h_b
    nu, nb = model.n_u, model.n_b
    u = model.u_centers
    ku = (nu - 1) // 2
    base = int(round(w.u_points[0] / model.h_u))
    n_w = w.b_centers.size
    n_rows = w.values.shape[-2]
    v1w = v1 * model.weight
    full = n_w + nb - 1
    nfft, spec_w = _row_spectrum(w.values, full)
    spec1 = np.fft.rfft(v1w[..., ::-1], nfft)
    # flat index of e^{u_i} b_c inside the correlation buffer, row i of
    # which holds the inverse for carrier row i; samples outside the
    # correlation read the buffer's last column, which stays 0
    targets = np.exp(u)[:, None] * model.b_centers[None, :]
    rel = (targets + (model.b_centers[0] - w.b_centers[0])) / h_b + 0.5
    gather = np.floor(rel).astype(int) + (nb - 1)
    gather = np.where((gather >= 0) & (gather < full), gather, nfft)
    gather += (nfft + 1) * np.arange(nu)[:, None]
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


class _KernelTable(dict):
    def __missing__(self, cls):
        raise GroupModelError(f"unsupported model kind {cls.kind}")


_KERNELS = _KernelTable({
    FiniteGroup: _Kernels(
        _finite_convolve, _finite_ascent_phi1, _finite_ascent_phi2, _finite_residual
    ),
    IntegerLineModel: _Kernels(
        _integer_line_convolve, _integer_line_correlate, _integer_line_correlate,
        _grid_residual,
    ),
    RealLineModel: _Kernels(
        _real_line_convolve, _real_line_correlate, _real_line_correlate, _grid_residual
    ),
    TorusModel: _Kernels(
        _torus_convolve, _torus_correlate, _torus_correlate, _torus_residual
    ),
    PlaneModel: _Kernels(
        _plane_convolve, _plane_correlate, _plane_correlate, _grid_residual
    ),
    AffineModel: _Kernels(
        _affine_convolve, _affine_ascent_phi1, _affine_ascent_phi2, _affine_residual
    ),
})

"""Per-layer tracing of youngconv from outside the package.

A ``Tracer`` replaces selected functions of the youngconv modules with
wrappers at run time.  Each call becomes a span (name, start, end, parent,
model kind) kept in memory in flat arrays; all spans of one traced job share
the tracer's run id.  Nothing under ``src/`` is instrumented.

A function is patched in every youngconv module that binds the same object
under the same name.  That matters because modules import each other's
functions by name: ``estimator`` binds ``_convolve``,
``ascent_direction_phi1/2``, ``lp_norm`` and ``young_ratio`` itself, so
patching ``youngconv.convolution`` alone would miss the estimator's calls.
A target that no longer exists is skipped and listed in ``absent``, so a
change that removes, say, ``fftconvolve`` keeps the traced run working.

Self time is a span's duration minus the time covered by its direct child
spans; spans nest strictly because the traced job runs on one thread.
"""

from __future__ import annotations

import functools
import sys
import time
import uuid
from array import array

import numpy as np

# (home module, attribute, span name).  The layers are the module names.
FUNCTION_TARGETS = (
    ("convolution", "_convolve", "convolution.convolve"),
    ("convolution", "fftconvolve", "convolution.fft"),
    ("convolution", "ascent_direction_phi1", "convolution.adjoint"),
    ("convolution", "ascent_direction_phi2", "convolution.adjoint"),
    ("convolution", "young_ratio", "convolution.young_ratio"),
    ("convolution", "transform_identity_check", "verify.transform"),
    ("estimator", "estimate", "estimator.estimate"),
    ("estimator", "monotonicity_audit", "estimator.audit"),
    ("estimator", "_run_restart", "estimator.restart"),
    ("estimator", "_normalize", "estimator.normalize"),
    ("estimator", "_loop_ratio", "estimator.loop_ratio"),
    ("chain", "build_coset_functionals", "chain.functionals"),
    ("chain", "identity_checks", "chain.identity"),
    ("chain", "chain_check", "chain.check"),
    ("quotient", "weil_decompose_check", "quotient.weil"),
    ("quotient", "left_invariance_check", "quotient.invariance"),
    ("verify", "run_battery", "verify.battery"),
    ("verify", "proof_chain_table", "verify.chain_table"),
    ("groups", "make_finite_group", "groups.build"),
    ("groups", "cyclic_group", "groups.build"),
    ("groups", "finite_product", "groups.build"),
    ("groups", "affine_prime_field", "groups.build"),
    ("groups", "make_real_line", "groups.build"),
    ("groups", "make_integer_line", "groups.build"),
    ("groups", "make_torus", "groups.build"),
    ("groups", "make_plane", "groups.build"),
    ("groups", "make_affine_group", "groups.build"),
)

# the Lp norm of a convolution result is a method of each result class
NORM_BASE = ("convolution", "ConvolutionResult", "lp_norm", "convolution.norm")

# model kinds whose convolution metrics are also reported on their own
KINDS = ("affine_grid", "product", "real_line_steps")

CONVOLUTION_METRICS = (
    "calls", "self_s", "fft_calls", "fft_s", "adjoint_calls", "adjoint_s",
    "norm_calls", "norm_s", "certify_s",
)
ESTIMATOR_METRICS = (
    "restarts", "iterations", "ls_tries", "ls_tries_per_iter", "normalize_s",
    "self_s", "restart_s_max", "restart_s_sum",
)


def _kind_of(args):
    """Model kind of a call whose first argument is a model or carries one."""
    if not args:
        return None
    model = getattr(args[0], "model", args[0])
    kind = getattr(model, "kind", None)
    return kind if isinstance(kind, str) else None


class Tracer:
    """Span recorder for one traced job; ``install`` patches, ``uninstall``
    restores every patched binding."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.names = []
        self.kinds = []
        self._name_ids = {}
        self._kind_ids = {}
        self.name = array("i")
        self.kind = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.iterations = 0
        self.absent = []
        self._stack = []
        self._patches = []

    # -- recording ---------------------------------------------------------

    def _intern(self, table, ids, key):
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def _wrap(self, fn, span_name, on_return=None):
        name_id = self._intern(self.names, self._name_ids, span_name)
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            kind = _kind_of(args)
            if kind is not None:
                kind_id = self._intern(self.kinds, self._kind_ids, kind)
            else:
                kind_id = self.kind[parent] if parent >= 0 else -1
            span = len(self.start)
            self.name.append(name_id)
            self.kind.append(kind_id)
            self.parent.append(parent)
            self.end.append(0.0)
            stack.append(span)
            self.start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[span] = clock()
                stack.pop()
            if on_return is not None:
                on_return(out)
            return out

        return traced

    def _count_iterations(self, restart_result):
        self.iterations += int(restart_result.iterations)

    # -- patching ----------------------------------------------------------

    def install(self):
        """Patch the targets in every loaded youngconv module."""
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "youngconv" or n.startswith("youngconv."))
        ]
        for home, attr, span_name in FUNCTION_TARGETS:
            module = sys.modules.get(f"youngconv.{home}")
            original = getattr(module, attr, None) if module else None
            if not callable(original):
                self.absent.append(f"{home}.{attr}")
                continue
            on_return = self._count_iterations if attr == "_run_restart" else None
            wrapped = self._wrap(original, span_name, on_return)
            for m in modules:
                if m.__dict__.get(attr) is original:
                    self._patches.append((m, attr, original))
                    setattr(m, attr, wrapped)
        home, cls_name, method, span_name = NORM_BASE
        base = getattr(sys.modules.get(f"youngconv.{home}"), cls_name, None)
        if not isinstance(base, type):
            self.absent.append(f"{home}.{cls_name}.{method}")
            return
        for cls in [base, *_subclasses(base)]:
            original = cls.__dict__.get(method)
            if callable(original):
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(original, span_name))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def arrays(self):
        """Spans as numpy columns: name id, kind id, parent, start, end."""
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.kind, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int64),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def save(self, path):
        """Write every span, with the name and kind tables, to an .npz file."""
        name, kind, parent, start, end = self.arrays()
        np.savez_compressed(
            path,
            run_id=np.array(self.run_id),
            names=np.array(self.names, dtype=str),
            kinds=np.array(self.kinds, dtype=str),
            name=name,
            kind=kind,
            parent=parent,
            start=start,
            end=end,
        )

    def layer_metrics(self):
        """Counts and self times per layer, from the recorded spans."""
        name, kind, parent, start, end = self.arrays()
        dur = end - start
        covered = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(covered, parent[nested], dur[nested])
        self_time = dur - covered

        def is_(span_name):
            return name == self._name_ids.get(span_name, -1)

        def parent_is(span_name):
            mask = np.zeros(name.size, dtype=bool)
            mask[nested] = is_(span_name)[parent[nested]]
            return mask

        certify = (is_("convolution.young_ratio") & parent_is("estimator.restart")) | (
            is_("convolution.convolve") & parent_is("estimator.estimate")
        )
        out = {}
        for label in (None, *KINDS):
            if label is None:
                sel, prefix = np.ones(name.size, dtype=bool), "convolution."
            else:
                sel = kind == self._kind_ids.get(label, -2)
                prefix = f"convolution.{label}."
            for metric, span_name in (
                ("calls", "convolution.convolve"),
                ("fft_calls", "convolution.fft"),
                ("adjoint_calls", "convolution.adjoint"),
                ("norm_calls", "convolution.norm"),
            ):
                out[prefix + metric] = int(np.count_nonzero(sel & is_(span_name)))
            out[prefix + "self_s"] = float(self_time[sel & is_("convolution.convolve")].sum())
            out[prefix + "fft_s"] = float(self_time[sel & is_("convolution.fft")].sum())
            out[prefix + "adjoint_s"] = float(self_time[sel & is_("convolution.adjoint")].sum())
            out[prefix + "norm_s"] = float(self_time[sel & is_("convolution.norm")].sum())
            out[prefix + "certify_s"] = float(dur[sel & certify].sum())

        restarts = is_("estimator.restart")
        n_restarts = int(np.count_nonzero(restarts))
        # every restart evaluates its random start once before the ascent;
        # every later _loop_ratio call is one line-search try
        ls_tries = int(np.count_nonzero(is_("estimator.loop_ratio"))) - n_restarts
        loop = (
            is_("estimator.estimate") | is_("estimator.audit") | restarts
            | is_("estimator.loop_ratio")
        )
        out.update({
            "estimator.restarts": n_restarts,
            "estimator.iterations": self.iterations,
            "estimator.ls_tries": ls_tries,
            "estimator.ls_tries_per_iter": ls_tries / self.iterations if self.iterations else 0.0,
            "estimator.normalize_s": float(self_time[is_("estimator.normalize")].sum()),
            "estimator.self_s": float(self_time[loop].sum()),
            "estimator.restart_s_max": float(dur[restarts].max(initial=0.0)),
            "estimator.restart_s_sum": float(dur[restarts].sum()),
            "chain.functionals_calls": int(np.count_nonzero(is_("chain.functionals"))),
            "chain.functionals_s": float(self_time[is_("chain.functionals")].sum()),
            "chain.identity_s": float(self_time[is_("chain.identity")].sum()),
            "chain.check_s": float(self_time[is_("chain.check")].sum()),
            "quotient.weil_calls": int(np.count_nonzero(is_("quotient.weil"))),
            "quotient.weil_s": float(self_time[is_("quotient.weil")].sum()),
            "quotient.invariance_s": float(self_time[is_("quotient.invariance")].sum()),
            "verify.transform_s": float(self_time[is_("verify.transform")].sum()),
            "verify.self_s": float(
                self_time[is_("verify.battery") | is_("verify.chain_table")].sum()
            ),
            "groups.build_s": float(self_time[is_("groups.build")].sum()),
        })
        return out


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out

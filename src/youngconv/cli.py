"""Command line interface.

Subcommands: ``exact`` (closed-form constants and catalog bounds),
``estimate`` (alternating-ascent lower bounds on a chosen model),
``verify`` (the property battery), ``catalog`` (consistency report), and
``report`` (re-render a saved estimate report).

Exit codes: 0 success; 2 invalid exponents or options; 3 unknown catalog
name; 4 bad input (a selector that is unknown, has unknown, repeated or
surplus parameters, or cannot be built; an unreadable or malformed
``--catalog``, ``--input`` or ``Table:`` file; an unwritable ``--out`` or
``--csv``); 5 verification failure.  Every numeric that text mode prints
is also present in the JSON output, and identical command lines with
identical seeds produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from .catalog import (
    catalog_consistency_check,
    load_catalog,
    max_compact_bound,
    nielsen_exact,
)
from .constants import beckner_Y_Rn, boundary_value, neg_log_constant
from .estimator import EstimatorConfig, estimate
from .exponents import ExponentError, young_p
from .groups import (
    GroupModelError,
    affine_prime_field,
    cyclic_group,
    load_group_table,
    make_affine_group,
    make_integer_line,
    make_plane,
    make_real_line,
    make_torus,
)
from .verify import proof_chain_table, run_battery

EXIT_OK = 0
EXIT_BAD_EXPONENTS = 2
EXIT_UNKNOWN_GROUP = 3
EXIT_BAD_MODEL = 4
EXIT_VERIFY_FAILED = 5


def _int_at_least(low):
    """argparse type for an integer option that must be at least ``low``."""

    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def tolerance(text):
    """argparse type for a finite, nonnegative float."""
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {text}")
    return value


def _emit(payload: dict, args, text_lines):
    """Write the canonical JSON and/or the text rendering of one result."""
    blob = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(blob + "\n")
    if args.format == "json":
        print(blob)
    else:
        for line in text_lines:
            print(line)


def _write_csv(path, rows):
    """Write dict rows as an RFC 4180 table headed by the first row's keys."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def cmd_exact(args) -> int:
    ex = young_p(args.p1, args.p2)
    by_name = {d.name: d for d in load_catalog(args.catalog)}
    y_r = beckner_Y_Rn(ex.p1, ex.p2, 1)
    payload = {
        "p1": str(ex.p1),
        "p2": str(ex.p2),
        "p": str(ex.p),
        "boundary": ex.boundary,
        "boundary_value": boundary_value(ex),
        "beckner_Y_R1": y_r,
        "neg_log_Y_R1": neg_log_constant(y_r),
    }
    lines = [
        f"exponents: p1={ex.p1} p2={ex.p2} p={ex.p}"
        + (" (boundary: optimal constant 1 on every group)" if ex.boundary else ""),
        f"Y(p1,p2;R) = {y_r:.10f}   -ln = {payload['neg_log_Y_R1']:.10f}",
    ]
    if args.group:
        desc = by_name.get(args.group)
        if desc is None:
            print(f"error: unknown catalog name {args.group!r}", file=sys.stderr)
            return EXIT_UNKNOWN_GROUP
        info = {"name": desc.name, "dim": desc.dim, "r": desc.r}
        if desc.flag("in_class_A"):
            bound = max_compact_bound(desc, ex)
            info["max_compact_bound"] = bound
            info["neg_log_bound"] = neg_log_constant(bound)
            lines.append(
                f"{desc.name}: dim={desc.dim} r={desc.r} "
                f"bound Y <= Y(R)^{desc.dim - desc.r} = {bound:.10f}"
            )
        exact = nielsen_exact(desc, ex)
        info["exact_value"] = exact
        if exact is not None:
            info["neg_log_exact"] = neg_log_constant(exact)
            lines.append(f"{desc.name}: exact value {exact:.10f}")
        payload["group"] = info
    _emit(payload, args, lines)
    return EXIT_OK


# Group selectors NAME:PARAMS, NAME in any case.  Each entry gives the
# builder, the type and names of its parameters in order, their defaults,
# and aliases: an alias sets each listed parameter that is not given itself.
SELECTORS = {
    "Zmod": (cyclic_group, int, ("n",), {}, {}),
    "AffF": (affine_prime_field, int, ("q",), {}, {}),
    "Torus": (make_torus, int, ("n",), {}, {}),
    "Zwindow": (make_integer_line, int, ("L",), {}, {}),
    "Rline": (make_real_line, float, ("h", "L"), {}, {}),
    "Plane": (make_plane, float, ("h", "L"), {}, {}),
    "R2": (make_plane, float, ("h", "L"), {}, {}),
    "Affine": (make_affine_group, float, ("hu", "U", "hb", "B"),
               {"hu": 0.05, "hb": 0.05}, {"h": ("hu", "hb")}),
    "Table": (load_group_table, str, ("path",), {}, {}),
}


def _build_model(selector: str):
    """Parse a group selector like Rline:h=0.05,L=8 into a model."""
    name, colon, text = selector.partition(":")
    canonical = {key.lower(): key for key in SELECTORS}.get(name.lower())
    if not colon or canonical is None:
        raise GroupModelError(f"expected NAME:PARAMS, NAME one of {', '.join(SELECTORS)}")
    build, kind, keys, defaults, aliases = SELECTORS[canonical]
    given = {}
    bare = iter(keys)
    for token in filter(None, text.split(",")):
        key, eq, value = token.partition("=")
        key, value = (key.strip(), value) if eq else (next(bare, None), token)
        if key in given or key not in (*keys, *aliases):
            raise GroupModelError(
                f"{token.strip()!r}: {canonical} takes each of "
                f"{', '.join((*keys, *aliases))} at most once"
            )
        given[key] = value.strip()
    for alias, targets in aliases.items():
        if alias in given:
            given.update({t: given[alias] for t in targets if t not in given})
    missing = [key for key in keys if key not in given and key not in defaults]
    if missing:
        raise GroupModelError(f"{canonical} needs {', '.join(missing)}")
    return build(*(kind(given[key]) if key in given else defaults[key] for key in keys))


def _boundary_line(payload):
    """The text line of an estimate payload for a boundary triple."""
    return f"{payload['group']}: boundary triple, optimal constant 1"


def cmd_estimate(args) -> int:
    ex = young_p(args.p1, args.p2)
    model = _build_model(args.group)
    if ex.boundary:
        payload = {
            "group": model.name,
            "p1": str(ex.p1),
            "p2": str(ex.p2),
            "p": str(ex.p),
            "boundary_value": 1.0,
        }
        _emit(payload, args, [_boundary_line(payload)])
        if args.csv:
            _write_csv(args.csv, [payload])
        return EXIT_OK
    cfg = EstimatorConfig(
        restarts=args.restarts, max_iters=args.iters, tol=args.tol, seed=args.seed
    )
    report = estimate(model, ex, cfg)
    payload = report.to_json_dict()
    best_ref = min(v for _, v in report.upper_bound_refs)
    lines = [
        f"{model.name}: lower bound {report.lower_bound:.6f} "
        f"(best upper reference {best_ref:.6f})",
        f"restarts={report.restarts} best_restart={report.best_restart} "
        f"iterations={report.iterations} converged={report.converged}",
        f"truncation_mass={report.truncation_mass:.3e}",
    ]
    if not report.converged:
        lines.append("warning: at least one restart hit the iteration cap")
    _emit(payload, args, lines)
    if args.csv:
        _write_csv(args.csv, report.restart_rows())
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.proof_chain:
        key = "proof_chain"
        rows, ok = proof_chain_table(seeds=args.seeds, corrupt=args.corrupt)
        lines = [
            f"{r['pair']:24s} ({r['p1']},{r['p2']}) {r['step']:28s} "
            f"{r['worst_residual']:.3e} {'ok' if r['passed'] else 'FAIL'}"
            for r in rows
        ]
        failed = [f"{r['step']} on {r['pair']}" for r in rows if not r["passed"]]
    else:
        key = "battery"
        items, ok = run_battery(
            seeds=args.seeds,
            proof_seeds=max(2, args.seeds),
            corrupt=args.corrupt,
            with_estimates=not args.no_estimates,
        )
        rows = [i.as_dict() for i in items]
        lines = [str(i) for i in items]
        failed = [i.name for i in items if not i.passed]
    _emit({key: rows, "passed": ok}, args, lines)
    if args.csv:
        _write_csv(args.csv, rows)
    if not ok:
        print(f"verify failed at: {failed[0]}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_catalog(args) -> int:
    ex = young_p(args.p1, args.p2)
    catalog = load_catalog(args.catalog)
    report = catalog_consistency_check(catalog, ex)
    entries = []
    lines = []
    for desc in catalog:
        row = {
            "name": desc.name,
            "dim": desc.dim,
            "r": desc.r,
            "exact_value_rule": desc.exact_value_rule,
            "links": [list(l) for l in desc.links],
        }
        if desc.flag("in_class_A"):
            row["max_compact_bound"] = max_compact_bound(desc, ex)
        row["exact_value"] = nielsen_exact(desc, ex)
        entries.append(row)
        bound = row.get("max_compact_bound")
        lines.append(
            f"{desc.name:14s} dim={desc.dim} r={desc.r} "
            + (f"bound={bound:.6f} " if bound is not None else "bound=n/a    ")
            + (
                f"exact={row['exact_value']:.6f}"
                if row["exact_value"] is not None
                else "exact=n/a"
            )
        )
    payload = {
        "p1": str(ex.p1),
        "p2": str(ex.p2),
        "entries": entries,
        "violations": [str(v) for v in report.violations],
        "consistent": report.ok,
    }
    lines.append(
        "catalog consistent"
        if report.ok
        else "violations: " + "; ".join(str(v) for v in report.violations)
    )
    _emit(payload, args, lines)
    if not report.ok:
        print(f"catalog inconsistent at: {report.violations[0]}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_VERIFY_FAILED


# the payloads estimate --out writes: an estimate (the fields report reads,
# in the order it reads them, with their JSON types) or a boundary triple's
ESTIMATE_FIELDS = {
    "group": "string",
    "exponents": {"p1": "string", "p2": "string", "p": "string"},
    "lower_bound": "number",
    "restarts": "integer",
    "best_restart": "integer",
    "converged": "boolean",
    "truncation_mass": "number",
    "upper_bound_refs": [{"source": "string", "value": "number"}],
}
JSON_TYPES = {"string": str, "integer": int, "number": (int, float), "boolean": bool}


def _has_type(value, want):
    """Whether a JSON value has the type ``want``: a name in JSON_TYPES (a
    boolean is no number), [item type] or {key: type} with every key."""
    if isinstance(want, list):
        return isinstance(value, list) and all(_has_type(v, want[0]) for v in value)
    if isinstance(want, dict):
        return isinstance(value, dict) and all(k in value and _has_type(value[k], t) for k, t in want.items())
    return isinstance(value, JSON_TYPES[want]) and (want == "boolean" or not isinstance(value, bool))


BOUNDARY_FIELDS = {"group", "p1", "p2", "p", "boundary_value"}
PAYLOADS = (
    "report reads what estimate --out writes: an estimate payload, or a "
    f"boundary payload {{{', '.join(sorted(BOUNDARY_FIELDS))}}}"
)


def cmd_report(args) -> int:
    with open(args.input, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"the top level is not a JSON object; {PAYLOADS}")
    if set(payload) == BOUNDARY_FIELDS:
        lines, traces = [_boundary_line(payload)], []
    else:
        missing = next((key for key in ESTIMATE_FIELDS if key not in payload), None)
        if missing is not None:
            raise ValueError(f"no estimate field {missing!r}; {PAYLOADS}")
        for key, want in {**ESTIMATE_FIELDS, "ratio_trace": [["number"]]}.items():
            if key in payload and not _has_type(payload[key], want):
                raise ValueError(f"estimate field {key!r} is not of type {json.dumps(want)}")
        lines = [
            f"group: {payload['group']}",
            f"exponents: p1={payload['exponents']['p1']} p2={payload['exponents']['p2']} "
            f"p={payload['exponents']['p']}",
            f"lower bound: {payload['lower_bound']:.6f}",
            f"restarts: {payload['restarts']}  best: {payload['best_restart']}  "
            f"converged: {payload['converged']}",
            f"truncation mass: {payload['truncation_mass']:.3e}",
            "upper references: "
            + ", ".join(
                f"{r['source']}={r['value']:.6f}" for r in payload["upper_bound_refs"]
            ),
        ]
        traces = payload.get("ratio_trace", [])
    rows = [[idx, trace[-1] if trace else math.nan] for idx, trace in enumerate(traces)]
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["restart", "final_ratio"])
        writer.writerows(rows)
    elif args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        for line in lines:
            print(line)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="youngconv",
        description="Optimal constants of Young's convolution inequality on "
        "discretized locally compact groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["text", "json"], default="text")
        p.add_argument("--out", help="write the canonical JSON payload here")

    p_exact = sub.add_parser("exact", help="closed-form constants and bounds")
    p_exact.add_argument("--p1", required=True)
    p_exact.add_argument("--p2", required=True)
    p_exact.add_argument("--group", help="catalog name (e.g. R, affine_R, sl2_R)")
    p_exact.add_argument("--catalog", help="catalog JSON file (default: shipped)")
    add_common(p_exact)
    p_exact.set_defaults(func=cmd_exact, source="catalog")

    p_est = sub.add_parser("estimate", help="lower-bound estimation on a model")
    forms = " | ".join(
        f"{name}:" + ",".join(f"{k}={defaults[k]}" if k in defaults else k for k in keys)
        + "".join(f" ({alias}= sets {'+'.join(to)})" for alias, to in aliases.items())
        for name, (_, _, keys, defaults, aliases) in SELECTORS.items()
    )
    p_est.add_argument("--group", required=True, help="NAME:PARAMS, PARAMS as "
                       f"key=value or as bare values in order: {forms}")
    p_est.add_argument("--p1", required=True)
    p_est.add_argument("--p2", required=True)
    p_est.add_argument("--restarts", type=_int_at_least(1), default=EstimatorConfig.restarts)
    p_est.add_argument("--iters", type=_int_at_least(0), default=EstimatorConfig.max_iters)
    p_est.add_argument("--tol", type=tolerance, default=EstimatorConfig.tol)
    p_est.add_argument("--seed", type=_int_at_least(0), default=EstimatorConfig.seed)
    p_est.add_argument("--csv", help="write one row per restart here")
    add_common(p_est)
    p_est.set_defaults(func=cmd_estimate, source="group")

    p_ver = sub.add_parser("verify", help="run the property battery")
    p_ver.add_argument("--seeds", type=_int_at_least(1), default=5, metavar="N",
                       help="the size of the random draws: the battery checks "
                       "20 N Weil functions per finite pair, 10 N classical-Young "
                       "pairs and max(2, N) proof-chain instances per pair and "
                       "triple; --proof-chain runs N instances per pair and triple")
    p_ver.add_argument("--proof-chain", action="store_true",
                       help="emit the per-step proof chain residual table only")
    p_ver.add_argument("--corrupt", choices=["delta"], help="negative control")
    p_ver.add_argument("--no-estimates", action="store_true",
                       help="skip the (slower) monotonicity audit")
    p_ver.add_argument("--csv", help="write the battery or proof-chain table here")
    add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_cat = sub.add_parser("catalog", help="catalog entries and consistency")
    p_cat.add_argument("--catalog", help="catalog JSON file (default: shipped)")
    p_cat.add_argument("--p1", default="4/3")
    p_cat.add_argument("--p2", default="4/3")
    add_common(p_cat)
    p_cat.set_defaults(func=cmd_catalog, source="catalog")

    p_rep = sub.add_parser("report", help="re-render a saved estimate report")
    p_rep.add_argument("--input", required=True)
    p_rep.add_argument("--format", choices=["text", "json", "csv"], default="text",
                       help="csv final_ratio: each restart's last accepted loop ratio "
                       "in ratio_trace, not estimate --csv's certified ratio")
    p_rep.set_defaults(func=cmd_report, source="input")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ExponentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_EXPONENTS
    except (ValueError, LookupError, TypeError, OSError, MemoryError, OverflowError) as exc:
        # bad input (GroupModelError and the catalog loader's refusals are
        # ValueErrors), named by the command's input option; an OSError on
        # another file (--out, --csv, a Table: path) names that file itself
        source = getattr(args, "source", None)
        value = vars(args).get(source)
        if isinstance(exc, OSError):
            own = exc.filename is not None and exc.filename == value
            exc, value = (exc.strerror, value) if own else (exc, None)
        where = f"--{source} {value!r}: " if value else ""
        print(f"error: {where}{exc}", file=sys.stderr)
        return EXIT_BAD_MODEL


if __name__ == "__main__":
    sys.exit(main())

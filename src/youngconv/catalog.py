"""Catalog of connected Lie groups with known dimension data and bounds.

Each entry records dim G, the dimension r(G) of the maximal compact
subgroups, structural flags, and optional decomposition links (H, Q) used
only for additivity checks dim G = dim H + dim Q and r(G) = r(H) + r(Q).
The r values are curated data, not computed from Lie theory.

For a group in class A (connected, center of the semisimple part finite)
the optimal convolution constant obeys

    Y(p1, p2; G) <= Y(p1, p2; R)^(dim G - r(G)),

which is an equality for simply connected solvable and for connected
nilpotent groups (Nielsen) and for compact groups (where both sides are 1).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

from .constants import beckner_Y_Rn
from .exponents import YoungExponents

FLAG_NAMES = (
    "solvable",
    "nilpotent",
    "simply_connected",
    "unimodular",
    "compact",
    "in_class_A",
)

EXACT_VALUE_RULES = ("none", "compact_one", "nielsen_power", "beckner_rn")


@dataclass(frozen=True)
class LieGroupDescriptor:
    """Catalog entry for one group."""

    name: str
    dim: int
    r: int
    flags: dict
    links: tuple = ()
    exact_value_rule: str = "none"

    def __post_init__(self):
        if self.dim < 0 or self.r < 0:
            raise ValueError(f"{self.name}: dim and r must be nonnegative")
        missing = [f for f in FLAG_NAMES if f not in self.flags]
        extra = [f for f in self.flags if f not in FLAG_NAMES]
        if missing or extra:
            raise ValueError(
                f"{self.name}: bad flags (missing {missing}, unknown {extra})"
            )
        if self.exact_value_rule not in EXACT_VALUE_RULES:
            raise ValueError(
                f"{self.name}: unknown exact_value_rule {self.exact_value_rule!r}"
            )
        object.__setattr__(
            self, "links", tuple((str(h), str(q)) for h, q in self.links)
        )

    def flag(self, name: str) -> bool:
        return bool(self.flags[name])


def _y_r_power(desc: LieGroupDescriptor, ex: YoungExponents) -> float:
    """Y(R)^(dim - r), and exactly 1 when dim <= r."""
    return beckner_Y_Rn(ex.p1, ex.p2, 1) ** max(desc.dim - desc.r, 0)


def max_compact_bound(desc: LieGroupDescriptor, ex: YoungExponents) -> float:
    """Upper bound Y(R)^(dim - r) from the maximal compact dimension.

    Only valid for class-A groups; returns 1 when dim = r.
    """
    if not desc.flag("in_class_A"):
        raise ValueError(f"{desc.name} is not in class A; bound not applicable")
    if desc.r > desc.dim:
        raise ValueError(f"{desc.name}: r exceeds dim")
    return _y_r_power(desc, ex)


def nielsen_exact(desc: LieGroupDescriptor, ex: YoungExponents):
    """Exact value of the optimal constant when the catalog rule gives one.

    * ``nielsen_power`` / ``beckner_rn``: Y(R)^(dim - r) exactly (simply
      connected solvable, connected nilpotent, and R^n groups).
    * ``compact_one``: exactly 1 (compact groups, and discrete groups with
      an open compact subgroup).
    * ``none``: no exact value known, returns None.
    """
    rule = desc.exact_value_rule
    if rule == "compact_one":
        return 1.0
    if rule in ("nielsen_power", "beckner_rn"):
        return _y_r_power(desc, ex)
    return None


@dataclass
class CatalogViolation:
    entry: str
    kind: str
    detail: str

    def __str__(self):
        return f"[{self.kind}] {self.entry}: {self.detail}"


@dataclass
class CatalogReport:
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, entry, kind, detail):
        self.violations.append(CatalogViolation(entry, kind, detail))


def catalog_consistency_check(catalog, ex: YoungExponents) -> CatalogReport:
    """Verify per-entry invariants, link additivity, and bound ordering.

    Checks, for every entry: 0 <= r <= dim; compact implies r = dim; for
    every link (H, Q): dim = dim H + dim Q and r = r(H) + r(Q); for class-A
    entries the max-compact bound is <= 1 and any exact value stays below
    it (within 1e-12).  Unresolved link names are reported, not fatal.
    """
    by_name = {d.name: d for d in catalog}
    report = CatalogReport()
    for desc in catalog:
        if not (0 <= desc.r <= desc.dim):
            report.add(desc.name, "range", f"r={desc.r} outside [0, dim={desc.dim}]")
        if desc.flag("compact") and desc.r != desc.dim:
            report.add(desc.name, "compact", f"compact but r={desc.r} != dim={desc.dim}")
        for h_name, q_name in desc.links:
            h = by_name.get(h_name)
            q = by_name.get(q_name)
            if h is None or q is None:
                missing = [n for n, d in ((h_name, h), (q_name, q)) if d is None]
                report.add(desc.name, "unresolved", f"link names not in catalog: {missing}")
                continue
            if desc.dim != h.dim + q.dim:
                report.add(
                    desc.name,
                    "dim-additivity",
                    f"dim {desc.dim} != {h.dim} + {q.dim} via ({h_name}, {q_name})",
                )
            if desc.r != h.r + q.r:
                report.add(
                    desc.name,
                    "r-additivity",
                    f"r {desc.r} != {h.r} + {q.r} via ({h_name}, {q_name})",
                )
        if desc.flag("in_class_A") and 0 <= desc.r <= desc.dim:
            bound = max_compact_bound(desc, ex)
            if bound > 1 + 1e-12:
                report.add(desc.name, "bound-range", f"bound {bound} > 1")
            exact = nielsen_exact(desc, ex)
            if exact is not None and exact > bound + 1e-12:
                report.add(
                    desc.name,
                    "bound-order",
                    f"exact value {exact} exceeds bound {bound}",
                )
    return report


def _descriptor_from_dict(obj) -> LieGroupDescriptor:
    if not isinstance(obj, dict):
        raise ValueError(f"catalog entry {obj!r} is not an object")
    allowed = {"name", "dim", "r", "flags", "links", "exact_value_rule"}
    extra = set(obj) - allowed
    if extra:
        raise ValueError(f"unknown descriptor fields: {sorted(extra)}")
    for key in ("name", "dim", "r", "flags"):
        if key not in obj:
            raise ValueError(f"descriptor missing required field {key!r}")
    name = obj["name"]
    # JSON integers only: int() would raise TypeError on null and truncate 1.5
    if not all(type(obj[key]) is int for key in ("dim", "r")):
        raise ValueError(f"{name}: dim and r must be integers")
    if not isinstance(obj["flags"], dict):
        raise ValueError(f"{name}: flags must be an object")
    links = obj.get("links", [])
    if not isinstance(links, list) or not all(
        isinstance(l, list) and len(l) == 2 for l in links
    ):
        raise ValueError(f"{name}: links must be (subgroup, quotient) pairs")
    return LieGroupDescriptor(
        name=str(name),
        dim=obj["dim"],
        r=obj["r"],
        flags=obj["flags"],
        links=tuple((h, q) for h, q in links),
        exact_value_rule=obj.get("exact_value_rule", "none"),
    )


def load_catalog(path=None):
    """Load a catalog from a JSON file (the shipped one when path is None).

    The file holds an array of descriptor objects; unknown fields are
    rejected.  See data/catalog.json for the schema by example.
    """
    if path is None:
        text = (
            resources.files("youngconv").joinpath("data/catalog.json").read_text()
        )
    else:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    raw = json.loads(text)
    if not isinstance(raw, list):
        raise ValueError("catalog file must contain a JSON array")
    catalog = [_descriptor_from_dict(obj) for obj in raw]
    names = [d.name for d in catalog]
    if len(names) != len(set(names)):
        raise ValueError("duplicate names in catalog")
    return catalog


def builtin_catalog():
    """The shipped catalog (loaded once per call; entries are immutable)."""
    return load_catalog(None)

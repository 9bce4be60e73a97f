import json

import numpy as np
import pytest

from youngconv.catalog import (
    LieGroupDescriptor,
    builtin_catalog,
    catalog_consistency_check,
    load_catalog,
    max_compact_bound,
    nielsen_exact,
)
from youngconv.constants import beckner_Y_Rn
from youngconv.exponents import young_p

EX = young_p("4/3", "4/3")


def _flags(**overrides):
    base = {
        "solvable": True,
        "nilpotent": False,
        "simply_connected": True,
        "unimodular": True,
        "compact": False,
        "in_class_A": True,
    }
    base.update(overrides)
    return base


def test_builtin_catalog_consistent():
    catalog = builtin_catalog()
    names = {d.name for d in catalog}
    assert {
        "trivial", "R", "R2", "R3", "R4", "circle", "torus2", "Z",
        "heisenberg3", "affine_R", "se2_cover", "sl2_R", "so3",
    } <= names
    report = catalog_consistency_check(catalog, EX)
    assert report.ok, [str(v) for v in report.violations]


def test_sl2_bound_is_square_of_R():
    catalog = {d.name: d for d in builtin_catalog()}
    y = beckner_Y_Rn("4/3", "4/3", 1)
    np.testing.assert_allclose(
        max_compact_bound(catalog["sl2_R"], EX), y * y, rtol=1e-12
    )
    # Iwasawa-style link: dim and r add up through (affine_R, circle)
    assert ("affine_R", "circle") in catalog["sl2_R"].links


def test_exact_values():
    catalog = {d.name: d for d in builtin_catalog()}
    y = beckner_Y_Rn("4/3", "4/3", 1)
    np.testing.assert_allclose(nielsen_exact(catalog["heisenberg3"], EX), y**3, rtol=1e-12)
    np.testing.assert_allclose(nielsen_exact(catalog["affine_R"], EX), y**2, rtol=1e-12)
    assert nielsen_exact(catalog["circle"], EX) == 1.0
    assert nielsen_exact(catalog["sl2_R"], EX) is None
    # torus factor contributes nothing to the bound exponent
    assert max_compact_bound(catalog["circle"], EX) == 1.0


def test_bound_requires_class_A():
    catalog = {d.name: d for d in builtin_catalog()}
    with pytest.raises(ValueError):
        max_compact_bound(catalog["Z"], EX)


def test_corrupted_entry_detected():
    bad = LieGroupDescriptor("bogus", dim=2, r=3, flags=_flags())
    report = catalog_consistency_check([bad], EX)
    assert not report.ok
    assert any(v.kind == "range" for v in report.violations)


def test_compactness_and_link_violations():
    broken_compact = LieGroupDescriptor(
        "K", dim=3, r=2, flags=_flags(compact=True)
    )
    rep = catalog_consistency_check([broken_compact], EX)
    assert any(v.kind == "compact" for v in rep.violations)

    a = LieGroupDescriptor("A", dim=1, r=0, flags=_flags())
    bad_link = LieGroupDescriptor(
        "B", dim=3, r=0, flags=_flags(), links=(("A", "A"),)
    )
    rep = catalog_consistency_check([a, bad_link], EX)
    assert any(v.kind == "dim-additivity" for v in rep.violations)

    dangling = LieGroupDescriptor(
        "C", dim=2, r=0, flags=_flags(), links=(("A", "missing"),)
    )
    rep = catalog_consistency_check([a, dangling], EX)
    assert any(v.kind == "unresolved" for v in rep.violations)


def test_r_additivity_and_bound_order_violations():
    a = LieGroupDescriptor("A", dim=1, r=0, flags=_flags())
    bad_r = LieGroupDescriptor("B", dim=2, r=1, flags=_flags(), links=(("A", "A"),))
    rep = catalog_consistency_check([a, bad_r], EX)
    assert [v.kind for v in rep.violations] == ["r-additivity"]

    # an exact value of 1 above the class-A bound Y(R)^(dim - r) < 1
    flags = _flags(solvable=False, simply_connected=False, unimodular=False)
    above = LieGroupDescriptor("X", dim=2, r=1, flags=flags, exact_value_rule="compact_one")
    rep = catalog_consistency_check([above], EX)
    y = beckner_Y_Rn("4/3", "4/3", 1)
    assert [str(v) for v in rep.violations] == [
        f"[bound-order] X: exact value 1.0 exceeds bound {y}"
    ]


def test_descriptor_validation():
    with pytest.raises(ValueError):
        LieGroupDescriptor("x", dim=-1, r=0, flags=_flags())
    with pytest.raises(ValueError):
        LieGroupDescriptor("x", dim=1, r=0, flags={"solvable": True})
    with pytest.raises(ValueError):
        LieGroupDescriptor("x", dim=1, r=0, flags=_flags(), exact_value_rule="magic")


def test_load_rejects_unknown_fields(tmp_path):
    entry = {
        "name": "thing",
        "dim": 1,
        "r": 0,
        "flags": _flags(),
        "surprise": 1,
    }
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([entry]))
    with pytest.raises(ValueError, match="unknown descriptor fields"):
        load_catalog(path)


def test_load_roundtrip(tmp_path):
    entries = [
        {"name": "R", "dim": 1, "r": 0, "flags": _flags(), "exact_value_rule": "beckner_rn"},
        {"name": "flat2", "dim": 2, "r": 0, "flags": _flags(), "links": [["R", "R"]]},
    ]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(entries))
    catalog = load_catalog(path)
    assert catalog[1].links == (("R", "R"),)
    assert catalog_consistency_check(catalog, EX).ok


def test_duplicate_names_rejected(tmp_path):
    entry = {"name": "R", "dim": 1, "r": 0, "flags": _flags()}
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([entry, entry]))
    with pytest.raises(ValueError, match="duplicate"):
        load_catalog(path)


@pytest.mark.parametrize(
    "raw, named",
    [
        ([5], "catalog entry 5"),
        ([{"name": "thing", "dim": 1, "r": 0, "flags": 5}], "thing"),
        ([{"name": "thing", "dim": 1, "r": 0, "flags": _flags(), "links": 5}], "thing"),
        ([{"name": "thing", "dim": None, "r": 0, "flags": _flags()}], "thing"),
        ([{"name": "thing", "dim": 1.5, "r": 0, "flags": _flags()}], "thing"),
        ([{"name": "thing", "dim": 1, "r": True, "flags": _flags()}], "thing"),
    ],
)
def test_load_refuses_malformed_entries_with_value_error(tmp_path, raw, named):
    # these raised TypeError (or truncated 1.5 to 1) before the loader
    # checked the type of each field
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=named) as info:
        load_catalog(path)
    assert type(info.value) is ValueError

import argparse
import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import youngconv
from youngconv.cli import SELECTORS, _build_model, build_parser, main

RUN = [sys.executable, "-m", "youngconv.cli"]


def _run(args):
    return subprocess.run(RUN + args, capture_output=True, text=True)


def test_exact_text_and_json(tmp_path):
    out = tmp_path / "exact.json"
    proc = _run(
        ["exact", "--p1", "4/3", "--p2", "4/3", "--group", "sl2_R", "--out", str(out)]
    )
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["group"]["name"] == "sl2_R"
    assert payload["group"]["max_compact_bound"] == pytest.approx(0.7698003589, rel=1e-9)
    # every numeric printed in text mode is present in the JSON
    assert f"{payload['beckner_Y_R1']:.10f}" in proc.stdout


def test_exact_boundary():
    proc = _run(["exact", "--p1", "2", "--p2", "2"])
    assert proc.returncode == 0
    assert "boundary" in proc.stdout


def test_exact_boundary_writes_no_negative_zero(capsys):
    argv = ["exact", "--p1", "2", "--p2", "2", "--group", "affine_R"]
    assert main(argv + ["--format", "json"]) == 0
    blob = capsys.readouterr().out
    payload = json.loads(blob)
    assert payload["neg_log_Y_R1"] == 0.0 and payload["group"]["neg_log_exact"] == 0.0
    assert "-0.0" not in blob
    assert main(argv) == 0
    assert "-ln = 0.0000000000" in capsys.readouterr().out


def test_exit_code_bad_exponents():
    assert _run(["exact", "--p1", "1/2", "--p2", "2"]).returncode == 2
    assert _run(["estimate", "--group", "Zmod:8", "--p1", "junk", "--p2", "2"]).returncode == 2
    assert _run(["catalog", "--p1", "1/2", "--p2", "2"]).returncode == 2


def test_exit_code_bad_counts():
    estimate = ["estimate", "--group", "Zmod:6", "--p1", "4/3", "--p2", "3/2"]
    for argv in (
        estimate + ["--restarts", "0"],
        estimate + ["--restarts", "-1"],
        estimate + ["--seed", "-1"],
        estimate + ["--iters", "-3"],
        estimate + ["--tol", "nan"],
        estimate + ["--tol", "-1"],
        ["verify", "--proof-chain", "--seeds", "0"],
        ["verify", "--seeds", "-1", "--no-estimates"],
    ):
        proc = _run(argv)
        assert proc.returncode == 2, argv
        assert "Traceback" not in proc.stderr


def test_exit_code_unknown_catalog_name():
    assert _run(["exact", "--p1", "4/3", "--p2", "4/3", "--group", "nope"]).returncode == 3


def test_exit_code_bad_model():
    assert _run(["estimate", "--group", "Wat:1", "--p1", "4/3", "--p2", "4/3"]).returncode == 4
    assert _run(["estimate", "--group", "Rline:h=0,L=1", "--p1", "4/3", "--p2", "4/3"]).returncode == 4
    # models too large to hold or weigh are refused at construction: a
    # 10^7-element table, an enlarged affine b window of 2e26 cells, one
    # whose reach overflows a float, and a plane whose cell area h^2
    # overflows to an infinite Haar weight
    for group in (
        "Zmod:10000000",
        "Affine:hu=0.5,U=60,hb=0.5,B=1",
        "Affine:hu=0.5,U=700,hb=1e300,B=1e300",
        "Plane:h=1e200,L=1e200",
    ):
        proc = _run(
            ["estimate", "--group", group, "--p1", "4/3", "--p2", "3/2",
             "--restarts", "1", "--iters", "0"]
        )
        assert proc.returncode == 4, group
        assert "Traceback" not in proc.stderr, group
        assert any(line.startswith("error:") for line in proc.stderr.splitlines()), group


def test_estimate_json_deterministic(tmp_path):
    args = [
        "estimate", "--group", "Rline:h=0.25,L=2", "--p1", "4/3", "--p2", "4/3",
        "--restarts", "3", "--iters", "120", "--seed", "7",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    payload = json.loads(a.read_text())
    assert 0.8 < payload["lower_bound"] <= 1.0
    assert payload["config"]["seed"] == 7


def test_estimate_csv(tmp_path):
    csv_path = tmp_path / "restarts.csv"
    code = main(
        [
            "estimate", "--group", "Zmod:6", "--p1", "3/2", "--p2", "3/2",
            "--restarts", "4", "--iters", "100", "--csv", str(csv_path),
        ]
    )
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "restart,final_ratio,iterations,converged"
    assert len(lines) == 5


def test_estimate_boundary_short_circuit(capsys):
    assert main(["estimate", "--group", "Zmod:6", "--p1", "2", "--p2", "2"]) == 0
    assert "boundary" in capsys.readouterr().out


def test_estimate_boundary_csv(tmp_path):
    path = tmp_path / "boundary.csv"
    argv = ["estimate", "--group", "Zwindow:5", "--p1", "1", "--p2", "3/2", "--csv", str(path)]
    assert main(argv) == 0
    assert path.read_text().splitlines() == ["group,p1,p2,p,boundary_value", "Z[L=5],1,3/2,3/2,1.0"]


def test_estimate_from_table_file(tmp_path):
    from youngconv.groups import cyclic_group

    path = tmp_path / "z5.json"
    path.write_text(json.dumps({"name": "Z5", "table": cyclic_group(5).table.tolist()}))
    code = main(
        ["estimate", "--group", f"Table:{path}", "--p1", "4/3", "--p2", "4/3",
         "--restarts", "2", "--iters", "80"]
    )
    assert code == 0


def test_verify_proof_chain_ok_and_corrupt(tmp_path):
    csv_path = tmp_path / "chain.csv"
    assert main(["verify", "--proof-chain", "--seeds", "2", "--csv", str(csv_path)]) == 0
    assert csv_path.read_text().startswith("pair,p1,p2,step,")
    assert main(["verify", "--proof-chain", "--seeds", "2", "--corrupt", "delta"]) == 5


def test_catalog_command(tmp_path):
    out = tmp_path / "catalog.json"
    assert main(["catalog", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["consistent"] is True
    names = {e["name"] for e in payload["entries"]}
    assert "sl2_R" in names


def test_catalog_writes_canonical_exponents(capsys):
    blobs = []
    for spelling in ("1.5", "3/2"):
        assert main(["catalog", "--p1", spelling, "--p2", spelling, "--format", "json"]) == 0
        blobs.append(capsys.readouterr().out)
    assert blobs[0] == blobs[1]
    assert json.loads(blobs[0])["p1"] == "3/2"


def test_report_roundtrip(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(
        ["estimate", "--group", "Zmod:6", "--p1", "4/3", "--p2", "4/3",
         "--restarts", "2", "--iters", "80", "--out", str(out)]
    )
    capsys.readouterr()
    assert main(["report", "--input", str(out)]) == 0
    text = capsys.readouterr().out
    assert "lower bound" in text
    assert main(["report", "--input", str(out), "--format", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.startswith("restart,final_ratio")


def test_report_renders_a_boundary_payload(tmp_path, capsys):
    out = tmp_path / "b.json"
    args = ["estimate", "--group", "Rline:h=0.25,L=4", "--p1", "2", "--p2", "2"]
    assert main(args + ["--out", str(out)]) == 0
    line = capsys.readouterr().out
    assert main(["report", "--input", str(out)]) == 0
    assert capsys.readouterr().out == line
    assert main(["report", "--input", str(out), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(out.read_text())
    assert main(["report", "--input", str(out), "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == ["restart,final_ratio"]


def test_report_missing_fields_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for payload in (
        {"group": "Z/6"},
        {"group": "Z/6", "exponents": "4/3"},
        [1, 2],
        {"ratio_trace": [1, 2]},
        {"group": "Z/6", "boundary_value": 1.0},
    ):
        bad.write_text(json.dumps(payload))
        for fmt in ("text", "json", "csv"):
            assert main(["report", "--input", str(bad), "--format", fmt]) == 4
            assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "make, names",
    [
        (["exact", "--p1", "4/3", "--p2", "4/3", "--out", "{path}"], "no estimate field 'group'"),
        # exact --group writes a group object, but none of the estimate's other fields
        (["exact", "--p1", "4/3", "--p2", "4/3", "--group", "sl2_R", "--out", "{path}"],
         "no estimate field 'exponents'"),
        (["verify", "--proof-chain", "--seeds", "1", "--out", "{path}"],
         "no estimate field 'group'"),
        ("[1, 2]", "the top level is not a JSON object"),
        (None, "No such file or directory"),
    ],
)
def test_report_names_what_its_input_lacks(tmp_path, make, names):
    path = str(tmp_path / "in.json")
    if isinstance(make, list):
        assert _run_in_process([a.format(path=path) for a in make])[0] == 0
    elif make is not None:
        Path(path).write_text(make)
    code, out, err = _run_in_process(["report", "--input", path])
    assert code == 4 and out == ""
    assert err.splitlines() == [err.rstrip("\n")], err
    assert err.startswith(f"error: --input {path!r}: {names}"), err
    if make is not None:
        assert "an estimate payload, or a boundary payload" in err


@pytest.mark.parametrize(
    "field, value, need",
    [
        ("exponents", "4/3", '{"p1": "string", "p2": "string", "p": "string"}'),
        ("lower_bound", "x", '"number"'),
        ("upper_bound_refs", [1, 2], '[{"source": "string", "value": "number"}]'),
        ("ratio_trace", [1, 2], '[["number"]]'),
        ("truncation_mass", None, '"number"'),
        ("restarts", "two", '"integer"'),
    ],
)
def test_report_names_a_field_of_the_wrong_type(tmp_path, field, value, need):
    path = str(tmp_path / "in.json")
    argv = ["estimate", "--group", "Zmod:6", "--p1", "4/3", "--p2", "4/3",
            "--restarts", "2", "--iters", "3", "--out", path]
    assert _run_in_process(argv)[0] == 0
    payload = json.loads(Path(path).read_text())
    assert _run_in_process(["report", "--input", path])[0] == 0
    Path(path).write_text(json.dumps(dict(payload, **{field: value})))
    for fmt in ("text", "json", "csv"):
        code, out, err = _run_in_process(["report", "--input", path, "--format", fmt])
        assert code == 4 and out == ""
        assert err == f"error: --input {path!r}: estimate field {field!r} is not of type {need}\n"


def test_cold_import_loads_no_scipy():
    # scipy's import is most of a CLI start: FFTs run through numpy.fft, and
    # scipy.optimize loads on the first gaussian_ansatz call
    src = str(Path(youngconv.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import youngconv, youngconv.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _run_in_process(argv):
    """main(argv) with its output captured; argparse's SystemExit is a code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize(
    "argv",
    [
        ["exact", "--p1", "4/3", "--p2", "4/3", "--catalog", "{tmp}/missing.json"],
        ["exact", "--p1", "4/3", "--p2", "4/3", "--out", "{tmp}/missing/x.json"],
        ["catalog", "--catalog", "{tmp}/five.json"],
        ["exact", "--p1", "4/3", "--p2", "4/3", "--catalog", "{tmp}/five.json"],
        ["estimate", "--group", "Rline:h=0.5,L=2,zzz=1", "--p1", "4/3", "--p2", "4/3"],
        ["estimate", "--group", "Zmod:4,5", "--p1", "4/3", "--p2", "4/3"],
        ["estimate", "--group", "Zmod:4,n=4", "--p1", "4/3", "--p2", "4/3"],
        ["estimate", "--group", "Zmod:6", "--p1", "4/3", "--p2", "4/3", "--restarts", "1",
         "--iters", "1", "--csv", "{tmp}/missing/x.csv"],
        ["verify", "--proof-chain", "--seeds", "1", "--csv", "{tmp}/missing/x.csv"],
        # a boundary triple writes its row to --csv too
        ["estimate", "--group", "Zwindow:5", "--p1", "1", "--p2", "3/2",
         "--csv", "{tmp}/missing/x.csv"],
        # cells too small for a function of unit norm, refused before numpy warns
        ["estimate", "--group", "Rline:h=1e-300,L=1e-300", "--p1", "4/3", "--p2", "4/3"],
        ["estimate", "--group", "Plane:h=1e-160,L=1e-160", "--p1", "4/3", "--p2", "4/3"],
        # a table given as data is checked for associativity
        ["estimate", "--group", "Table:{tmp}/lopsided.json", "--p1", "4/3", "--p2", "4/3"],
    ],
)
def test_bad_input_exits_4_with_one_error_line(tmp_path, argv):
    (tmp_path / "five.json").write_text("[5]")
    (tmp_path / "lopsided.json").write_text(json.dumps({"table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}))
    argv = [a.format(tmp=tmp_path) for a in argv]
    code, _, err = _run_in_process(argv)
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    # the line names the bad selector or file
    assert any(a in err for a in argv if "/" in a or ":" in a), err


def test_report_has_no_out_option(tmp_path):
    assert _run_in_process(["report", "--input", "x.json", "--out", str(tmp_path / "o")])[0] == 2


def test_verify_csv_writes_the_battery(tmp_path, monkeypatch):
    from youngconv import cli
    from youngconv.verify import BatteryItem

    items = [BatteryItem("first", 0.0, 1e-12), BatteryItem("second", 2.0, 1.0, "off")]
    monkeypatch.setattr(cli, "run_battery", lambda **kwargs: (items, False))
    path = tmp_path / "battery.csv"
    assert main(["verify", "--no-estimates", "--csv", str(path)]) == 5
    assert path.read_text().splitlines() == [
        "name,worst_residual,tolerance,passed,detail",
        "first,0.0,1e-12,True,",
        "second,2.0,1.0,False,off",
    ]


# every selector form accepted before the selector table, with the model it
# built then (name and carrier shape)
@pytest.mark.parametrize(
    "selector, name, shape",
    [
        ("Zmod:8", "Z/8", (8,)),
        ("zmod:n=8", "Z/8", (8,)),
        ("ZMOD: 8", "Z/8", (8,)),
        ("Zmod:,8", "Z/8", (8,)),
        ("AffF:5", "Aff(F5)", (20,)),
        ("afff:q=5", "Aff(F5)", (20,)),
        ("Torus:16", "T[n=16]", (16,)),
        ("torus:n=16", "T[n=16]", (16,)),
        ("Zwindow:4", "Z[L=4]", (9,)),
        ("zwindow:L=4", "Z[L=4]", (9,)),
        ("Rline:h=0.25,L=2", "R[h=0.25,L=2.0]", (16,)),
        ("rline:L=2,h=0.25", "R[h=0.25,L=2.0]", (16,)),
        ("Rline: h = 0.25 , L=2,", "R[h=0.25,L=2.0]", (16,)),
        ("Plane:h=0.5,L=1", "R2[h=0.5,L=1.0]", (4, 4)),
        ("R2:h=0.5,L=1", "R2[h=0.5,L=1.0]", (4, 4)),
        ("r2:L=1,h=0.5", "R2[h=0.5,L=1.0]", (4, 4)),
        ("Affine:U=0.5,B=1", "Aff[h_u=0.05,U=0.5,h_b=0.05,B=1.0]", (21, 40)),
        ("Affine:h=0.25,U=0.5,B=1", "Aff[h_u=0.25,U=0.5,h_b=0.25,B=1.0]", (5, 8)),
        ("Affine:h=0.25,hu=0.5,U=0.5,B=1", "Aff[h_u=0.5,U=0.5,h_b=0.25,B=1.0]", (3, 8)),
        ("Affine:hu=0.25,U=0.5,hb=0.5,B=1", "Aff[h_u=0.25,U=0.5,h_b=0.5,B=1.0]", (5, 4)),
        ("AFFINE:hb=0.25,h=0.5,U=0.5,B=1", "Aff[h_u=0.5,U=0.5,h_b=0.25,B=1.0]", (3, 8)),
        ("Table:{z5}", "Z5", (5,)),
        ("table:path={z5}", "Z5", (5,)),
    ],
)
def test_selector_forms_build_the_same_models(tmp_path, selector, name, shape):
    z5 = tmp_path / "z5.json"
    z5.write_text(json.dumps({"name": "Z5", "table": [[(i + j) % 5 for j in range(5)]
                                                      for i in range(5)]}))
    model = _build_model(selector.format(z5=z5))
    assert (model.name, model.shape) == (name, shape)


# The CLI contract as a property.  Values are drawn from fixed lists, so every
# model stays small: orders <= 64 (AffF q <= 13), grids of at most a few
# thousand cells, Affine U <= 1, one restart of at most 2 iterations, and
# verify only with --seeds 1 and --no-estimates or --proof-chain.
MALFORMED = ["nan", "inf", "-1", "0", "", "abc"]
PARAM_VALUES = {
    ("Zmod", "n"): ["1", "8", "64"],
    ("AffF", "q"): ["2", "5", "13", "4"],
    ("Torus", "n"): ["2", "16", "64"],
    ("Zwindow", "L"): ["1", "5", "30"],
    ("Rline", "h"): ["0.05", "0.25", "0.3"],
    ("Rline", "L"): ["0.5", "2"],
    ("Plane", "h"): ["0.25", "0.5"],
    ("Plane", "L"): ["0.5", "1"],
    ("Affine", "hu"): ["0.05", "0.25", "0.5"],
    ("Affine", "hb"): ["0.05", "0.25", "0.5"],
    ("Affine", "h"): ["0.05", "0.25", "0.5"],
    ("Affine", "U"): ["0.5", "1"],
    ("Affine", "B"): ["0.5", "1"],
}
ALWAYS_GIVEN = {"restarts", "iters", "seeds"}  # their defaults run for seconds


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    entry = {"name": "R", "dim": 1, "r": 0, "exact_value_rule": "beckner_rn",
             "flags": {"solvable": True, "nilpotent": True, "simply_connected": True,
                       "unimodular": True, "compact": False, "in_class_A": True}}
    report = {"group": "Z/6", "exponents": {"p1": "4/3", "p2": "4/3", "p": "2"},
              "lower_bound": 0.9, "restarts": 1, "best_restart": 0, "converged": True,
              "truncation_mass": 0.0, "upper_bound_refs": [{"source": "x", "value": 1.0}],
              "ratio_trace": [[0.8, 0.9]]}
    contents = {
        "catalog.json": [entry],
        "flags.json": [dict(entry, flags=5)],
        "report.json": report,
        "partial.json": {"group": "Z/6"},
        "z5.json": {"name": "Z5", "table": [[(i + j) % 5 for j in range(5)] for i in range(5)]},
        "nonassoc.json": {"table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]},
        "five.json": [5],
    }
    for name, obj in contents.items():
        (root / name).write_text(json.dumps(obj))
    (root / "broken.json").write_text("{")
    return {
        "catalog": str(root / "catalog.json"),
        "input": str(root / "report.json"),
        "table": str(root / "z5.json"),
        "malformed": [str(root / n) for n in (*contents, "broken.json", "missing.json")]
        + [str(root), ""],
        "out": str(root / "out.json"),
        "bad_out": [str(root / "missing" / "out.json"), str(root)],
    }


@st.composite
def selectors(draw, files, faulty):
    """A selector from the table with valid values; when ``faulty``, with
    one fault: a malformed value, an unknown, surplus, missing or repeated
    parameter, no colon or an unknown name."""
    name = draw(st.sampled_from(sorted(SELECTORS)))
    _, _, keys, defaults, aliases = SELECTORS[name]
    values = {key: draw(st.sampled_from(
        [files["table"]] if name == "Table" else PARAM_VALUES[name.replace("R2", "Plane"), key]
    )) for key in (*keys, *aliases)}
    if len(keys) == 1 and draw(st.booleans()):
        tokens = list(values.values())
    else:
        tokens = [f"{key}={value}" for key, value in values.items()
                  if key in keys and key not in defaults or draw(st.booleans())]
    sep = ":"
    fault = faulty and draw(st.sampled_from(
        ["value", "value", "unknown", "surplus", "missing", "repeat", "colon", "name"]
    ))
    if fault == "value":
        i = draw(st.integers(0, len(tokens) - 1))
        head, eq, _ = tokens[i].rpartition("=")
        tokens[i] = head + eq + draw(st.sampled_from(MALFORMED + files["malformed"]))
    elif fault in ("unknown", "surplus", "repeat"):
        tokens.append({"unknown": "zzz=1", "surplus": "2", "repeat": tokens[0]}[fault])
    elif fault == "missing":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif fault == "colon":
        sep = ""
    elif fault == "name":
        name = "Wat"
    name = draw(st.sampled_from([name, name.lower(), name.upper()]))
    return name + sep + ",".join(tokens)


def _option_values(action, files):
    """(valid, malformed) values for one option."""
    if action.choices:
        return sorted(action.choices), MALFORMED
    if action.dest in ("p1", "p2"):
        return ["4/3", "3/2", "5/4", "2", "1"], MALFORMED
    if action.dest == "group":  # exact's catalog name
        return ["R", "sl2_R", "affine_R", "nope"], MALFORMED
    if action.dest in ("catalog", "input"):
        return [files[action.dest]], files["malformed"]
    if action.dest in ("out", "csv"):
        return [files["out"]], files["bad_out"]
    return {"restarts": ["1"], "iters": ["0", "1", "2"], "tol": ["1e-9", "0"],
            "seed": ["0", "7"], "seeds": ["1"]}[action.dest], MALFORMED


@st.composite
def argvs(draw, files):
    """An argv of a subcommand of ``build_parser()``; about a third of them
    give one option a malformed value, and half of the selectors have a fault."""
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    # estimate, with its selector, has the most ways to fail
    command = draw(st.sampled_from(sorted(sub.choices) + ["estimate"] * 3))
    argv, options = [command], []
    for action in sub.choices[command]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if action.nargs == 0:
            if draw(st.booleans()):
                argv.append(action.option_strings[0])
        elif action.required or action.dest in ALWAYS_GIVEN or draw(st.booleans()):
            options.append(action)
    bad = draw(st.sampled_from([None] * (2 * len(options) + 1) + options))
    for action in options:
        if command == "estimate" and action.dest == "group":
            value = draw(selectors(files, faulty=draw(st.booleans())))
        else:
            valid, malformed = _option_values(action, files)
            value = draw(st.sampled_from(malformed if action is bad else valid))
        argv += [action.option_strings[0], value]
    if command == "verify" and "--no-estimates" not in argv:
        argv.append("--proof-chain")
    return argv


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_exits_with_a_contract_code(files, data):
    argv = data.draw(argvs(files))
    code, _, err = _run_in_process(argv)
    assert code in (0, 2, 3, 4, 5), (argv, code, err)
    assert "Traceback" not in err
    if code in (3, 4):
        assert err.startswith("error:"), (argv, err)

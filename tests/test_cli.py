import json
import subprocess
import sys
from pathlib import Path

import pytest

import youngconv
from youngconv.cli import main

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


def test_report_missing_fields_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for payload in (
        {"group": "Z/6"},
        {"group": "Z/6", "exponents": "4/3"},
        [1, 2],
        {"ratio_trace": [1, 2]},
    ):
        bad.write_text(json.dumps(payload))
        for fmt in ("text", "json", "csv"):
            assert main(["report", "--input", str(bad), "--format", fmt]) == 4
            assert capsys.readouterr().err.startswith("error:")


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

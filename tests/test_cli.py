import argparse
import json
import math
import subprocess
import sys
from fractions import Fraction as F

import pytest

from conftest import m1_window_params, m_window_params, resonant_params, underflow_params
import random

from qims.cli import emit_matrix, emit_scalar, json_text, main, parse_scalar, write_output


def write_cfg(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return str(p)


def base_cfg(L=2, N=1, M=1):
    rnd = random.Random(10 * L + N + M)
    params = resonant_params(L, N, M, rnd, dict_m=True)
    return {
        "model": {"L": L, "N": N, "M": M},
        "parameters": {
            "e": [str(x) for x in params.e],
            "kappa": [str(x) for x in params.kappa],
            "theta": [str(x) for x in params.theta[1:]],
            "planck": "1",
        },
        "z": [str(F(2, 5) + F(k, 7)) for k in range(N)],
    }


def test_parse_and_emit_scalars():
    assert parse_scalar("3/5") == F(3, 5)
    assert parse_scalar("7") == F(7)
    assert parse_scalar("0.25") == 0.25
    assert emit_scalar(F(3, 5)) == {"value": "3/5", "kind": "exact"}
    assert emit_scalar(F(0)) == {"value": "0/1", "kind": "exact"}
    out = emit_scalar(0.25, 1e-10)
    assert out["kind"] == "float" and out["tolerance"] == 1e-10


def test_cmd_basis(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(3, 2, 2))
    assert main(["--config", cfg, "basis"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 15
    assert payload["basis"][0] == [0, 0, 0, 0]


def test_cmd_hamiltonian_json_exact(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(2, 1, 1))
    assert main(["--config", cfg, "hamiltonian", "--i", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 2
    cell = payload["matrix"][0][0]
    assert cell["kind"] == "exact" and "/" in cell["value"] or cell["value"].lstrip("-").isdigit()


def test_cmd_hamiltonian_csv(tmp_path):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(2, 1, 1))
    out = tmp_path / "m.csv"
    assert main(["--config", cfg, "hamiltonian", "--out", str(out)]) == 0
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 3  # header + 2 matrix rows
    assert rows[0].split(",")[0] == "1"


def test_cmd_check_commute_pass(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(3, 2, 1))
    assert main(["--config", cfg, "check", "commute", "--dmax", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["checks"]["commute"]["residual"]["value"] == "0/1"


def test_commute_computes_each_image_once(tmp_path, capsys, monkeypatch):
    # every H_k is shared by its pairs and keeps its images, so the uncached
    # body runs once per distinct (operator, monomial)
    from qims.weylops import FlatOp
    calls = []
    body = FlatOp._image
    monkeypatch.setattr(FlatOp, "_image", lambda op, A: calls.append((id(op), A)) or body(op, A))
    path = write_cfg(tmp_path, "c.json", base_cfg(3, 3, 1))
    assert main(["--config", path, "check", "commute", "--dmax", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["commute"]["pairs"] == 3
    assert calls and len(calls) == len(set(calls))


def test_commute_at_one_time_has_no_pair(tmp_path, capsys, monkeypatch):
    from qims import weylops

    def no_build(*args):
        raise AssertionError("N = 1 has no pair to build a Hamiltonian for")
    monkeypatch.setattr(weylops, "hamiltonian_flat", no_build)
    cfg = base_cfg(3, 1, 1)
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "check", "commute"]) == 0
    commute = json.loads(capsys.readouterr().out)["checks"]["commute"]
    assert commute["pairs"] == 0 and commute["passed"] is True
    assert commute["residual"]["value"] == "0/1"
    cfg["z"] = ["1"]  # a pole
    assert main(["--config", write_cfg(tmp_path, "p.json", cfg), "check", "commute"]) == 3
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "SingularityError"


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    path = write_cfg(tmp_path, "c.json", base_cfg(2, 2, 1))
    probes = []
    for argv in (["--dmax", "3"], []):
        assert main(["--config", path, "check", "commute", *argv]) == 0
        probes.append(json.loads(capsys.readouterr().out)["checks"]["commute"]["probes"])
    # degree <= 3 and <= 2 monomials in two variables
    assert probes == [10, 6]


def test_cmd_check_all_small(tmp_path, capsys):
    cfg = base_cfg(2, 2, 1)
    cfg["lemma_samples"] = 3
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "check", "all", "--dmax", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert set(payload["checks"]) == {"commute", "braid", "flatness", "subspace",
                                      "garnier", "lemmas"}
    assert payload["checks"]["flatness"]["derivative_rel"] == {"value": 0.0, "kind": "float"}
    assert payload["checks"]["flatness"]["conditions"] == 6


def test_malformed_config_exit2(tmp_path, capsys):
    cfg = base_cfg(2, 1, 1)
    cfg["parameters"]["kappa"] = ["1", "1"]  # breaks sum(kappa) = sum(theta)...
    # theta_0 is derived, so break sum(e) instead
    cfg["parameters"]["e"] = ["1", "1"]
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "check", "commute"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["code"] == 2
    assert "sum(e)" in payload["error"]["message"]


def test_theta0_violation_named(tmp_path, capsys):
    cfg = base_cfg(2, 1, 1)
    cfg["parameters"]["theta0"] = "99"
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "check", "commute"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert "sum(kappa) = sum(theta)" in payload["error"]["message"]


def test_numerical_failure_exit3(tmp_path, capsys):
    cfg = base_cfg(2, 1, 1)
    cfg["z"] = ["1"]  # pole
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "hamiltonian"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"]["code"] == 3


def test_cmd_integral_and_series_agree(tmp_path, capsys):
    from conftest import m1_window_params
    params = m1_window_params(2, 1)
    cfg = {
        "model": {"L": 2, "N": 1, "M": 1},
        "parameters": {"e": [str(x) for x in params.e],
                       "kappa": [str(x) for x in params.kappa],
                       "theta": [str(params.theta[1])],
                       "planck": str(params.planck)},
        "z": ["0.4"],
        "quadrature": {"nodes_per_axis": 24},
        "order": 60,
    }
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "integral"]) == 0
    quad = json.loads(capsys.readouterr().out)
    assert main(["--config", path, "series"]) == 0
    ser = json.loads(capsys.readouterr().out)
    for a, b in zip(quad["coefficients"], ser["coefficients"]):
        assert a["value"] == pytest.approx(b["value"], rel=1e-8)


def test_cmd_pfaffian_transport(tmp_path, capsys):
    cfg = base_cfg(2, 2, 1)
    cfg["path"] = [["0.40", "0.70"], ["0.45", "0.75"], ["0.40", "0.70"]]
    cfg["c0"] = ["1", "0", "0.5"]
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "pfaffian"]) == 0
    payload = json.loads(capsys.readouterr().out)
    end = payload["endpoint"]
    assert abs(end[0]["value"][0] - 1.0) < 1e-8
    assert payload["steps"]["accepted"] > 0


def test_cmd_verify_and_plot(tmp_path, capsys):
    from conftest import m_window_params
    params = m_window_params(2, 1, 1, gamma=F(-1, 2))
    cfg = {
        "model": {"L": 2, "N": 1, "M": 1},
        "parameters": {"e": [str(x) for x in params.e],
                       "kappa": [str(x) for x in params.kappa],
                       "theta": [str(params.theta[1])],
                       "planck": str(params.planck)},
        "z": ["2/5"],
        "quadrature": {"nodes_per_axis": 24},
        "tolerances": {"pde": 1e-4},
    }
    path = write_cfg(tmp_path, "c.json", cfg)
    svg = tmp_path / "traj.svg"
    assert main(["--config", path, "verify", "--plot", str(svg)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert payload["cohomology_vs_operator"]["exact_equal"] is True
    text = svg.read_text()
    assert text.startswith("<svg") and "polyline" in text


def test_cmd_verify_compares_at_decimal_z(tmp_path, capsys):
    # residue equality holds for every z, so a float z is compared, not skipped
    params = m_window_params(2, 1, 1, gamma=F(-1, 2))
    cfg = {
        "model": {"L": 2, "N": 1, "M": 1},
        "parameters": {"e": [str(x) for x in params.e],
                       "kappa": [str(x) for x in params.kappa],
                       "theta": [str(params.theta[1])],
                       "planck": str(params.planck)},
        "z": ["0.4"],
        "quadrature": {"nodes_per_axis": 24},
    }
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cohomology_vs_operator"]["exact_equal"] is True
    assert payload["passed"] is True


def test_byte_identical_reruns(tmp_path):
    cfg = base_cfg(2, 1, 1)
    path = write_cfg(tmp_path, "c.json", cfg)
    outs = []
    for k in range(2):
        out = tmp_path / f"out{k}.json"
        assert main(["--config", path, "hamiltonian", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_byte_identical_integral_reruns(tmp_path):
    # the slabbed tanh-sinh sums add in a fixed order
    from qims import hypint
    params = m_window_params(2, 2, 3)
    cfg = {"model": {"L": 2, "N": 2, "M": 3},
           "parameters": {"e": [str(x) for x in params.e],
                          "kappa": [str(x) for x in params.kappa],
                          "theta": [str(x) for x in params.theta[1:]],
                          "planck": str(params.planck)},
           "z": ["41/101", "21/101"],
           "quadrature": {"scheme": "tanh_sinh_tensor", "nodes_per_axis": 49,
                          "stabilize_tol": 1e-6}}
    path = write_cfg(tmp_path, "c.json", cfg)
    outs = []
    for k in range(2):
        hypint._window_check_M.cache_clear()
        out = tmp_path / f"out{k}.json"
        assert main(["--config", path, "integral", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_verify_plot_runs_the_window_check_once(tmp_path, capsys, monkeypatch):
    # the window check does not depend on z, so the 13-point scan reuses it
    from qims import hypint
    params = m_window_params(2, 1, 2)
    cfg = {"model": {"L": 2, "N": 1, "M": 2},
           "parameters": {"e": [str(x) for x in params.e],
                          "kappa": [str(x) for x in params.kappa],
                          "theta": [str(params.theta[1])],
                          "planck": str(params.planck)},
           "z": ["2/5"],
           "quadrature": {"scheme": "tanh_sinh_tensor", "nodes_per_axis": 81,
                          "stabilize_tol": 1e-4}}
    path = write_cfg(tmp_path, "c.json", cfg)
    calls = []
    probe = hypint._axis_exponents_numeric
    monkeypatch.setattr(hypint, "_axis_exponents_numeric",
                        lambda *a: calls.append(a) or probe(*a))
    hypint._window_check_M.cache_clear()
    assert main(["--config", path, "verify", "--plot", str(tmp_path / "t.svg")]) == 0
    assert json.loads(capsys.readouterr().out)["passed"] is True
    assert len(calls) == 1


def window_cfg(params, M, z, **extra):
    return {"model": {"L": params.L, "N": params.N, "M": M},
            "parameters": {"e": [str(x) for x in params.e],
                           "kappa": [str(x) for x in params.kappa],
                           "theta": [str(x) for x in params.theta[1:]],
                           "planck": str(params.planck)},
            "z": z, "quadrature": {"nodes_per_axis": 24}, **extra}


def test_underflowing_window_probe_exit3(tmp_path, capsys):
    cfg = window_cfg(underflow_params(150), 2, ["0.4"],
                     quadrature={"scheme": "monte_carlo", "mc_samples": 20000})
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "integral"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConvergenceError" and "underflows" in error["message"]


def test_verify_m1_needs_unit_interior_kappa_exit2(tmp_path, capsys, monkeypatch):
    # the quadrature takes kappa_2 != 1 at degree 1; the cohomology comparison
    # does not, and rejects it before any quadrature runs
    def no_quadrature(*args, **kwargs):
        raise AssertionError("pde_residual ran before the domain check")
    monkeypatch.setattr("qims.cli.hypint.pde_residual", no_quadrature)
    cfg = window_cfg(m1_window_params(3, 1), 1, ["2/5"])
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "verify"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and "kappa_2" in error["message"]


def loop_cfg():
    cfg = base_cfg(2, 2, 1)
    cfg.update(path=[["0.40", "0.70"], ["0.45", "0.75"], ["0.40", "0.70"]], c0=["1", "0", "0.5"])
    return cfg


def lemma_cfg():
    cfg = base_cfg(2, 2, 1)
    cfg["lemma_samples"] = 3
    return cfg


@pytest.mark.parametrize("cfg,argv,rc", [
    (lambda: base_cfg(3, 2, 2), ["basis"], 0),
    (lambda: base_cfg(2, 1, 3), ["hamiltonian"], 0),
    (lemma_cfg, ["check", "all", "--dmax", "2"], 0),
    (loop_cfg, ["pfaffian"], 0),
    (lambda: window_cfg(m1_window_params(2, 1), 1, ["0.4"]), ["integral"], 0),
    (lambda: window_cfg(m1_window_params(2, 1), 1, ["0.4"], order=30), ["series"], 0),
    (lambda: window_cfg(m_window_params(2, 1, 1), 1, ["2/5"], tolerances={"pde": 1e-4}),
     ["verify"], 0),
    (lambda: {**base_cfg(2, 1, 1), "z": ["1"]}, ["hamiltonian"], 3),
    (lambda: {**base_cfg(2, 1, 1), "z": ["2/x"]}, ["hamiltonian"], 2),
], ids=["basis", "hamiltonian", "check_all", "pfaffian", "integral", "series", "verify",
        "exit3", "exit2"])
def test_output_is_the_json_dumps_text(tmp_path, cfg, argv, rc):
    out = tmp_path / "out.json"
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg())] + argv
                + ["--out", str(out)]) == rc
    text = out.read_bytes()
    assert text == (json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n").encode()


def test_writer_matches_json_dumps_on_edge_payload(tmp_path):
    # 1, True and 1.0 are hash-equal, so equal leaf dicts need not print alike
    payload = {"empty": [[], {}, [[]], {"x": {}}, ""], "tuple": (1, (2.5, "3"), ()),
               "floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324, 0.1],
               "text": ["é ü 中 😀", "\x00\x1f\t\n\"\\/", "\u2028"],
               "leaves": [{"a": 1}, {"a": True}, {"a": 1.0}, {"a": "1"}, {"a": 1}, {"a": "1"}],
               "ints": [0, -1, 10 ** 30, True, False, None], "z": {"b": {"a": "1"}, "a": None}}
    out = tmp_path / "edge.json"
    write_output(argparse.Namespace(out=str(out)), payload)
    assert out.read_bytes() == (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()


def test_equal_exact_cells_share_one_dict_and_print_alike():
    rows = emit_matrix([[F(0), 0, F(1, 2)], [F(1, 2), 0.5, F(0)]])
    assert rows[0][0] is rows[0][1] is rows[1][2] and rows[0][2] is rows[1][0]
    assert rows[1][1] == {"value": 0.5, "kind": "float"}
    # one shared dict at two indents, next to hash-equal dicts that print apart
    payload = {"m": rows, "c": rows[0][0], "f": [{"a": 1}, {"a": True}, {"a": 1.0}]}
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_entry_point_subprocess(tmp_path):
    cfg = base_cfg(2, 1, 1)
    path = write_cfg(tmp_path, "c.json", cfg)
    proc = subprocess.run([sys.executable, "-m", "qims.cli", "--config", path,
                           "basis"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 2



def test_pfaffian_path_file_any_name(tmp_path, capsys):
    cfg = base_cfg(2, 2, 1)
    cfg["c0"] = ["1", "0", "0.5"]
    path = write_cfg(tmp_path, "c.json", cfg)
    waypoints = write_cfg(tmp_path, "loop.txt", {
        "path": [["0.40", "0.70"], ["0.45", "0.75"], ["0.40", "0.70"]]})
    assert main(["--config", path, "pfaffian", "--path", waypoints]) == 0
    end = json.loads(capsys.readouterr().out)["endpoint"]
    assert abs(end[0]["value"][0] - 1.0) < 1e-8


def test_unreadable_files_exit2(tmp_path, capsys):
    missing = str(tmp_path / "missing.json")
    assert main(["--config", missing, "basis"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["code"] == 2 and missing in error["message"]
    path = write_cfg(tmp_path, "c.json", base_cfg(2, 2, 1))
    assert main(["--config", path, "pfaffian", "--path", str(tmp_path / "none.txt")]) == 2
    assert json.loads(capsys.readouterr().out)["error"]["code"] == 2


@pytest.mark.parametrize("command,i", [("hamiltonian", "0"), ("hamiltonian", "3"),
                                       ("verify", "3")])
def test_time_index_out_of_range_exit2(tmp_path, capsys, command, i):
    path = write_cfg(tmp_path, "c.json", base_cfg(2, 2, 1))
    assert main(["--config", path, command, "--i", i]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and "out of range 1..2" in error["message"]



@pytest.mark.parametrize("L", [3, 4])
def test_cmd_check_all_skips_garnier_beyond_L2(tmp_path, capsys, L):
    cfg = base_cfg(L, 1, 1)
    cfg["lemma_samples"] = 3
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "check", "all"]) == 0
    captured = capsys.readouterr()
    checks = json.loads(captured.out)["checks"]
    assert set(checks) == {"commute", "braid", "flatness", "subspace", "garnier", "lemmas"}
    assert checks["garnier"] == {"passed": True,
                                 "skipped": "the explicit example exists only for L = 2"}
    assert "check garnier: skip (the explicit example exists only for L = 2)" in captured.err
    assert all(v["value"] == "0/1" for v in checks["lemmas"]["residuals"].values())


def test_cmd_check_garnier_alone_needs_L2(tmp_path, capsys):
    path = write_cfg(tmp_path, "c.json", base_cfg(3, 1, 1))
    assert main(["--config", path, "check", "garnier"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and "needs L = 2" in error["message"]


def test_unknown_quadrature_key_exit2(tmp_path, capsys):
    cfg = base_cfg(2, 1, 1)
    cfg["quadrature"] = {"nodes_per_axis": 4, "schme": "monte_carlo"}
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "integral"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and "schme" in error["message"]


@pytest.mark.parametrize("edit", [lambda c: c.update(tolerances={"rtol": math.nan}),
                                  lambda c: c.update(tolerances={"atol": math.nan}),
                                  lambda c: c["c0"].__setitem__(1, math.nan),
                                  lambda c: c["path"][1].__setitem__(0, math.nan)],
                         ids=["rtol", "atol", "c0", "path"])
def test_pfaffian_nan_input_exit2(tmp_path, capsys, edit):
    # JSON NaN loads as a float; transport used to spin on it without end
    cfg = base_cfg(2, 2, 1)
    cfg["path"] = [["0.40", "0.70"], ["0.45", "0.75"]]
    cfg["c0"] = ["1", "0", "0.5"]
    edit(cfg)
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "pfaffian"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and "nan" in error["message"]


@pytest.mark.parametrize("command,edit,message", [
    ("integral", lambda c: c.update(quadrature={"stabilize_tol": math.nan}), "stabilize_tol"),
    ("verify", lambda c: c.update(tolerances={"pde": math.nan}), "tolerances pde"),
    ("pfaffian", lambda c: c.update(tolerances={"rtol": -1}), "tolerances rtol"),
    ("pfaffian", lambda c: c.update(tolerances={"atol": math.inf}), "tolerances atol"),
    ("integral --M 2 --seed -1", lambda c: c.update(quadrature={"scheme": "monte_carlo"}),
     "seed"),
    ("check lemmas", lambda c: c.update(lemma_samples=0), "lemma_samples"),
    ("integral", lambda c: c.update(z=["1e999"]), "cannot parse scalar"),
    ("integral", lambda c: c["parameters"].update(planck=math.inf), "cannot parse scalar"),
    ("integral", lambda c: c.update(z=["0.4", "0.3"]), "z must have length N=1"),
    ("series", lambda c: c.update(z=["0.4", "0.3"]), "z must have length N=1"),
])
def test_invalid_numeric_setting_exit2(tmp_path, capsys, command, edit, message):
    cfg = base_cfg(2, 1, 1)
    cfg["path"] = [["0.40"], ["0.45"]]
    cfg["c0"] = ["1", "0"]
    edit(cfg)
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path] + command.split()) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and message in error["message"]


@pytest.mark.parametrize("command,edit,message", [
    ("series", lambda c: c.update(order=True), "order must be int"),
    ("check lemmas", lambda c: c.update(lemma_samples=True), "lemma_samples must be int"),
    ("basis", lambda c: c["model"].update(M=True), "model M must be int"),
    ("basis", lambda c: c["model"].update(M=None, T=[True]), "model T entry must be int"),
    ("hamiltonian", lambda c: c.update(i=False), "i must be int"),
    ("pfaffian", lambda c: c.update(tolerances={"rtol": True}), "tolerances rtol must be float"),
])
def test_json_boolean_is_not_a_number_exit2(tmp_path, capsys, command, edit, message):
    cfg = base_cfg(2, 1, 1)
    cfg["path"] = [["0.40"], ["0.45"]]
    cfg["c0"] = ["1", "0"]
    edit(cfg)
    cfg["model"] = {k: v for k, v in cfg["model"].items() if v is not None}
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path] + command.split()) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and message in error["message"]


@pytest.mark.parametrize("argv", [["check", "flatness", "--h", "1e-5"], ["basis", "--plot", "x"],
                                  ["series", "--M", "2"], ["check", "all", "--nodes", "8"],
                                  ["integral", "--no", "8"], ["verify", "--h", "1e-3"]])
def test_flag_the_subcommand_does_not_read_is_rejected(tmp_path, argv):
    path = write_cfg(tmp_path, "c.json", base_cfg(2, 2, 1))
    with pytest.raises(SystemExit) as exc:
        main(["--config", path] + argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("block,key", [(None, "chamber"), ("model", "D"),
                                       ("parameters", "kapa"), ("tolerances", "rtl"),
                                       (None, "h")])
def test_unknown_config_key_exit2(tmp_path, capsys, block, key):
    cfg = base_cfg(2, 1, 1)
    (cfg if block is None else cfg.setdefault(block, {}))[key] = "copy_blocks"
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "basis"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and key in error["message"]


@pytest.mark.parametrize("argv,field", [(["check", "commute", "--z", "0.4,0.7"], "z"),
                                        (["check", "all"], "theta")])
def test_check_rejects_decimals_before_any_check(tmp_path, capsys, monkeypatch, argv, field):
    def never(*args, **kwargs):
        raise AssertionError("a check ran on decimal input")
    monkeypatch.setattr("qims.cli.weylops.commutator_residual", never)
    cfg = base_cfg(2, 2, 1)
    if field == "theta":
        cfg["parameters"]["theta"] = ["0.25", "0.125"]
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path] + argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and f"decimal in: {field}" in error["message"]


def test_check_flatness_fails_on_any_nonzero_derivative(tmp_path, capsys, monkeypatch):
    from qims.pfaffian import FlatnessResult
    monkeypatch.setattr("qims.cli.pfaffian.flatness_residual",
                        lambda system: FlatnessResult(F(0), F(1, 10**12), 6))
    path = write_cfg(tmp_path, "c.json", base_cfg(2, 2, 1))
    assert main(["--config", path, "check", "flatness"]) == 1
    detail = json.loads(capsys.readouterr().out)["checks"]["flatness"]
    assert detail["derivative_rel"] == {"value": 1e-12, "kind": "float"}
    assert detail["commutator"] == {"value": "0/1", "kind": "exact"} and detail["conditions"] == 6


def test_check_flatness_reads_no_z(tmp_path, capsys):
    cfg = base_cfg(3, 3, 1)
    for z in (["1/2", "1/3", "1/5"], ["0.3", "1", "x"], None):
        if z is None:
            del cfg["z"]
        else:
            cfg["z"] = z
        assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "check", "flatness"]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]["flatness"] == {
            "passed": True, "commutator": {"value": "0/1", "kind": "exact"},
            "derivative_rel": {"value": 0.0, "kind": "float"}, "conditions": 26}


@pytest.mark.parametrize("edit,message", [
    (lambda c: c.pop("z"), "needs 'z'"),
    (lambda c: c["model"].pop("L"), "needs 'L'"),
    (lambda c: c["model"].update(N="two"), "model N must be int"),
    (lambda c: c["parameters"].update(e="9/10"), "'e' must be a list"),
    (lambda c: c["parameters"].update(planck="1/0"), "cannot parse scalar"),
    (lambda c: c.update(z=["2/x"]), "cannot parse scalar"),
    (lambda c: c.update(quadrature={"nodes_per_axis": "32"}), "nodes_per_axis"),
    (lambda c: c.update(i="first"), "i must be int"),
    (lambda c: c.update(i=1.5), "i must be int"),
    (lambda c: c["model"].update(M=1.5), "model M must be int"),
])
def test_config_intake_errors_are_parameter_errors(tmp_path, capsys, edit, message):
    cfg = base_cfg(2, 1, 1)
    edit(cfg)
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "verify"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and message in error["message"]


def test_library_value_error_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not a bad config")
    monkeypatch.setattr("qims.cli.polyalg.enumerate_basis", broken)
    path = write_cfg(tmp_path, "c.json", base_cfg(2, 1, 1))
    with pytest.raises(ValueError, match="a bug"):
        main(["--config", path, "basis"])


def test_check_all_builds_the_restriction_once(tmp_path, capsys, monkeypatch):
    from qims.pfaffian import PfaffianSystem
    builds = []
    init = PfaffianSystem.__init__

    def counting(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(PfaffianSystem, "__init__", counting)
    cfg = base_cfg(3, 2, 1)
    cfg["lemma_samples"] = 1
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "check", "all", "--dmax", "1"]) == 0
    assert len(builds) == 1


def test_readme_commands_run_on_readme_config(tmp_path, monkeypatch):
    import re
    import shlex
    from pathlib import Path
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    config = re.search(r"Example config:\s*```json\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "run.json").write_text(config, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    lines = [line.split("#")[0] for line in readme.splitlines() if line.startswith("qims ")]
    assert len(lines) >= 9
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line

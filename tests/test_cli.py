import argparse
import json
import math
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import (fast_decay_m1_params, m1_window_params, m_window_params,
                      resonant_params, underflow_params)
import random

from qims.cli import Matrix, emit_scalar, json_text, main, parse_scalar, write_output
from qims.errors import SubspaceError


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


@pytest.mark.parametrize("cfg,argv", [({}, ["--L", "3", "--N", "2", "--M", "2"]),
                                      (base_cfg(2, 1, 2), ["--L", "3", "--N", "2"])],
                         ids=["no_model", "override"])
def test_L_and_N_flags_set_the_model(tmp_path, capsys, cfg, argv):
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "basis"] + argv) == 0
    assert json.loads(capsys.readouterr().out)["dimension"] == 15  # as at L3N2M2


def test_cmd_basis_on_F_T(tmp_path, capsys):
    from qims.polyalg import enumerate_basis_FT
    cfg = {"model": {"L": 3, "N": 2, "T": [2, 1]}}
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "basis"]) == 0
    payload = json.loads(capsys.readouterr().out)
    basis = enumerate_basis_FT(3, 2, (2, 1))
    assert payload["space"] == {"kind": "F", "T": [2, 1]}
    assert payload["dimension"] == len(basis) and payload["basis"] == [list(A) for A in basis]


def test_cmd_hamiltonian_json_exact(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "c.json", base_cfg(2, 1, 1))
    assert main(["--config", cfg, "hamiltonian", "--i", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["dimension"] == 2
    cell = payload["matrix"][0][0]
    assert cell["kind"] == "exact" and "/" in cell["value"] or cell["value"].lstrip("-").isdigit()


def test_cmd_hamiltonian_rejects_decimal_hbar_exit2(tmp_path, capsys):
    # the restriction is exact only: a decimal hbar once ran a float restriction, exit 0
    cfg = base_cfg(2, 1, 1)
    cfg["parameters"]["hbar"] = "1.0"
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "hamiltonian"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and "decimal in: hbar" in error["message"]


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


@pytest.mark.parametrize("N,disjoint", [(3, []), (4, [(1, 2, 3, 4)])])
def test_check_braid_runs_every_triple(tmp_path, capsys, monkeypatch, N, disjoint):
    # adjacent triples are the ordered triples of distinct indices, in order;
    # the disjoint relation takes (1, 2, 3, l) for every l >= 4
    from qims import weylops
    calls = {"adjacent": [], "disjoint": []}
    for name in calls:
        real = getattr(weylops, f"braid_residual_{name}")
        monkeypatch.setattr(weylops, f"braid_residual_{name}",
                            lambda *a, real=real, name=name: calls[name].append(a[:-2])
                            or real(*a))
    path = write_cfg(tmp_path, "c.json", base_cfg(2, N, 1))
    assert main(["--config", path, "check", "braid"]) == 0
    braid = json.loads(capsys.readouterr().out)["checks"]["braid"]
    adjacent = [(i, j, k) for i in range(1, N + 1) for j in range(1, N + 1)
                for k in range(1, N + 1) if len({i, j, k}) == 3]
    assert calls == {"adjacent": adjacent, "disjoint": disjoint}
    assert braid["triples"] == len(adjacent) + len(disjoint)
    assert braid["residual"] == {"value": "0/1", "kind": "exact"}


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


def test_pfaffian_complex_waypoints(tmp_path, capsys):
    # a scalar of a waypoint may be an [re, im] pair
    import numpy as np
    from qims.cli import build_parameters
    from qims.pfaffian import PfaffianSystem, ZPath, propagate
    cfg = base_cfg(2, 2, 1)
    cfg["path"] = [["0.40", "0.70"], [["0.45", "0.02"], "0.75"], ["0.40", "0.70"]]
    cfg["c0"] = ["1", "0", "0.5"]
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "pfaffian"]) == 0
    end = [complex(*x["value"]) for x in json.loads(capsys.readouterr().out)["endpoint"]]
    system = PfaffianSystem(build_parameters(cfg), ("V", 1))
    want, _ = propagate(system, ZPath([(0.4, 0.7), (0.45 + 0.02j, 0.75), (0.4, 0.7)]),
                        np.array([1, 0, 0.5]))
    assert end == list(want)
    cfg["path"][1][0].append("0")
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "pfaffian"]) == 2
    assert "[re, im] pair" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_pfaffian_path_through_a_pole_exit3(tmp_path, capsys):
    # propagate guards each segment, after the config has been read in full
    cfg = base_cfg(2, 1, 1)
    cfg["path"] = [["0.5"], ["0.75"], ["1"]]
    path = write_cfg(tmp_path, "c.json", cfg)
    assert main(["--config", path, "pfaffian"]) == 2
    assert "needs an initial vector 'c0'" in json.loads(capsys.readouterr().out)["error"]["message"]
    cfg["c0"] = ["1", "0"]
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "pfaffian"]) == 3
    assert capsys.readouterr().out == (
        '{\n  "error": {\n    "code": 3,\n    "message": "segment 1 passes within 0 of a '
        'pole hyperplane (guard 0.00025)",\n    "type": "SingularityError"\n  }\n}\n')


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
        out = tmp_path / f"out{k}.json"
        assert main(["--config", path, "integral", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def window_cfg(params, M, z, **extra):
    return {"model": {"L": params.L, "N": params.N, "M": M},
            "parameters": {"e": [str(x) for x in params.e],
                           "kappa": [str(x) for x in params.kappa],
                           "theta": [str(x) for x in params.theta[1:]],
                           "planck": str(params.planck)},
            "z": z, "quadrature": {"nodes_per_axis": 24}, **extra}


@pytest.mark.parametrize("M,quad,key,flag", [
    (1, {"nodes_per_axis": 16}, "nodes_per_axis", "--nodes"),
    (2, {"scheme": "monte_carlo", "mc_samples": 2000, "seed": 1}, "seed", "--seed")],
    ids=["nodes", "seed"])
def test_quadrature_flag_overrides_the_config(tmp_path, capsys, M, quad, key, flag):
    out = []
    for q, argv in ((quad, [flag, "24"]), ({**quad, key: 24}, [])):
        cfg = window_cfg(m_window_params(2, 1, M), M, ["0.4"], quadrature=q)
        assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "integral"] + argv) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]


def test_tensor_quadrature_that_does_not_stabilize_exit3(tmp_path, capsys):
    cfg = window_cfg(m1_window_params(2, 1), 1, ["0.4"],
                     quadrature={"nodes_per_axis": 4, "stabilize_tol": 1e-300})
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "integral"]) == 3
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ConvergenceError" and "failed to stabilize" in error["message"]


def test_underflowing_window_probe_exit3(tmp_path, capsys):
    # the integrand underflows near the v_0 -> 0 face; its exact window admits
    # it, Monte Carlo evaluates it, and 41 tanh-sinh nodes fail to stabilize
    out = {}
    for scheme, quad in (("monte_carlo", {"mc_samples": 20000}),
                         ("tanh_sinh_tensor", {"nodes_per_axis": 41})):
        cfg = window_cfg(underflow_params(150), 2, ["0.4"],
                         quadrature={"scheme": scheme, **quad})
        out[scheme] = (main(["--config", write_cfg(tmp_path, "c.json", cfg), "integral"]),
                       json.loads(capsys.readouterr().out))
    rc, payload = out["monte_carlo"]
    assert rc == 0 and len(payload["coefficients"]) == 3
    rc, payload = out["tanh_sinh_tensor"]
    assert rc == 3 and payload["error"]["type"] == "ConvergenceError"
    assert "failed to stabilize" in payload["error"]["message"]


def test_series_beyond_float_factorials(tmp_path, capsys):
    # k! alone overflows a float from k = 171.  tail_bound covers truncation
    # and the rounding of the partial sum: each order-K coefficient a lies
    # within tail_bound |a| of the exact sum of the series' computed terms, also
    # at z = 0.8, where the last term over the sum understates the tail.  The
    # order-600 reference b lies within its own tail_bound |b| of that sum,
    # its truncation far below its rounding, so that slack is b's rounding only
    def series(params, z, order):
        cfg = window_cfg(params, 1, [z], order=order)
        assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "series"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert all(c["tolerance"] == out["tail_bound"] for c in out["coefficients"])
        return [c["value"] for c in out["coefficients"]], out["tail_bound"]

    cases = [(m1_window_params(2, 1), "0.4", (60, 200))]
    cases += [(fast_decay_m1_params(L, random.Random(seed)), z, (20, 60))
              for L in (2, 3, 4) for seed in range(3) for z in ("0.3", "0.8")]
    for params, z, orders in cases:
        fine, fine_tail = series(params, z, 600)
        tails = []
        for order in orders:
            coarse, tail = series(params, z, order)
            for a, b in zip(coarse, fine):
                assert abs(a - b) <= tail * abs(a) + fine_tail * abs(b), (params.L, z, order)
            tails.append(tail)
        if z == "0.8":  # truncation dominates; elsewhere rounding, which grows with K, does
            assert tails[1] < tails[0]


def _assert_beyond_six_axes_exit2(tmp_path, capsys, monkeypatch, cfg, tail=""):
    def no_grid(*args, **kwargs):
        raise AssertionError("a tensor grid was built")
    monkeypatch.setattr("qims.hypint._psiM_tensor", no_grid)
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "integral"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error["message"]) == (
        "ParameterError", "tensor quadrature supports M(L-1) <= 6 axes, got 7" + tail)


def test_integral_m1_beyond_six_axes_exit2(tmp_path, capsys, monkeypatch):
    # slabs keep memory flat at any number of axes, but the degree-1 grid at
    # L = 8 has 7 axes of 48 nodes, 48^7 = 5.9e11 points, far too many to sum
    _assert_beyond_six_axes_exit2(tmp_path, capsys, monkeypatch,
                                  window_cfg(m1_window_params(8, 1), 1, ["0.4"]))


@pytest.mark.parametrize("params,M,quad,tail", [
    (lambda: m1_window_params(8, 1, planck=-2), 1, {"nodes_per_axis": 24}, ""),
    (lambda: m_window_params(2, 1, 7, planck=-2), 7,
     {"scheme": "tanh_sinh_tensor", "nodes_per_axis": 21}, "; use monte_carlo")],
    ids=["M1", "M7"])
def test_tensor_beyond_six_axes_outside_window_exit2(tmp_path, capsys, monkeypatch,
                                                     params, M, quad, tail):
    # the configuration error comes before the window check, whatever its verdict
    _assert_beyond_six_axes_exit2(tmp_path, capsys, monkeypatch,
                                  window_cfg(params(), M, ["0.4"], quadrature=quad), tail)


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


def test_verify_rejects_decimal_parameters_exit2(tmp_path, capsys):
    # the cohomology residues are exact, so a decimal e is a configuration error
    cfg = base_cfg(2, 1, 1)
    cfg["parameters"]["e"] = ["0.9", "-0.4"]
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "verify"]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and "decimal in: e" in error["message"]


@pytest.mark.parametrize("which", ["braid", "all"])
def test_zero_hbar_exit2(tmp_path, capsys, which):
    # the entry commutator relations divide by hbar, so hbar = 0 is a configuration error
    cfg = base_cfg(2, 1, 1)
    cfg["parameters"]["hbar"] = "0"
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg), "check", which]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and "hbar must be nonzero" in error["message"]


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


def test_writer_joins_lists_of_dicts_like_json_dumps():
    # every list is joined from its entries' texts, cached dict cells read
    # directly: rows of empty, nested, shared and non-dict entries, and tuples
    shared = {"v": "0/1", "k": "exact"}
    payload = {"rows": [[{}, {"a": {}}, {}], [shared, shared], ({"c": 1}, shared),
                        [shared, {"b": [1]}, 2, shared], [[shared], shared]],
               "nested": [{"x": [{"y": shared}, shared]}, shared]}
    assert json_text(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_equal_exact_cells_print_alike():
    # int 0 and Fraction(0) are one exact value in two objects, next to a float
    # cell; the matrix at two indents, beside hash-equal dicts that print apart
    mat = [[F(0), 0, F(1, 2)], [F(1, 2), 0.5, F(0)]]
    cells = [[emit_scalar(x) for x in row] for row in mat]
    assert cells[0][0] == cells[0][1] == cells[1][2] and cells[0][2] == cells[1][0]
    assert cells[1][1] == {"value": 0.5, "kind": "float"}
    payload = {"m": Matrix(mat), "c": {"n": Matrix(mat)}, "f": [{"a": 1}, {"a": True}, {"a": 1.0}]}
    plain = {**payload, "m": cells, "c": {"n": cells}}
    assert json_text(payload) == json.dumps(plain, indent=2, sort_keys=True) + "\n"


def test_shared_cells_print_the_json_dumps_bytes(tmp_path, capsys, monkeypatch):
    # the shape of a restricted Hamiltonian at large M: 151 x 151, 98% zero,
    # with int 0 and Fraction(0) cells both printing "0/1", negative entries,
    # entries wider than 64 bits, and the float and complex cells of a decimal z
    from qims import cohomology
    from qims.pfaffian import PfaffianSystem
    rnd = random.Random(11)

    def cell():
        u = rnd.random()
        if u < 0.012:
            return F(rnd.randint(-9, 9), rnd.randint(1, 4))
        if u < 0.016:
            return F(rnd.choice([-1, 1]) * (3 ** 50 + rnd.randint(0, 9)), 2 ** 70 + 1)
        if u < 0.018:
            return rnd.uniform(-2, 2)
        if u < 0.02:
            return complex(rnd.uniform(-1, 1), rnd.uniform(-1, 1))
        return rnd.choice([0, F(0)])

    mat = [[cell() for _ in range(151)] for _ in range(151)]
    kinds = {type(x) for row in mat for x in row}
    assert kinds == {int, F, float, complex}
    assert any(isinstance(x, F) and x < 0 and x.numerator.bit_length() > 64
               for row in mat for x in row)
    cells = [[emit_scalar(x) for x in row] for row in mat]
    text = json_text({"dimension": 151, "matrix": Matrix(mat)})
    assert text == json.dumps({"dimension": 151, "matrix": cells},
                              indent=2, sort_keys=True) + "\n"

    # the same writer behind both call sites: hamiltonian's matrix ...
    monkeypatch.setattr(PfaffianSystem, "matrix_at", lambda self, i, z: mat)
    path = write_cfg(tmp_path, "h.json", base_cfg(2, 1, 1))
    assert main(["--config", path, "hamiltonian"]) == 0
    out = capsys.readouterr().out
    payload = {**json.loads(out), "matrix": cells}
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    # ... and verify's discrepancy
    monkeypatch.setattr(cohomology, "compare_cohomology_operator",
                        lambda *args: cohomology.CohomologyComparison(
                            False, F(1), None, tuple(map(tuple, mat))))
    cfg = window_cfg(m_window_params(2, 1, 1), 1, ["2/5"], tolerances={"pde": 1e-4})
    assert main(["--config", write_cfg(tmp_path, "v.json", cfg), "verify"]) == 1
    out = capsys.readouterr().out
    payload = json.loads(out)
    payload["cohomology_vs_operator"]["discrepancy"] = cells
    assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_entry_point_subprocess(tmp_path):
    cfg = base_cfg(2, 1, 1)
    path = write_cfg(tmp_path, "c.json", cfg)
    proc = subprocess.run([sys.executable, "-m", "qims.cli", "--config", path,
                           "basis"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["dimension"] == 2



def test_check_lemmas_stdout_is_byte_identical_for_one_seed(tmp_path):
    from qims.cohomology import LEMMA_IDS
    cfg = base_cfg(3, 1, 1)
    cfg["lemma_samples"] = 2
    path = write_cfg(tmp_path, "c.json", cfg)
    runs = [subprocess.run([sys.executable, "-m", "qims.cli", "--config", path, "check",
                            "lemmas", "--seed", "17"], capture_output=True)
            for _ in range(2)]
    assert [proc.returncode for proc in runs] == [0, 0]
    assert runs[0].stdout == runs[1].stdout
    lemmas = json.loads(runs[0].stdout)["checks"]["lemmas"]
    assert set(lemmas) == {"passed", "residuals", "samples"} and lemmas["samples"] == 2
    assert lemmas["residuals"] == {lemma: {"kind": "exact", "value": "0/1"}
                                   for lemma in LEMMA_IDS}


def test_no_command_loads_scipy(tmp_path):
    # the runtime needs numpy only: with scipy blocked, every command runs
    exact = base_cfg(2, 2, 1)
    runs = [(exact, ["basis"]), (exact, ["hamiltonian", "--i", "1"]),
            (exact, ["check", "commute"]), (loop_cfg(), ["pfaffian"])]
    runs += [(window_cfg(m_window_params(2, 1, 2), 2, ["0.4"], quadrature=q), ["integral"])
             for q in ({"scheme": "tanh_sinh_tensor"},
                       {"scheme": "monte_carlo", "mc_samples": 2000})]
    runs += [(window_cfg(m1_window_params(2, 1), 1, ["0.4"], order=30), ["series"]),
             (window_cfg(m_window_params(2, 1, 1), 1, ["2/5"], tolerances={"pde": 1e-4}),
              ["verify"])]
    calls = [["--config", write_cfg(tmp_path, f"c{k}.json", cfg)] + argv
             for k, (cfg, argv) in enumerate(runs)]
    # Gauss-Jacobi at M = 1, and tanh-sinh and Monte Carlo at the benchmark's
    # L2N2M3 sizes, on the configs CI also runs with a numpy-only install
    calls += [["--config", str(Path(__file__).parent / "configs" / f"integral_{name}.json"),
               "integral"] for name in ("L2N1M1", "L2N2M3_ts", "L2N2M3_mc")]
    script = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        "from qims.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy') and sys.modules[m]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
def test_time_index_out_of_range_exit2(tmp_path, capsys, monkeypatch, command, i):
    built = counted_restrictions(monkeypatch)
    path = write_cfg(tmp_path, "c.json", base_cfg(2, 2, 1))
    assert main(["--config", path, command, "--i", i]) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert error["type"] == "ParameterError" and "out of range 1..2" in error["message"]
    assert built == []  # rejected before any restriction



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
    ("check commute --dmax -1", lambda c: None, "--dmax must be nonnegative"),
    ("check lemmas --seed -3", lambda c: None, "--seed must be nonnegative"),
    ("integral --M 2", lambda c: c.update(quadrature={"scheme": "monte_carlo",
                                                      "mc_samples": 5}), "mc_samples"),
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
                                  ["integral", "--no", "8"], ["verify", "--h", "1e-3"],
                                  ["check", "commute", "--seed", "5"],
                                  ["check", "lemmas", "--dmax", "9"],
                                  ["check", "lemmas", "--z", "0.4,0.7"],
                                  ["check", "commute", "--M", "2"],
                                  ["integral", "--seed", "5"], ["verify", "--seed", "5"],
                                  ["integral", "--nodes", "8"],
                                  ["verify", "--nodes", "8"]])
def test_flag_the_subcommand_does_not_read_is_rejected(tmp_path, capsys, argv):
    # check takes --M, --z, --dmax and --seed only when a check it runs reads them;
    # integral and verify take --nodes only for a tensor rule, --seed only for Monte Carlo
    cfg = base_cfg(2, 2, 1)
    if "--nodes" in argv:
        cfg["quadrature"] = {"scheme": "monte_carlo"}
    path = write_cfg(tmp_path, "c.json", cfg)
    with pytest.raises(SystemExit) as exc:
        main(["--config", path] + argv)
    assert exc.value.code == 2
    assert next(a for a in argv if a.startswith("--")) in capsys.readouterr().err


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


@pytest.mark.parametrize("cfg,argv", [(lambda: base_cfg(2, 1, 1), ["check", "all"]),
                                      (lambda: base_cfg(2, 1, 1), ["hamiltonian"]),
                                      (loop_cfg, ["pfaffian"]),
                                      (lambda: base_cfg(2, 1, 1), ["verify"])],
                         ids=["check", "hamiltonian", "pfaffian", "verify"])
def test_exact_subcommands_reject_a_decimal_with_one_message(tmp_path, capsys, cfg, argv):
    # one exactness gate serves every exact subcommand, whatever it computes
    cfg = cfg()
    cfg["parameters"]["e"] = ["0.9", "-0.4"]
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg)] + argv) == 2
    error = json.loads(capsys.readouterr().out)["error"]
    assert (error["type"], error["message"]) == (
        "ParameterError",
        "exact arithmetic needs exact rationals ('p/q' strings or integers); decimal in: e")


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
    (lambda c: c["parameters"].update(theta=["0"] + c["parameters"]["theta"]),
     "theta must list theta_1..theta_N (length 1)"),
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


def counted_restrictions(monkeypatch, leak_at=None):
    """The time index of every restriction built from here on, in order; the
    restriction of H_``leak_at`` raises SubspaceError instead."""
    from qims import cohomology, pfaffian
    built = []
    restrict = pfaffian.restricted_residues

    def counting(params, i, *args):
        built.append(i)
        if i == leak_at:
            raise SubspaceError(f"H_{i} leaks (planted)")
        return restrict(params, i, *args)
    for module in (pfaffian, cohomology):
        monkeypatch.setattr(module, "restricted_residues", counting)
    return built


def test_hamiltonian_restricts_only_the_time_it_prints(tmp_path, capsys, monkeypatch):
    built = counted_restrictions(monkeypatch)
    path = write_cfg(tmp_path, "c.json", base_cfg(2, 3, 1))
    assert main(["--config", path, "hamiltonian", "--i", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["i"] == 2
    assert built == [2]


@pytest.mark.parametrize("cfg,argv,rc,built", [
    (lambda: base_cfg(2, 2, 1), ["check", "subspace"], 2, [1, 2]),
    (lambda: base_cfg(2, 2, 1), ["check", "flatness"], 2, [1, 2]),
    (loop_cfg, ["pfaffian"], 2, [1, 2]),
    (lambda: base_cfg(2, 2, 1), ["hamiltonian", "--i", "1"], 0, [1]),
], ids=["subspace", "flatness", "pfaffian", "hamiltonian"])
def test_a_leak_under_one_time_fails_what_reads_every_time(tmp_path, capsys, monkeypatch,
                                                           cfg, argv, rc, built):
    # a SubspaceError is a configuration error (exit 2); only hamiltonian --i 1
    # never restricts H_2
    restricted = counted_restrictions(monkeypatch, leak_at=2)
    assert main(["--config", write_cfg(tmp_path, "c.json", cfg())] + argv) == rc
    out = json.loads(capsys.readouterr().out)
    if rc:
        assert out["error"] == {"code": 2, "type": "SubspaceError",
                                "message": "H_2 leaks (planted)"}
    else:
        assert out["i"] == 1
    assert restricted == built


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


def test_readme_cli_table_lists_each_commands_flags():
    import re
    from pathlib import Path
    from qims.cli import COMMANDS
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = re.search(r"^\| Subcommand \|.*?\n\n", readme, re.M | re.S).group(0)
    rows = re.findall(r"^\| `(\w+)` \| `([^`]*)`", table, re.M)
    assert [name for name, _ in rows] == list(COMMANDS)
    for name, flags in rows:
        assert [f.removeprefix("--") for f in flags.split()] == COMMANDS[name][1].split(), name

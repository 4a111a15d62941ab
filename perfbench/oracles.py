"""Independent checks of each job's CLI output.

Every check runs after the job returns, outside the timed and traced spans.
``check(job, rc, out, err)`` returns ``(passed, known_defect, reason)``:
``passed`` is true when the output is verified; ``known_defect`` is true
when the job failed in exactly the way the recorded defect predicts
(``check all`` at L >= 3 stops at the garnier check with exit 2).
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from qims import cohomology, polyalg, weylops
from qims.hypint import eval_psi1
from qims.quadrature import QuadratureSpec

ZERO = {"value": "0/1", "kind": "exact"}
ALL_CHECKS = {"commute", "braid", "flatness", "subspace", "garnier", "lemmas"}
DEFECT_MESSAGE = "the explicit-example check needs L = 2"
# the float cross-derivative bound the CLI applies to its flatness check
FLATNESS_DERIVATIVE_BOUND = 1e-7


def params_of_dict(p):
    """Parameters from a dict of e, kappa, theta_1..theta_N and planck."""
    return weylops.make_parameters(len(p["e"]), len(p["theta"]), e=p["e"],
                                   kappa=p["kappa"], theta=p["theta"], planck=p["planck"])


def params_of(cfg):
    """Parameters from a job config's exact 'p/q' strings."""
    return params_of_dict({k: [Fraction(x) for x in v] if isinstance(v, list)
                           else Fraction(v) for k, v in cfg["parameters"].items()})


def degree1_vector(params, z, nodes=32):
    """Direct Gauss-Jacobi quadrature of the degree-1 solution at real z."""
    return eval_psi1(params, (z,), QuadratureSpec(nodes_per_axis=nodes)).vector


def _complex(entry):
    v = entry["value"]
    return complex(*v) if isinstance(v, list) else complex(v)


def _exact_checks(report, expected_names):
    if set(report) != expected_names:
        return f"checks {sorted(report)} != {sorted(expected_names)}"
    for name, detail in report.items():
        if detail.get("passed") is not True:
            return f"check {name} did not pass"
        for key in ("residual", "commutator", "deviation", "overflow"):
            if key in detail and detail[key] != ZERO:
                return f"check {name}: {key} {detail[key]} is not exactly 0"
        if name == "flatness":
            d = detail["derivative_rel"]["value"]
            if not d < FLATNESS_DERIVATIVE_BOUND:
                return f"flatness derivative {d} not below {FLATNESS_DERIVATIVE_BOUND}"
        if name == "lemmas" and any(v != ZERO for v in detail["residuals"].values()):
            return "a reduction identity has a nonzero residual"
    return None


def _known_defect(job, rc, payload, err):
    if not job.expect.get("known_defect") or rc != 2:
        return False
    error = payload.get("error", {})
    passed_first = all(f"check {name}: pass" in err
                       for name in ("commute", "braid", "flatness", "subspace"))
    return (error.get("type") == "ParameterError" and error.get("message") == DEFECT_MESSAGE
            and passed_first)


def _check_checks(job, payload):
    names = ALL_CHECKS if job.argv[1] == "all" else {job.argv[1]}
    if payload.get("passed") is not True:
        return "passed is not true"
    return _exact_checks(payload["checks"], names)


def _matrix(payload):
    return [[Fraction(x["value"]) for x in row] for row in payload["matrix"]]


def _check_hamiltonian_V(job, payload):
    cfg = job.cfg
    params = params_of(cfg)
    z = tuple(Fraction(x) for x in cfg["z"])
    expected = cohomology.pfaffian_from_cohomology(params, z, cfg["model"]["M"], cfg["i"])
    got = _matrix(payload)
    if payload["dimension"] != len(expected) or got != expected:
        return "matrix differs from the cohomology assembly"
    return None


def _check_hamiltonian_F(job, payload):
    cfg = job.cfg
    params = params_of(cfg)
    L, N = params.L, params.N
    z = tuple(Fraction(x) for x in cfg["z"])
    basis = polyalg.enumerate_basis_FT(L, N, tuple(cfg["model"]["T"]))
    index_of = {A: k for k, A in enumerate(basis)}
    op = weylops.hamiltonian_flat(cfg["i"], params, z)
    D = len(basis)
    expected = [[Fraction(0)] * D for _ in range(D)]
    for b, B in enumerate(basis):
        for A, c in op.apply_index(B).items():
            if A not in index_of:
                return f"H_i q^{B} leaves F(T)"
            expected[index_of[A]][b] = c
    if payload["dimension"] != D or _matrix(payload) != expected:
        return "matrix differs from direct operator application"
    return None


def _check_loop(job, payload):
    c0 = np.array([complex(Fraction(x)) for x in job.cfg["c0"]])
    end = np.array([_complex(x) for x in payload["endpoint"]])
    err = float(np.abs(end - c0).max()) / max(1.0, float(np.abs(c0).max()))
    if not err <= job.expect["bound"]:
        return f"loop return error {err:.3e} above {job.expect['bound']:.0e}"
    return None


def _check_open_path(job, payload):
    expected = degree1_vector(params_of(job.cfg), job.expect["zb"])
    end = np.array([_complex(x) for x in payload["endpoint"]])
    rel = float(np.abs(end.real - expected).max() / np.abs(expected).max())
    if not rel < job.expect["bound"]:
        return f"transport vs quadrature {rel:.3e} not below {job.expect['bound']:.0e}"
    return None


def _check_integral(job, payload):
    quad = job.cfg["quadrature"]
    conv = payload["convergence"]
    if not conv <= quad["stabilize_tol"]:
        return f"convergence {conv} above stabilize_tol {quad['stabilize_tol']}"
    if payload["meta"]["scheme"] != quad["scheme"]:
        return f"ran scheme {payload['meta']['scheme']}, asked for {quad['scheme']}"
    values = [x["value"] for x in payload["coefficients"]]
    if not values or not all(np.isfinite(values)):
        return "non-finite coefficients"
    return None


def _check_verify(job, payload):
    if payload.get("passed") is not True:
        return "verify did not pass"
    if payload["cohomology_vs_operator"].get("exact_equal") is not True:
        return "cohomology and operator restrictions differ"
    return None


def _check_series(job, payload):
    z = float(Fraction(job.cfg["z"][0]))
    expected = degree1_vector(params_of(job.cfg), z)
    got = np.array([x["value"] for x in payload["coefficients"]])
    rel = float(np.abs(got - expected).max() / np.abs(expected).max())
    if not rel < job.expect["bound"]:
        return f"series vs quadrature {rel:.3e} not below {job.expect['bound']:.0e}"
    return None


CHECKERS = {
    "check_commute": _check_checks,
    "check_all": _check_checks,
    "flatness": _check_checks,
    "hamiltonian_V": _check_hamiltonian_V,
    "hamiltonian_F": _check_hamiltonian_F,
    "loop": _check_loop,
    "open_path": _check_open_path,
    "integral_gj": _check_integral,
    "integral_ts": _check_integral,
    "integral_mc": _check_integral,
    "verify": _check_verify,
    "series": _check_series,
}


def check(job, rc, out, err):
    """Verify one job's output; see the module docstring."""
    try:
        payload = json.loads(out)
    except json.JSONDecodeError as exc:
        return False, False, f"output is not JSON: {exc}"
    if _known_defect(job, rc, payload, err):
        return False, True, "known defect: check all exits 2 at L >= 3"
    if rc != 0:
        return False, False, f"exit code {rc}: {payload.get('error')}"
    try:
        reason = CHECKERS[job.kind](job, payload)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        reason = f"malformed output: {type(exc).__name__}: {exc}"
    return reason is None, False, reason or "ok"

"""Command-line interface: config ingestion, experiment orchestration, JSON/CSV/SVG output.

Exit codes: 0 all checks passed / output written; 1 a verification check
failed; 2 configuration error; 3 numerical failure (nonconvergence or a
pole).  Identical config and seed produce byte-identical output files;
human-readable progress goes to stderr only.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import cohomology, hypint, pfaffian, polyalg, weylops
from .errors import (ChamberError, ConvergenceError, ParameterError,
                     PropagationError, QimsError, SingularityError,
                     StructureError, SubspaceError)
from .quadrature import QuadratureSpec
from .svgplot import write_line_chart

CONFIG_ERRORS = (ParameterError, StructureError, SubspaceError, json.JSONDecodeError)
NUMERIC_ERRORS = (ConvergenceError, PropagationError, SingularityError, ChamberError)


def parse_scalar(x):
    """Loss-free scalar intake: 'p/q' strings stay exact, finite decimals go
    float; NaN and infinities are rejected."""
    if isinstance(x, bool):
        raise ParameterError(f"boolean is not a scalar: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float) and math.isfinite(x):
        return x
    if isinstance(x, str):
        s = x.strip()
        try:
            if "/" in s or ("." not in s and "e" not in s and "E" not in s):
                return Fraction(s)
            if math.isfinite(float(s)):
                return float(s)
        except (ValueError, ZeroDivisionError):
            pass
    raise ParameterError(f"cannot parse scalar {x!r}")


def parse_complex(x):
    """A complex scalar: an [re, im] pair or any real scalar ``parse_scalar`` takes."""
    if not isinstance(x, list):
        return complex(float(parse_scalar(x)))
    if len(x) != 2:
        raise ParameterError(f"a complex scalar is an [re, im] pair, got {x!r}")
    return complex(*(float(parse_scalar(v)) for v in x))


def need(block, key, where="config"):
    """``block[key]``, or a ParameterError naming the missing key."""
    if not isinstance(block, dict) or key not in block:
        raise ParameterError(f"{where} needs {key!r}")
    return block[key]


def convert(kind, x, what):
    """``kind(x)`` for kind int or float, or a ParameterError naming ``what``;
    int never truncates a fractional number, and a JSON boolean is no number."""
    try:
        if isinstance(x, bool) or (kind is int and isinstance(x, float)
                                   and not x.is_integer()):
            raise ValueError
        return kind(x)
    except (TypeError, ValueError, OverflowError):
        raise ParameterError(f"{what} must be {kind.__name__}, got {x!r}") from None


def positive(x, what):
    """``float(x)`` if it is finite and > 0, else a ParameterError naming ``what``."""
    x = convert(float, x, what)
    if not (math.isfinite(x) and x > 0):
        raise ParameterError(f"{what} must be finite and positive, got {x}")
    return x


def need_list(block, key, where="config"):
    """``block[key]`` if it is a list, else a ParameterError naming the key."""
    xs = need(block, key, where)
    if not isinstance(xs, list):
        raise ParameterError(f"{where} {key!r} must be a list, got {xs!r}")
    return xs


def emit_scalar(x, tolerance=None):
    """Numbers carry provenance: exact values as 'p/q', floats with tolerance."""
    if isinstance(x, (int, Fraction)):
        return {"value": f"{x.numerator}/{x.denominator}", "kind": "exact"}
    out = {"value": float(getattr(x, "real", x)) if not isinstance(x, complex) else
           [x.real, x.imag], "kind": "float"}
    if tolerance is not None:
        out["tolerance"] = tolerance
    return out


class Matrix(list):
    """The rows of a matrix of numbers in a payload; :func:`json_text` prints
    it as rows of :func:`emit_scalar` cells, the text of ``json.dumps`` on
    ``[[emit_scalar(x) for x in row] for row in rows]``."""


def index_label(A, L, N):
    bits = []
    for m in range(1, L):
        for i in range(1, N + 1):
            e = A[polyalg.flat_pos(m, i, N)]
            if e:
                bits.append(f"m{m}i{i}:{e}")
    return ",".join(bits) if bits else "1"


def load_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror or exc}") from exc


# Every key some subcommand reads, per config block (None: the top level), so
# one config serves every subcommand.
CONFIG_KEYS = {
    None: {"model", "parameters", "z", "i", "order", "lemma_samples", "path", "c0",
           "quadrature", "tolerances"},
    "model": {"L", "N", "M", "T"},
    "parameters": {"e", "kappa", "theta", "theta0", "hbar", "planck"},
    "quadrature": {"scheme", "nodes_per_axis", "mc_samples", "seed", "stabilize_tol"},
    "tolerances": {"rtol", "atol", "pde"},
}


def check_config_keys(cfg):
    """Reject a config key no subcommand reads, naming it."""
    for block, known in CONFIG_KEYS.items():
        d = cfg if block is None else cfg.get(block, {})
        where = "config" if block is None else f"config {block!r} block"
        if not isinstance(d, dict):
            raise ParameterError(f"{where} must be a JSON object")
        unknown = sorted(set(d) - known)
        if unknown:
            raise ParameterError(f"unknown {where} keys: {', '.join(unknown)}")


def get_LN(cfg):
    model = need(cfg, "model")
    return tuple(convert(int, need(model, k, "config 'model' block"), f"model {k}")
                 for k in ("L", "N"))


def build_parameters(cfg) -> weylops.Parameters:
    L, N = get_LN(cfg)
    p = need(cfg, "parameters")
    where = "config 'parameters' block"
    e, kappa, theta = ([parse_scalar(x) for x in need_list(p, k, where)]
                       for k in ("e", "kappa", "theta"))
    hbar = parse_scalar(p.get("hbar", 1))
    planck = parse_scalar(p.get("planck", 1))
    theta0 = parse_scalar(p["theta0"]) if "theta0" in p else None
    return weylops.make_parameters(L, N, e=e, kappa=kappa, theta=theta,
                                   theta0=theta0, hbar=hbar, planck=planck)


def get_z(cfg, args):
    if args.z is not None:
        return tuple(parse_scalar(s) for s in args.z.split(","))
    return tuple(parse_scalar(x) for x in need_list(cfg, "z"))


def get_zf(cfg, args):
    """The point z as floats, for the quadrature-based subcommands."""
    return tuple(float(x) for x in get_z(cfg, args))


def get_i(cfg, args, params):
    i = args.i if args.i is not None else convert(int, cfg.get("i", 1), "i")
    weylops.check_times(params.N, i)
    return i


def get_space(cfg, args):
    model = need(cfg, "model")
    if args.M is not None:
        return ("V", args.M)
    if "M" in model:
        return ("V", convert(int, model["M"], "model M"))
    if "T" in model:
        T = model["T"]
        if not isinstance(T, list):
            raise ParameterError(f"model T must be a list, got {T!r}")
        return ("F", tuple(convert(int, t, "model T entry") for t in T))
    raise ParameterError("config model must carry M (for V(M)) or T (for F(T))")


def get_M(cfg, args):
    kind, M = get_space(cfg, args)
    if kind != "V":
        raise ParameterError("integral solutions live on V(M): config model must carry M")
    return M


def get_quad(cfg, args):
    q = dict(cfg.get("quadrature", {}))
    scheme = q.get("scheme", QuadratureSpec.scheme)
    unread = "nodes" if scheme == "monte_carlo" else "seed"  # only tensor rules read --nodes
    if getattr(args, unread) is not None:
        build_argparser().error(f"{args.command} with scheme {scheme!r} does not read --{unread}")
    if args.nodes is not None:
        q["nodes_per_axis"] = args.nodes
    if args.seed is not None:
        q["seed"] = args.seed
    return QuadratureSpec(**q)


def _joined(entries, pad, brackets, keys=None):
    """A JSON list, or a dict with the texts ``keys``, from its entries' texts
    in one join, one entry a line; no entry text is copied before the join."""
    if not entries:
        return brackets
    inner = pad + "  "
    step = 2 if keys is None else 3
    parts = [",\n" + inner] * (step * len(entries) + 1)
    parts[step - 1::step] = entries
    if keys is not None:
        parts[1::3] = keys
    parts[0], parts[-1] = brackets[0] + "\n" + inner, "\n" + pad + brackets[1]
    return "".join(parts)


def _matrix_text(rows, pad, text):
    """The text of a :class:`Matrix` at indent ``pad``, one join per row.

    Each distinct cell is rendered once: an exact one per value, into the text
    ``emit_scalar`` gives 0, and any other once per object, such as the zero
    that every empty entry of ``matrix_at`` shares.  A row's texts are looked
    up by ``id`` in C, and only the misses are filled in Python.  The ids
    hold while ``rows`` lives."""
    row_pad = pad + "  "
    cell_pad = row_pad + "  "
    head, tail = text(emit_scalar(Fraction(0)), cell_pad).split('"0/1"')
    exact, by_id = {}, {}

    def render(x):
        if not isinstance(x, (int, Fraction)):
            out = text(emit_scalar(x), cell_pad)
        elif (out := exact.get(key := (x.numerator, x.denominator))) is None:
            out = exact[key] = f'{head}"{key[0]}/{key[1]}"{tail}'
        by_id[id(x)] = out
        return out

    get, lines = by_id.get, []
    for row in rows:
        cells, k = list(map(get, map(id, row))), -1
        try:
            while True:
                k = cells.index(None, k + 1)
                cells[k] = render(row[k])
        except ValueError:
            lines.append(_joined(cells, row_pad, "[]"))
    return _joined(lines, pad, "[]")


def json_text(payload):
    """``json.dumps(payload, indent=2, sort_keys=True) + "\\n"``, written directly.

    With ``indent`` json runs its pure-Python encoder, which yields and joins
    one small piece at a time.  Here each dict and list is one join of its
    entries' texts, and a :class:`Matrix` is written by :func:`_matrix_text`."""

    def text(x, pad):
        if isinstance(x, Matrix):
            return _matrix_text(x, pad, text)
        if isinstance(x, dict):
            keys = sorted(x)
            return _joined([text(x[k], pad + "  ") for k in keys], pad, "{}",
                           [json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": "
                            for k in keys])
        if isinstance(x, (list, tuple)):
            return _joined([text(v, pad + "  ") for v in x], pad, "[]")
        return json.dumps(x)  # a str, number, bool or None, else TypeError

    return text(payload, "") + "\n"


def write_output(args, payload):
    text = json_text(payload)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)


def write_csv_matrix(path, mat, basis, L, N):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([index_label(A, L, N) for A in basis])
        for row in mat:
            w.writerow([f"{x.numerator}/{x.denominator}" if isinstance(x, (int, Fraction))
                        else repr(x) for x in row])


# --- subcommands ----------------------------------------------------------------

def cmd_basis(cfg, args):
    L, N = get_LN(cfg)
    kind, data = get_space(cfg, args)
    if kind == "V":
        basis = polyalg.enumerate_basis(L, N, data)
        space = {"kind": "V", "M": data}
    else:
        basis = polyalg.enumerate_basis_FT(L, N, data)
        space = {"kind": "F", "T": list(data)}
    payload = {
        "space": space,
        "dimension": len(basis),
        "basis": [list(A) for A in basis],
        "labels": [index_label(A, L, N) for A in basis],
    }
    write_output(args, payload)
    return 0


def cmd_hamiltonian(cfg, args):
    params = build_parameters(cfg)
    z = get_z(cfg, args)
    space = get_space(cfg, args)
    i = get_i(cfg, args, params)
    system = pfaffian.PfaffianSystem(params, space)
    mat = system.matrix_at(i, z)
    if args.out and args.out.endswith(".csv"):
        write_csv_matrix(args.out, mat, system.basis, params.L, params.N)
        print(f"wrote {args.out}", file=sys.stderr)
        return 0
    payload = {
        "space": {"kind": space[0], "data": space[1] if isinstance(space[1], int)
                  else list(space[1])},
        "i": i,
        "z": [emit_scalar(x) for x in z],
        "dimension": system.dim,
        "basis_labels": [index_label(A, params.L, params.N) for A in system.basis],
        "matrix": Matrix(mat),
    }
    write_output(args, payload)
    return 0


def _check_commute(cfg, args, params, z, system):
    weylops.check_z(params, z)  # a pole is exit 3 even when N = 1 leaves no pair
    probes = polyalg.enumerate_basis(params.L, params.N, args.dmax)
    # [H_i, H_i] = 0 by construction, so only the pairs i < j prove anything
    pairs = list(itertools.combinations(range(1, params.N + 1), 2))
    hams = {}  # each H_k is built once and shared by every pair
    worst = max([Fraction(0)] + [weylops.commutator_residual(i, j, params, z, probes,
                                                             hams=hams)
                                 for i, j in pairs])
    return {"residual": emit_scalar(worst), "pairs": len(pairs),
            "probes": len(probes)}, worst == 0


def _check_braid(cfg, args, params, z, system):
    probes = polyalg.enumerate_basis(params.L, params.N, min(args.dmax, 2))
    worst = weylops.ahat_commutator_residual(1, 1, params, probes)
    if params.N >= 2:
        worst = max(worst, weylops.ahat_commutator_residual(1, 2, params, probes))
    residuals = [weylops.braid_residual_adjacent(i, j, k, params, probes)
                 for i, j, k in itertools.permutations(range(1, params.N + 1), 3)]
    residuals += [weylops.braid_residual_disjoint(1, 2, 3, l, params, probes)
                  for l in range(4, params.N + 1)]
    worst = max([worst] + residuals)
    return {"residual": emit_scalar(worst), "triples": len(residuals),
            "probes": len(probes)}, worst == 0


def _check_flatness(cfg, args, params, z, system):
    # Kohno's conditions on the constant residues: a proof for every z
    r = pfaffian.flatness_residual(system())
    return {"commutator": emit_scalar(r.commutator),
            "derivative_rel": emit_scalar(float(r.derivative_rel)),
            "conditions": r.conditions}, r.commutator == 0 and r.derivative_rel == 0


def _check_subspace(cfg, args, params, z, system):
    # restricting every H_j raises SubspaceError on leakage
    restricted = system()
    restricted.residues
    return {"dimension": restricted.dim, "overflow": emit_scalar(Fraction(0))}, True


def _check_garnier(cfg, args, params, z, system):
    if params.L != 2:
        if args.which != "all":
            raise ParameterError("the explicit-example check needs L = 2")
        return {"skipped": "the explicit example exists only for L = 2"}, True
    probes = polyalg.enumerate_basis(params.L, params.N, args.dmax)
    worst = Fraction(0)
    for i in range(1, params.N + 1):
        worst = max(worst, weylops.garnier_example_residual(i, params, z, probes))
    return {"deviation": emit_scalar(worst), "probes": len(probes)}, worst == 0


def _check_lemmas(cfg, args, params, z, system):
    import random
    rng = random.Random(args.seed if args.seed is not None else 20240)
    nsamples = convert(int, cfg.get("lemma_samples", 10), "lemma_samples")
    if nsamples < 1:
        raise ParameterError(f"lemma_samples must be at least 1, got {nsamples}")
    worst = dict.fromkeys(cohomology.LEMMA_IDS, Fraction(0))
    for _ in range(nsamples):
        for lemma, r in cohomology.lemma_round(params.L, rng).items():
            worst[lemma] = max(worst[lemma], r)
    detail = {lemma: emit_scalar(r) for lemma, r in worst.items()}
    return {"residuals": detail, "samples": nsamples}, not any(worst.values())


# each check's handler and the flags it reads besides --L, --N and --out
CHECKS = {
    "commute": (_check_commute, "z dmax"),
    "braid": (_check_braid, "dmax"),
    "flatness": (_check_flatness, "M"),
    "subspace": (_check_subspace, "M"),
    "garnier": (_check_garnier, "z dmax"),
    "lemmas": (_check_lemmas, "seed"),
}


def cmd_check(cfg, args):
    names = list(CHECKS) if args.which == "all" else [args.which]
    reads = {flag for name in names for flag in CHECKS[name][1].split()}
    for flag in COMMANDS["check"][1].split():
        if getattr(args, flag) is not None and flag not in reads:
            build_argparser().error(f"check {args.which} does not read --{flag}")
    for flag, x in (("dmax", args.dmax), ("seed", args.seed)):
        if x is not None and x < 0:
            raise ParameterError(f"--{flag} must be nonnegative, got {x}")
    args.dmax = 2 if args.dmax is None else args.dmax
    params = build_parameters(cfg)
    z = get_z(cfg, args) if "z" in reads else ()
    # the checks read every scalar but planck, and float noise is never exactly 0
    pfaffian.require_exact(params, z)
    # one restriction shared by the checks of this command, built on first use
    system = functools.cache(lambda: pfaffian.PfaffianSystem(params, get_space(cfg, args)))
    report = {}
    all_ok = True
    for name in names:
        detail, ok = CHECKS[name][0](cfg, args, params, z, system)
        report[name] = {"passed": ok, **detail}
        all_ok = all_ok and ok
        status = f"skip ({detail['skipped']})" if "skipped" in detail else (
            "pass" if ok else "FAIL")
        print(f"check {name}: {status}", file=sys.stderr)
    write_output(args, {"checks": report, "passed": all_ok})
    return 0 if all_ok else 1


def cmd_pfaffian(cfg, args):
    params = build_parameters(cfg)
    space = get_space(cfg, args)
    system = pfaffian.PfaffianSystem(params, space)
    waypoints = need(load_config(args.path), "path", args.path) if args.path else cfg.get("path")
    if waypoints is None:
        raise ParameterError("pfaffian needs a path: config 'path' or --path FILE")
    if not isinstance(waypoints, list) or not all(isinstance(w, list) for w in waypoints):
        raise ParameterError("a path is a list of waypoints, each a list of N scalars")
    zpath = pfaffian.ZPath([[parse_complex(x) for x in w] for w in waypoints])
    if "c0" not in cfg:
        raise ParameterError("pfaffian needs an initial vector 'c0' in the config")
    c0 = np.array([parse_complex(x) for x in need_list(cfg, "c0")])
    tol = cfg.get("tolerances", {})
    rtol = positive(tol.get("rtol", 1e-10), "tolerances rtol")
    atol = positive(tol.get("atol", 1e-12), "tolerances atol")
    vec, stats = pfaffian.propagate(system, zpath, c0, rtol=rtol, atol=atol)
    payload = {
        "endpoint": [emit_scalar(complex(x)) for x in vec],
        "steps": {"accepted": stats.steps, "rejected": 0, "rhs_evaluations": stats.products},
        "rtol": rtol, "atol": atol,
    }
    write_output(args, payload)
    return 0


def cmd_integral(cfg, args):
    params = build_parameters(cfg)
    z = get_zf(cfg, args)
    M = get_M(cfg, args)
    quad = get_quad(cfg, args)
    res = hypint.eval_psiM(params, z, M, quad)
    payload = {
        "basis_labels": [index_label(A, params.L, params.N) for A in res.basis],
        "coefficients": [emit_scalar(float(v), res.convergence) for v in res.vector],
        "convergence": res.convergence,
        "meta": res.meta,
    }
    write_output(args, payload)
    return 0


def cmd_series(cfg, args):
    params = build_parameters(cfg)
    z = get_zf(cfg, args)
    order = convert(int, cfg.get("order", 30), "order")
    res = hypint.series_psi1(params, z, order)
    payload = {
        "basis_labels": [index_label(A, params.L, params.N) for A in res.basis],
        "coefficients": [emit_scalar(float(v), res.meta["tail_bound"]) for v in res.vector],
        "order": order,
        "tail_bound": res.meta["tail_bound"],
    }
    write_output(args, payload)
    return 0


def cmd_verify(cfg, args):
    params = build_parameters(cfg)
    z = get_z(cfg, args)
    zf = tuple(float(x) for x in z)
    M = get_M(cfg, args)
    quad = get_quad(cfg, args)
    i = get_i(cfg, args, params)
    tol = positive(cfg.get("tolerances", {}).get("pde", 1e-4), "tolerances pde")

    # residue equality is a proof for every z, so a decimal z compares too; it
    # runs first because it rejects the reduction's domain before any quadrature
    cmpres = cohomology.compare_cohomology_operator(params, z, M, i)
    residual = hypint.pde_residual(params, zf, M, quad, i=i)
    comparison = {
        "exact_equal": cmpres.exact_equal,
        "max_abs_diff": emit_scalar(cmpres.max_abs_diff),
        "lambda_shift": None if cmpres.lambda_shift is None
        else emit_scalar(cmpres.lambda_shift),
    }
    if not cmpres.exact_equal:
        comparison["discrepancy"] = Matrix(cmpres.discrepancy)
    cmp_ok = cmpres.exact_equal or cmpres.lambda_shift is not None

    if args.plot:
        lo, hi = sorted((0.98 * zf[i - 1], min(1.02 * zf[i - 1], 0.97)))
        grid = np.linspace(lo, hi, 13)
        curves = []
        for g in grid:
            zz = list(zf)
            zz[i - 1] = float(g)
            curves.append(hypint.eval_psiM(params, tuple(zz), M, quad).vector)
        curves = np.array(curves)
        basis = polyalg.enumerate_basis(params.L, params.N, M)
        series = [(index_label(A, params.L, params.N), list(grid), list(curves[:, k]))
                  for k, A in enumerate(basis)]
        write_line_chart(args.plot, series, title="coefficient trajectories",
                         xlabel=f"z_{i}", ylabel="c_A")
        print(f"wrote {args.plot}", file=sys.stderr)

    ok = residual < tol and cmp_ok
    write_output(args, {
        "pde_residual": emit_scalar(residual, tol),
        "pde_tolerance": tol,
        "cohomology_vs_operator": comparison,
        "passed": bool(ok),
    })
    return 0 if ok else 1


# each subcommand's handler and the flags it reads besides --L, --N and --out
COMMANDS = {
    "basis": (cmd_basis, "M"),
    "hamiltonian": (cmd_hamiltonian, "M z i"),
    "check": (cmd_check, "M z dmax seed"),
    "pfaffian": (cmd_pfaffian, "M path"),
    "integral": (cmd_integral, "M z nodes seed"),
    "series": (cmd_series, "z"),
    "verify": (cmd_verify, "M z i nodes seed plot"),
}
FLAGS = {"L": {"type": int}, "N": {"type": int}, "out": {}, "M": {"type": int}, "z": {},
         "i": {"type": int}, "nodes": {"type": int}, "seed": {"type": int},
         "dmax": {"type": int}, "plot": {}, "path": {}}


@functools.cache
def build_argparser():
    ap = argparse.ArgumentParser(prog="qims",
                                 description="quantum isomonodromic system toolkit")
    ap.add_argument("--config", required=False, help="JSON run configuration")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (_, flags) in COMMANDS.items():
        # no abbreviations: a flag this subcommand lacks must not match another
        # one, such as --h matching --help
        p = sub.add_parser(name, allow_abbrev=False)
        if name == "check":
            p.add_argument("which", choices=list(CHECKS) + ["all"])
        for flag in ["L", "N", "out"] + flags.split():
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return ap


def main(argv=None):
    args = build_argparser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        check_config_keys(cfg)
        if args.L is not None or args.N is not None:
            cfg.setdefault("model", {})
            if args.L is not None:
                cfg["model"]["L"] = args.L
            if args.N is not None:
                cfg["model"]["N"] = args.N
        return COMMANDS[args.command][0](cfg, args)
    except NUMERIC_ERRORS as exc:
        write_output(args, {"error": {"code": 3, "type": type(exc).__name__,
                                      "message": str(exc)}})
        return 3
    except CONFIG_ERRORS as exc:
        write_output(args, {"error": {"code": 2, "type": type(exc).__name__,
                                      "message": str(exc)}})
        return 2


if __name__ == "__main__":
    sys.exit(main())

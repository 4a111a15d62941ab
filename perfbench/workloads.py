"""Seeded job generators for the three benchmark workloads.

A job is one ``qims`` CLI call: a subcommand with its arguments plus the
JSON config it reads.  Jobs come in cycles.  Every cycle of a workload has
the same job kinds in the same order, and every job draws fresh parameters
from a stream seeded by (workload, seed, cycle), so the same seed gives the
same jobs and no two jobs of a run share parameters.

The parameter constructions (resonant strata, integrability windows) follow
the package's own acceptance tests but live here, so the benchmark imports
nothing from ``tests/``.  Quantities that only the oracles need (expected
endpoints, known-defect flags) go into ``Job.expect`` and never reach
``qims``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from math import comb

WORKLOADS = ("exact_identities", "restriction_transport", "integral_solutions")

# A contractible loop must bring c0 back within this share of max(1, |c0|).
LOOP_RETURN_BOUND = 1e-6
# Open-path transport against direct quadrature at the endpoint (criterion 11).
OPEN_PATH_BOUND = 1e-4
# Series oracle against Gauss-Jacobi quadrature (criterion 9).
SERIES_BOUND = 1e-8


@dataclass
class Job:
    kind: str                      # e.g. "check_all", "hamiltonian_V", "loop"
    size: str                      # human label such as "L3N2M1"
    argv: list                     # CLI arguments after ``--config FILE``
    cfg: dict                      # the JSON config the job reads
    expect: dict = field(default_factory=dict)

    def key(self):
        """Identity of the job's inputs, for the repeated-parameter share."""
        return json.dumps([self.cfg.get("parameters"), self.cfg.get("z"),
                           self.cfg.get("path"), self.cfg.get("c0"), self.argv],
                          sort_keys=True)


# --- exact rational parameter constructions --------------------------------------

def near(rnd, base, den, spread=20):
    """base + k/den for a random nonzero |k| <= spread.  With den a prime above
    spread every draw keeps the same denominator, so exact arithmetic costs
    about the same from draw to draw while no two draws coincide."""
    return F(base) + F(rnd.choice([k for k in range(-spread, spread + 1) if k]), den)


def random_z(N, rnd):
    """Distinct real points z_k near 1/4, 1/2, 3/4, away from the poles."""
    return [near(rnd, F(1 + k, 4) if N > 1 else F(2, 5), 113, 12) for k in range(N)]


def resonant(L, N, M, rnd, dict_m=False):
    """kappa_0 - sum(theta) = M; with dict_m also kappa_n = 1 for n >= 2."""
    theta = [near(rnd, F(2, 7 + 2 * i), 101) for i in range(N)]
    rest = [F(1)] * (L - 2) if dict_m else [near(rnd, F(2, 3), 107)
                                             for _ in range(L - 2)]
    kappa = [M + sum(theta), near(rnd, F(-3, 2), 103)] + rest
    ev = [near(rnd, F(n, 5) - F(1, 4), 109) for n in range(1, L)]
    e = [F(L - 1, 2) - sum(ev)] + ev
    return {"e": e, "kappa": kappa, "theta": theta, "planck": F(1)}


def ft_params(L, N, T, rnd):
    """kappa_m = -T_m keeps F(T) invariant."""
    theta = [near(rnd, F(2, 7 + 2 * i), 101) for i in range(N)]
    kappa = [near(rnd, F(1, 3), 103)] + [-F(t) for t in T]
    ev = [near(rnd, F(n, 5) - F(1, 4), 109) for n in range(1, L)]
    e = [F(L - 1, 2) - sum(ev)] + ev
    return {"e": e, "kappa": kappa, "theta": theta, "planck": F(1)}


def solve_e(alphas, interior_shifts):
    """e_0..e_{L-1} with alpha_n = e_{n+1} - e_n + interior_shifts[n-1] for
    n = 1..L-2, alpha_{L-1} = e_0 - e_{L-1} + 1 and sum(e) = (L-1)/2."""
    L = len(alphas) + 1
    c = [F(0)]
    for n in range(1, L - 1):
        c.append(c[n - 1] + alphas[n - 1] - interior_shifts[n - 1])
    c0 = c[L - 2] + alphas[L - 2] - 1
    x = (F(L - 1, 2) - (sum(c) + c0)) / L
    return [x + c0] + [x + ck for ck in c]


def m1_window(L, N, rnd, planck=2):
    """Degree-1 resonance with every cube exponent integrable (alpha_n > 0,
    gamma_n = kappa_n < 0, planck > 0), jittered per draw."""
    alphas = [F(3, 5) + F(n, 7) + F(rnd.randint(0, 4), 40) for n in range(L - 1)]
    gammas = [-F(1, n + 3) - F(rnd.randint(0, 3), 60) for n in range(1, L)]
    theta = [F(2, 7 + 2 * i) + F(rnd.randint(0, 4), 50) for i in range(N)]
    kappa = [1 + sum(theta)] + gammas
    return {"e": solve_e(alphas, gammas[1:]), "kappa": kappa, "theta": theta,
            "planck": F(planck)}


def fast_decay_m1(L, rnd):
    """N = 1 degree-1 window whose series converges quickly for |z| <= 1/2."""
    alphas = [F(3, 5) + F(n, 7) + F(rnd.randint(0, 4), 40) for n in range(L - 1)]
    gammas = [F(-2) - F(n, 5) - F(rnd.randint(0, 3), 30) for n in range(1, L)]
    theta = [F(2, 7) + F(rnd.randint(0, 4), 50)]
    kappa = [1 + theta[0]] + gammas
    return {"e": solve_e(alphas, gammas[1:]), "kappa": kappa, "theta": theta,
            "planck": F(1)}


def m_window(N, M, rnd, planck=2):
    """Degree-M dictionary window for L = 2 (alpha > 0, gamma < 0, planck > 0)."""
    alpha = F(3, 4) + F(rnd.randint(0, 4), 40)
    theta = [F(2, 7 + 2 * i) + F(rnd.randint(0, 4), 50) for i in range(N)]
    gamma = F(-1, 2) + F(rnd.randint(-2, 2), 40)
    kappa = [M + sum(theta), gamma - M + 1]
    return {"e": solve_e([alpha], []), "kappa": kappa, "theta": theta,
            "planck": F(planck)}


def s(x):
    return f"{x.numerator}/{x.denominator}"


def config(L, N, params, z=None, space=None, **extra):
    model = {"L": L, "N": N}
    if space is not None:
        model.update(space)
    cfg = {"model": model,
           "parameters": {k: ([s(x) for x in v] if isinstance(v, list) else s(v))
                          for k, v in params.items()}}
    if z is not None:
        cfg["z"] = [s(x) for x in z]
    cfg.update(extra)
    return cfg


# --- workloads -------------------------------------------------------------------

# (L, N) configs and how many fresh draws of each one cycle holds.  The small
# configs repeat so that a run of a few dozen seconds holds over 100 jobs;
# (2, 3) comes twice because job_p90_s falls on its commute job, and the
# larger ones once, so that a run samples each of them several times.
EXACT_SIZES = (((2, 2), 4), ((2, 3), 2), ((3, 1), 4), ((3, 2), 1), ((3, 3), 1),
               ((4, 1), 4))


def exact_identities(rnd, small=False):
    jobs = []
    for (L, N), copies in EXACT_SIZES:
        if small and (L, N) not in ((2, 2), (3, 1)):
            continue
        for _ in range(1 if small else copies):
            dmax = 2 if (L, N) == (3, 3) else 3
            cfg = config(L, N, resonant(L, N, 1, rnd), random_z(N, rnd), {"M": 1})
            jobs.append(Job("check_commute", f"L{L}N{N}", ["check", "commute", "--dmax",
                                                           str(dmax)], cfg))
            cfg = config(L, N, resonant(L, N, 1, rnd), random_z(N, rnd), {"M": 1})
            # check all exits 2 at L >= 3: _check_garnier raises ParameterError
            # after commute, braid, flatness and subspace pass (known defect)
            jobs.append(Job("check_all", f"L{L}N{N}",
                            ["check", "all", "--seed", str(rnd.randint(1, 10**6))], cfg,
                            {"known_defect": L != 2}))
    return jobs


def _complex_loop(z0, rnd):
    """Closed pole-avoiding loop through complex z around the real point z0."""
    r = [near(rnd, F(1, 20), 1009, 5) for _ in range(3)]
    offsets = [(r[0], r[1] / 2), (r[1] / 3, r[2]), (-r[2] / 2, r[0] / 2)]
    pts = [[[float(z), 0.0] for z in z0]]
    for k, (dre, dim) in enumerate(offsets):
        pts.append([[float(z + (dre if j == k % len(z0) else dre / 2)),
                     float(dim if j == k % len(z0) else -dim / 2)]
                    for j, z in enumerate(z0)])
    pts.append(pts[0])
    return pts


def restriction_transport(rnd, small=False, quad=None):
    """``quad`` maps (params, z) to the degree-1 coefficient vector; it seeds
    the open-path jobs with a start vector that lies on a true solution."""
    jobs = []
    hams = [(2, 1, 150), (3, 3, 2), (2, 3, 3), (4, 1, 3)]
    if small:
        hams = [(2, 1, 20)]
    for L, N, M in hams:
        cfg = config(L, N, resonant(L, N, M, rnd, dict_m=True), random_z(N, rnd),
                     {"M": M}, i=rnd.randint(1, N))
        jobs.append(Job("hamiltonian_V", f"L{L}N{N}M{M}", ["hamiltonian"], cfg))
    for L, N, T in [(3, 2, (2, 2))]:
        cfg = config(L, N, ft_params(L, N, T, rnd), random_z(N, rnd), {"T": list(T)},
                     i=rnd.randint(1, N))
        jobs.append(Job("hamiltonian_F", f"L{L}N{N}T{''.join(map(str, T))}",
                        ["hamiltonian"], cfg))
    flats = [(2, 2, 1)] if small else [(2, 2, 2), (3, 2, 1), (3, 3, 2)]
    for L, N, M in flats:
        cfg = config(L, N, resonant(L, N, M, rnd), random_z(N, rnd), {"M": M})
        jobs.append(Job("flatness", f"L{L}N{N}M{M}", ["check", "flatness"], cfg))
    loops = [(2, 2, 2)] if small else [(2, 2, 6), (3, 2, 2)]
    for L, N, M in loops:
        params = resonant(L, N, M, rnd)
        z0 = [near(rnd, F(3, 10), 113, 5), near(rnd, F(13, 20), 113, 5)]
        dim = _dim_V(L, N, M)
        c0 = [s(F(rnd.randint(-20, 20), 20)) for _ in range(dim)]
        cfg = config(L, N, params, space={"M": M}, path=_complex_loop(z0, rnd), c0=c0,
                     tolerances={"rtol": 1e-10, "atol": 1e-12})
        jobs.append(Job("loop", f"L{L}N{N}M{M}", ["pfaffian"], cfg,
                        {"bound": LOOP_RETURN_BOUND}))
    for L in ((2,) if small else (2, 3, 4)):
        params = m1_window(L, 1, rnd)
        za, zb = near(rnd, F(35, 100), 101, 4), near(rnd, F(55, 100), 101, 4)
        c0 = [float(x) for x in quad(params, float(za))]
        cfg = config(L, 1, params, space={"M": 1}, path=[[s(za)], [s(zb)]], c0=c0,
                     tolerances={"rtol": 1e-10, "atol": 1e-12})
        jobs.append(Job("open_path", f"L{L}N1M1", ["pfaffian"], cfg,
                        {"zb": float(zb), "bound": OPEN_PATH_BOUND}))
    return jobs


def _dim_V(L, N, M):
    return comb(M + (L - 1) * N, (L - 1) * N)


def integral_solutions(rnd, small=False):
    jobs = []
    gj = {"scheme": "gauss_jacobi_tensor", "nodes_per_axis": 24, "stabilize_tol": 1e-8}
    for L in ((2,) if small else (2, 3, 4)):
        for N in (1, 2):
            z = [near(rnd, F(45, 100) - F(17, 100) * k, 101, 3) for k in range(N)]
            cfg = config(L, N, m1_window(L, N, rnd), z, {"M": 1}, quadrature=gj)
            jobs.append(Job("integral_gj", f"L{L}N{N}M1", ["integral"], cfg))
    ts = [(1, 2, 61), (2, 2, 61), (2, 3, 49)] if not small else [(1, 2, 21)]
    for N, M, nodes in ts:
        z = [near(rnd, F(4, 10) - F(2, 10) * k, 101, 3) for k in range(N)]
        q = {"scheme": "tanh_sinh_tensor", "nodes_per_axis": nodes, "stabilize_tol": 1e-6}
        cfg = config(2, N, m_window(N, M, rnd), z, {"M": M}, quadrature=q)
        jobs.append(Job("integral_ts", f"L2N{N}M{M}", ["integral"], cfg))
    q = {"scheme": "monte_carlo", "mc_samples": 20_000 if small else 200_000,
         "seed": rnd.randint(1, 10**6), "stabilize_tol": 2e-2}
    z = [near(rnd, F(4, 10), 101, 3), near(rnd, F(2, 10), 101, 3)]
    cfg = config(2, 2, m_window(2, 3, rnd), z, {"M": 3}, quadrature=q)
    jobs.append(Job("integral_mc", "L2N2M3", ["integral"], cfg))
    verifies = [(1, gj)]
    if not small:
        verifies.append((2, {"scheme": "tanh_sinh_tensor", "nodes_per_axis": 81,
                             "stabilize_tol": 1e-6}))
    for M, q in verifies:
        params = m1_window(2, 1, rnd) if M == 1 else m_window(1, M, rnd)
        cfg = config(2, 1, params, [near(rnd, F(4, 10), 101, 3)], {"M": M}, quadrature=q)
        jobs.append(Job("verify", f"L2N1M{M}", ["verify"], cfg))
    for L in ((2,) if small else (2, 3, 4)):
        z = [near(rnd, F(38, 100), 101, 12)]
        cfg = config(L, 1, fast_decay_m1(L, rnd), z, {"M": 1}, order=20)
        jobs.append(Job("series", f"L{L}N1M1", ["series"], cfg, {"bound": SERIES_BOUND}))
    return jobs


class JobStream:
    """Cycles of jobs for one workload and seed; no two jobs share inputs."""

    def __init__(self, workload, seed, small=False, quad=None):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
        self.workload, self.seed, self.small, self.quad = workload, seed, small, quad
        self.seen = set()

    def _draw(self, tag, small):
        rnd = random.Random(f"{self.workload}:{self.seed}:{tag}")
        if self.workload == "exact_identities":
            return exact_identities(rnd, small)
        if self.workload == "restriction_transport":
            return restriction_transport(rnd, small, self.quad)
        return integral_solutions(rnd, small)

    def cycle(self, index, small=False):
        """Cycle ``index``; a draw that repeats an earlier job's inputs is
        drawn again, so the repeated-parameter share is 0 by construction."""
        attempt = 0
        while True:
            jobs = self._draw(f"{index}:{attempt}", small or self.small)
            keys = [j.key() for j in jobs]
            if len(set(keys)) == len(keys) and not self.seen.intersection(keys):
                self.seen.update(keys)
                return jobs
            attempt += 1

    def warmup(self):
        """One small cycle with its own draws, run before timing starts."""
        return self.cycle("warmup", small=True)

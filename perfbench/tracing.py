"""Layer spans and counters for the traced benchmark run, recorded from outside.

The tracer wraps the public entry points of each ``qims`` module, patching
the name where the caller looks it up (``qims.pfaffian.flatten`` for the
build, ``qims.hypint.gauss_jacobi_01`` for the quadrature rules, class
attributes for ``PfaffianSystem`` methods).  Each wrapped call records a
span ``[name, start, end, parent, job]``; spans stay in memory and are
written out when the run ends.  A layer's self time is the duration of its
spans minus the time their direct child spans cover.

Hot inner methods are counted, not wrapped: ``FlatOp.apply_index`` calls
and the generator strings of every ``FlatOp`` built.  The build's column
pass ``pfaffian._columns`` is a loop of ``FlatOp.apply_index`` calls, so
its span is charged to the ``weylops`` layer.  Work counters that need a
returned value (nonzeros, quadrature points) are read after the job ends,
outside every span.

Every per-layer value is a total over the traced jobs divided by their
number, except the ratios, which divide two totals.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from qims import cohomology, hypint, pfaffian, polyalg, weylops

# (module or class, attribute, span name)
SPANS = [
    (polyalg, "enumerate_basis", "polyalg.basis"),
    (pfaffian, "enumerate_basis", "polyalg.basis"),
    (pfaffian, "enumerate_basis_FT", "polyalg.basis"),
    (hypint, "enumerate_basis", "polyalg.basis"),
    (cohomology, "enumerate_basis", "polyalg.basis"),
    (weylops, "make_parameters", "weylops.make_parameters"),
    (weylops, "commutator_residual", "weylops.commutator_residual"),
    (weylops, "ahat_commutator_residual", "weylops.ahat_commutator_residual"),
    (weylops, "braid_residual_adjacent", "weylops.braid_residual_adjacent"),
    (weylops, "braid_residual_disjoint", "weylops.braid_residual_disjoint"),
    (weylops, "garnier_example_residual", "weylops.garnier_example_residual"),
    (pfaffian, "check_z", "weylops.check_z"),
    (pfaffian, "flatten", "weylops.flatten"),
    (pfaffian, "hamiltonian_parts", "weylops.hamiltonian_parts"),
    (pfaffian, "_columns", "weylops.columns"),
    (pfaffian.PfaffianSystem, "__init__", "pfaffian.build"),
    (pfaffian.PfaffianSystem, "matrix_at", "pfaffian.matrix_at"),
    (pfaffian.PfaffianSystem, "matrix_float", "pfaffian.matrix_float"),
    (pfaffian, "flatness_residual", "pfaffian.flatness"),
    (pfaffian, "propagate", "pfaffian.propagate"),
    (hypint, "eval_psiM", "hypint.eval"),
    (hypint, "pde_residual", "hypint.pde_residual"),
    (hypint, "series_psi1", "hypint.series"),
    (hypint, "gauss_jacobi_01", "quadrature.rule"),
    (hypint, "tanh_sinh_01", "quadrature.rule"),
    (cohomology, "compare_cohomology_operator", "cohomology.compare"),
    (cohomology, "pfaffian_from_cohomology", "cohomology.pfaffian_from_cohomology"),
    (cohomology, "lemma_residual", "cohomology.lemma_residual"),
    (cohomology, "random_lemma_sample", "cohomology.random_lemma_sample"),
]

# weylops entry points whose ``probes`` argument is swept once per call
PROBE_SWEEPS = {"weylops.commutator_residual", "weylops.ahat_commutator_residual",
                "weylops.braid_residual_adjacent", "weylops.braid_residual_disjoint",
                "weylops.garnier_example_residual"}
# spans whose arguments or result feed a work counter after the job
COUNTED = PROBE_SWEEPS | {"pfaffian.build", "pfaffian.matrix_at", "hypint.eval"}

# name -> unit of every per-layer metric the traced run reports
PER_LAYER_UNITS = {
    "cli.self_s": "s/job", "cli.output_bytes": "B/job",
    "polyalg.basis_s": "s/job", "polyalg.basis_calls": "count/job",
    "weylops.self_s": "s/job", "weylops.calls": "count/job",
    "weylops.apply_index_calls": "count/job", "weylops.probe_evals": "count/job",
    "weylops.flat_terms": "count/job", "weylops.s_per_probe_eval": "s",
    "pfaffian.build_s": "s/job", "pfaffian.build_calls": "count/job",
    "pfaffian.dim_sum": "count/job",
    "pfaffian.matrix_at_s": "s/job", "pfaffian.matrix_at_calls": "count/job",
    "pfaffian.nnz_frac": "ratio", "pfaffian.flatness_s": "s/job",
    "pfaffian.propagate_s": "s/job", "pfaffian.matrix_float_s": "s/job",
    "pfaffian.matrix_float_calls": "count/job",
    "pfaffian.rk_steps": "count/job", "pfaffian.rhs_evals": "count/job",
    "pfaffian.rk_accept_ratio": "ratio",
    "hypint.eval_s": "s/job", "hypint.eval_calls": "count/job",
    "hypint.pde_residual_s": "s/job", "hypint.series_s": "s/job",
    "hypint.quad_points": "count/job", "hypint.points_per_s": "1/s",
    "quadrature.rule_s": "s/job", "quadrature.rule_calls": "count/job",
    "cohomology.self_s": "s/job", "cohomology.calls": "count/job",
    "trace_overhead": "ratio",
}


def _quad_points(M, L, quad, meta):
    """Integrand points of one evaluation: nodes^K per refinement (one tensor
    per coefficient group at M = 1) or the Monte Carlo sample count."""
    if meta["scheme"] == "monte_carlo":
        return meta["samples"]
    if M == 1:
        K = L - 1
        return L * (meta["nodes"] // 2) ** K + L * meta["nodes"] ** K
    K = (L - 1) * M
    return quad.nodes_per_axis ** K + meta["nodes"] ** K


class Tracer:
    """Span and counter recorder for the traced jobs of one run."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.count = defaultdict(float)
        self.pending = []
        self._saved = []

    # -- recording ---------------------------------------------------------------
    def _wrap(self, fn, name):
        tracer = self
        keep = name in COUNTED

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer.stack
            idx = len(spans)
            spans.append([name, time.perf_counter(), 0.0, stack[-1] if stack else -1,
                          tracer.job])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            if keep:
                tracer.pending.append((name, args, kwargs, out))
            return out

        return traced

    def _install(self):
        for owner, attr, name in SPANS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(fn, name))
        apply_index = weylops.FlatOp.apply_index
        init = weylops.FlatOp.__init__
        count = self.count

        def counted_apply(self_, *args, **kwargs):
            count["apply_index"] += 1
            return apply_index(self_, *args, **kwargs)

        def counted_init(self_, *args, **kwargs):
            init(self_, *args, **kwargs)
            count["flat_terms"] += len(self_.terms)

        for attr, fn, new in (("apply_index", apply_index, counted_apply),
                              ("__init__", init, counted_init)):
            self._saved.append((weylops.FlatOp, attr, fn))
            setattr(weylops.FlatOp, attr, new)

    def _remove(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def run_job(self, job_id, fn, *args):
        """Run one job under a root ``cli.main`` span, with the entry points
        patched only for the duration of the call."""
        self.job = job_id
        self._install()
        try:
            return self._wrap(fn, "cli.main")(*args)
        finally:
            self._remove()

    def after_job(self, payload, output_bytes):
        """Read work counters from returned values and the job's output;
        runs outside every span."""
        count = self.count
        count["jobs"] += 1
        count["output_bytes"] += output_bytes
        for name, args, kwargs, out in self.pending:
            if name in PROBE_SWEEPS:
                count["probe_evals"] += len(kwargs.get("probes", args[-1]))
            elif name == "pfaffian.build":
                count["dim_sum"] += args[0].dim
            elif name == "pfaffian.matrix_at":
                count["nnz"] += sum(1 for row in out for x in row if x != 0)
                count["entries"] += len(out) ** 2
            elif name == "hypint.eval":
                params, M, quad = args[0], args[2], args[3]
                count["quad_points"] += _quad_points(M, params.L, quad, out.meta)
        self.pending.clear()
        steps = payload.get("steps") if isinstance(payload, dict) else None
        if steps:
            count["rk_accepted"] += steps["accepted"]
            count["rk_steps"] += steps["accepted"] + steps["rejected"]
            count["rhs_evals"] += steps["rhs_evaluations"]

    # -- reduction ---------------------------------------------------------------
    def metrics(self, jobs_per_s_traced, jobs_per_s_untraced):
        child = defaultdict(float)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        for k, (name, t0, t1, parent, _) in enumerate(self.spans):
            total[name] += t1 - t0
            calls[name] += 1
            self_time[name.split(".")[0]] += t1 - t0 - child[k]
        layer_calls = defaultdict(int)
        for name, n in calls.items():
            layer_calls[name.split(".")[0]] += n
        c = self.count
        n = max(c["jobs"], 1)

        def ratio(a, b):
            return a / b if b else 0.0

        values = {
            "cli.self_s": self_time["cli"] / n,
            "cli.output_bytes": c["output_bytes"] / n,
            "polyalg.basis_s": total["polyalg.basis"] / n,
            "polyalg.basis_calls": calls["polyalg.basis"] / n,
            "weylops.self_s": self_time["weylops"] / n,
            "weylops.calls": layer_calls["weylops"] / n,
            "weylops.apply_index_calls": c["apply_index"] / n,
            "weylops.probe_evals": c["probe_evals"] / n,
            "weylops.flat_terms": c["flat_terms"] / n,
            "weylops.s_per_probe_eval": ratio(self_time["weylops"], c["probe_evals"]),
            "pfaffian.build_s": total["pfaffian.build"] / n,
            "pfaffian.build_calls": calls["pfaffian.build"] / n,
            "pfaffian.dim_sum": c["dim_sum"] / n,
            "pfaffian.matrix_at_s": total["pfaffian.matrix_at"] / n,
            "pfaffian.matrix_at_calls": calls["pfaffian.matrix_at"] / n,
            "pfaffian.nnz_frac": ratio(c["nnz"], c["entries"]),
            "pfaffian.flatness_s": total["pfaffian.flatness"] / n,
            "pfaffian.propagate_s": total["pfaffian.propagate"] / n,
            "pfaffian.matrix_float_s": total["pfaffian.matrix_float"] / n,
            "pfaffian.matrix_float_calls": calls["pfaffian.matrix_float"] / n,
            "pfaffian.rk_steps": c["rk_steps"] / n,
            "pfaffian.rhs_evals": c["rhs_evals"] / n,
            "pfaffian.rk_accept_ratio": ratio(c["rk_accepted"], c["rk_steps"]),
            "hypint.eval_s": total["hypint.eval"] / n,
            "hypint.eval_calls": calls["hypint.eval"] / n,
            "hypint.pde_residual_s": total["hypint.pde_residual"] / n,
            "hypint.series_s": total["hypint.series"] / n,
            "hypint.quad_points": c["quad_points"] / n,
            "hypint.points_per_s": ratio(c["quad_points"], total["hypint.eval"]),
            "quadrature.rule_s": total["quadrature.rule"] / n,
            "quadrature.rule_calls": calls["quadrature.rule"] / n,
            "cohomology.self_s": self_time["cohomology"] / n,
            "cohomology.calls": layer_calls["cohomology"] / n,
            "trace_overhead": ratio(jobs_per_s_traced, jobs_per_s_untraced),
        }
        return {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans}, fh)

"""Spans and counters recorded from outside the package.

A :class:`Tracer` replaces layer entry points with wrappers at the name each
caller looks up (``from x import f`` binds at import time, so a function is
wrapped in the namespace of the module that calls it).  Each wrapped call
records a span: name, start, end, parent span and op id.  Spans stay in
memory and are written out when the run ends; every per-layer metric is
derived from them by :func:`layer_metrics`.

The same wrappers run in untraced mode with the clock switched off: they
then only hand the returned object to the workload's output checks.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time

# (module the caller looks the name up in, attribute, span name)
WRAPPED = [
    ("nnmix.em", "em_restart_batch", "em.em_restart_batch"),
    ("nnmix.em", "run_em", "em.run_em"),
    ("nnmix.em", "is_critical", "em.is_critical"),
    ("nnmix.em", "gradient_matrix", "em.gradient_matrix"),
    ("nnmix.boundary", "boundary_test", "boundary.boundary_test"),
    ("nnmix.boundary", "sample_algebraic_boundary",
     "boundary.sample_algebraic_boundary"),
    ("nnmix.boundary", "all_witnesses", "rank3cert.all_witnesses"),
    ("nnmix.rank3cert", "rank_factorize", "exactla.rank_factorize"),
    ("nnmix.rank3cert", "matrix_rank", "exactla.matrix_rank"),
    ("nnmix.cli", "nnrank3_membership", "rank3cert.nnrank3_membership"),
    ("nnmix.cli", "nonneg_rank3_factorize", "rank3cert.nonneg_rank3_factorize"),
    ("nnmix.cli", "parse_matrix", "exactla.parse_matrix"),
    ("nnmix.families", "uab_closed_form_mle", "families.uab_closed_form_mle"),
]

# span names whose return value the output checks and counters read
CAPTURED = ("em.em_restart_batch", "em.run_em", "boundary.boundary_test",
            "rank3cert.nnrank3_membership")

HIT_REL_TOL = 1e-6  # a restart "hits" within this relative gap of the best loglik


def _batch_attrs(batch) -> dict:
    best = float(batch.loglik.max())
    hits = int((batch.loglik >= best - HIT_REL_TOL * abs(best)).sum())
    return {"restarts": int(len(batch.loglik)),
            "iters": int(batch.iterations.sum()),
            "converged": int(batch.converged.sum()),
            "hits": hits}


_ATTRS = {
    "em.em_restart_batch": _batch_attrs,
    "em.run_em": lambda res: {"iters": int(res.iterations)},
    "boundary.boundary_test": lambda cls: {"witnesses": int(cls.witnesses)},
    "rank3cert.nnrank3_membership": lambda dec: {"backend": dec.backend,
                                                 "marginal": bool(dec.marginal)},
}


class Tracer:
    """Installs the wrappers; records spans when ``timing`` is on."""

    def __init__(self, timing: bool):
        self.timing = timing
        self.spans: list[dict] = []
        self.captured: dict[str, list] = {name: [] for name in CAPTURED}
        self._stack: list[int] = []
        self._op: int | None = None
        self._saved: list[tuple] = []

    # -- installation ---------------------------------------------------

    def install(self):
        for modname, attr, span_name in WRAPPED:
            module = importlib.import_module(modname)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span_name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, func, span_name: str):
        capture = span_name in CAPTURED
        if not self.timing:
            if not capture:
                return func
            sink = self.captured[span_name]

            def captured(*args, **kwargs):
                result = func(*args, **kwargs)
                sink.append(result)
                return result
            return captured

        def traced(*args, **kwargs):
            with self.span(span_name) as rec:
                result = func(*args, **kwargs)
            if capture:
                self.captured[span_name].append(result)
                rec["attrs"] = _ATTRS[span_name](result)
            return result
        return traced

    # -- spans ----------------------------------------------------------

    def begin_op(self, op: int):
        self._op = op
        for sink in self.captured.values():
            sink.clear()

    def span(self, name: str):
        return _Span(self, name)


class _Span:
    __slots__ = ("tracer", "rec")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.rec = {"id": len(tracer.spans), "name": name,
                    "parent": tracer._stack[-1] if tracer._stack else None,
                    "op": tracer._op, "start": 0.0, "end": 0.0}

    def __enter__(self) -> dict:
        tr = self.tracer
        if tr.timing:
            tr.spans.append(self.rec)
            tr._stack.append(self.rec["id"])
        self.rec["start"] = time.perf_counter()
        return self.rec

    def __exit__(self, *exc):
        self.rec["end"] = time.perf_counter()
        if self.tracer.timing:
            self.tracer._stack.pop()
        return False


def write_spans(spans: list[dict], path):
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec) + "\n")


# -- per-layer metrics ----------------------------------------------------


def _p50(values, scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def em_flops_per_iteration(m: int, n: int, r: int) -> int:
    """Floating-point operations of one E+M round of one restart, as coded.

    P = A diag(lam) B (3mnr), W = U / P (mn), the two contractions W B^T and
    A^T W (4mnr), the factor rescaling (3mr + 3rn), the new P (3mnr) and the
    log-likelihood of the new P (3mn).  A computed count, not a measured one.
    """
    return 10 * m * n * r + 4 * m * n + 3 * m * r + 3 * r * n


def layer_metrics(spans: list[dict], shape=None, op_scale=None) -> dict:
    """Every per-layer metric, from the spans of one traced run.

    Op spans are the roots, named ``harness.<experiment>`` or
    ``cli.<command>``; ``shape`` is (m, n, r) for the EM workloads.  Span
    durations are multiplied by ``op_scale[op]``, the op's factor to
    reference host speed, when given.  A layer that a workload never calls
    reports 0.
    """
    def _dur(rec) -> float:
        scale = op_scale[rec["op"]] if op_scale else 1.0
        return (rec["end"] - rec["start"]) * scale

    by_name: dict[str, list[dict]] = {}
    children: dict[int, float] = {}
    for rec in spans:
        by_name.setdefault(rec["name"], []).append(rec)
        if rec["parent"] is not None:
            children[rec["parent"]] = children.get(rec["parent"], 0.0) + _dur(rec)
    roots = [rec for rec in spans if rec["parent"] is None]
    op_time = sum(_dur(rec) for rec in roots) or float("nan")

    def durs(name):
        return [_dur(rec) for rec in by_name.get(name, [])]

    def share(name):
        return sum(durs(name)) / op_time

    def attr_sum(name, key):
        return sum(rec.get("attrs", {}).get(key, 0) for rec in by_name.get(name, []))

    def self_share(prefix):
        own = [rec for rec in roots if rec["name"].startswith(prefix)]
        return sum(_dur(rec) - children.get(rec["id"], 0.0) for rec in own) / op_time

    out = {}
    batch_time = sum(durs("em.em_restart_batch"))
    restarts = attr_sum("em.em_restart_batch", "restarts")
    iters = attr_sum("em.em_restart_batch", "iters")
    out["em.em_restart_batch.share"] = share("em.em_restart_batch")
    out["em.em_restart_batch.ms_p50"] = _p50(durs("em.em_restart_batch"), 1e3)
    out["em.restart_iters"] = iters
    out["em.restart_iter_us"] = batch_time / iters * 1e6 if iters else 0.0
    out["em.restarts_converged_ratio"] = (
        attr_sum("em.em_restart_batch", "converged") / restarts if restarts else 0.0)
    out["em.restart_hit_ratio"] = (
        attr_sum("em.em_restart_batch", "hits") / restarts if restarts else 0.0)
    out["em.kernel_gflops_computed"] = (
        em_flops_per_iteration(*shape) * iters / batch_time / 1e9
        if shape and batch_time else 0.0)
    polish_time = sum(durs("em.run_em"))
    polish_iters = attr_sum("em.run_em", "iters")
    out["em.run_em.calls"] = len(durs("em.run_em"))
    out["em.run_em.share"] = share("em.run_em")
    out["em.polish_iters"] = polish_iters
    out["em.polish_iter_us"] = polish_time / polish_iters * 1e6 if polish_iters else 0.0
    out["em.is_critical.us_p50"] = _p50(durs("em.is_critical"), 1e6)
    out["em.gradient_matrix.us_p50"] = _p50(durs("em.gradient_matrix"), 1e6)

    out["harness.self_share"] = self_share("harness.")
    out["boundary.boundary_test.share"] = share("boundary.boundary_test")
    out["boundary.boundary_test.ms_p50"] = _p50(durs("boundary.boundary_test"), 1e3)
    out["boundary.sample_algebraic_boundary.share"] = share(
        "boundary.sample_algebraic_boundary")
    out["boundary.witnesses"] = attr_sum("boundary.boundary_test", "witnesses")

    out["rank3cert.all_witnesses.share"] = share("rank3cert.all_witnesses")
    out["rank3cert.all_witnesses.ms_p50"] = _p50(durs("rank3cert.all_witnesses"), 1e3)
    out["rank3cert.nnrank3_membership.ms_p50"] = _p50(
        durs("rank3cert.nnrank3_membership"), 1e3)
    out["rank3cert.nonneg_rank3_factorize.ms_p50"] = _p50(
        durs("rank3cert.nonneg_rank3_factorize"), 1e3)
    floats = [rec["attrs"] for rec in by_name.get("rank3cert.nnrank3_membership", [])
              if rec["attrs"]["backend"] == "float"]
    out["rank3cert.marginal_ratio"] = (
        sum(a["marginal"] for a in floats) / len(floats) if floats else 0.0)

    out["exactla.rank_factorize.share"] = share("exactla.rank_factorize")
    out["exactla.rank_factorize.us_p50"] = _p50(durs("exactla.rank_factorize"), 1e6)
    out["exactla.matrix_rank.us_p50"] = _p50(durs("exactla.matrix_rank"), 1e6)
    out["exactla.parse_matrix.us_p50"] = _p50(durs("exactla.parse_matrix"), 1e6)
    out["families.uab_closed_form_mle.ms_p50"] = _p50(
        durs("families.uab_closed_form_mle"), 1e3)

    out["cli.self_share"] = self_share("cli.")
    for cmd in ("nnrank3", "factorize", "boundary", "family"):
        out[f"cli.{cmd}.ms_p50"] = _p50(durs(f"cli.{cmd}"), 1e3)
    return out


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("ms_p50"):
        return "ms"
    if name.endswith(("us_p50", "_iter_us")):
        return "us"
    if name.endswith("gflops_computed"):
        return "GFLOP/s"
    if name.endswith("ops_per_s") or "ops_per_s_" in name:
        return "1/s"
    if name.endswith(("share", "ratio", "_frac")):
        return "fraction"
    return "count"

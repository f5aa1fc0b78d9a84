"""Per-layer tracing for the benchmark's traced run.

Wrappers go around the public functions of each disclose_eq module and
are bound wherever a module of the package holds a reference to the
original (``from .candidate import solve_beta`` copies the name into the
caller's namespace, so every copy is replaced).  Hot leaf functions only
count calls; layer boundaries also record a span (name, start, end,
parent).  Spans stay in memory and are written out when the process
ends, and self time is computed from them afterwards.

Nothing here changes an argument or a return value, so a traced run must
reproduce the untraced run's numbers exactly; the harness checks that.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter, defaultdict

FAMILIES = {"UniformPrior": "uniform", "PowerPrior": "power", "PiecewiseLinearPrior": "piecewise"}


def family(prior) -> str:
    return FAMILIES[type(prior).__name__]


class Tracer:
    """Spans and counters of one process; thread-safe for the simulator's pool."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []  # id, name, start, end, parent
        self._ids = itertools.count()
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()
        self.cache_info = None  # set by install(): exogenous.r_lower_bar.cache_info

    def _state(self) -> tuple[list[int], Counter]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], Counter())
            with self._lock:
                self._counters.append(state[1])
        return state

    def count(self, key: str, k: int = 1) -> None:
        self._state()[1][key] += k

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._state()[0]
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def summary(self) -> dict:
        """Per-name calls, wall seconds and self seconds, plus the counters."""
        child = defaultdict(float)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for sid, name, start, end, _ in self.spans:
            agg = spans[name]
            agg[0] += 1
            agg[1] += end - start
            agg[2] += end - start - child.get(sid, 0.0)
        counts = Counter()
        for c in self._counters:
            counts.update(c)
        info = self.cache_info() if self.cache_info else None
        return {
            "spans": dict(spans),
            "counts": dict(counts),
            "cache": [info.hits, info.misses] if info else [0, 0],
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tstart\tend\tparent\n")
            for sid, name, start, end, parent in self.spans:
                fh.write(f"{sid}\t{name}\t{start!r}\t{end!r}\t{parent}\n")


def install(tracer: Tracer) -> None:
    """Wrap the layer functions of every disclose_eq module in place."""
    from disclose_eq import (
        candidate,
        cli,
        endogenous,
        exogenous,
        montecarlo,
        posterior,
        priors,
        rootfind,
        verify,
        welfare,
    )

    modules = (candidate, cli, endogenous, exogenous, montecarlo, posterior, priors, rootfind, verify, welfare)

    def rebind(original, wrapper) -> None:
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)

    def spanned(original, name_of):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            name = name_of if isinstance(name_of, str) else name_of(*args, **kwargs)
            return tracer.span(name, original, *args, **kwargs)

        rebind(original, wrapper)

    def counted(original, key_of):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.count(key_of if isinstance(key_of, str) else key_of(*args, **kwargs))
            return original(*args, **kwargs)

        return wrapper

    # root finding: calls are spans, objective evaluations are counted
    bisect_root = rootfind.bisect_root

    def traced_bisect(f, *args, **kwargs):
        outer = getattr(f, "__qualname__", "") == "solve_endog.<locals>.gap"

        def counted_f(x):
            tracer.count("rootfind.bisect_root.evals")
            if outer:
                tracer.count("endogenous.gap_evals")
            return f(x)

        return tracer.span("rootfind.bisect_root", bisect_root, counted_f, *args, **kwargs)

    rebind(bisect_root, functools.wraps(bisect_root)(traced_bisect))

    spanned(candidate.solve_beta, "candidate.solve_beta")
    spanned(exogenous.solve_v_l_eq, "exogenous.solve_v_l_eq")
    tracer.cache_info = exogenous.r_lower_bar.cache_info
    spanned(exogenous.r_lower_bar, "exogenous.r_lower_bar")
    spanned(endogenous.solve_endog, lambda prior, *a, **k: f"endogenous.solve_endog.{family(prior)}")
    spanned(endogenous.validate_equilibrium, "endogenous.validate_equilibrium")
    spanned(verify.check_dm_conditions, "verify.check_dm_conditions")
    spanned(welfare.equilibrium_row, "welfare.equilibrium_row")

    oracle_gap = verify.oracle_gap

    def traced_oracle_gap(eq, m):
        out = tracer.span("verify.oracle_gap", oracle_gap, eq, m)
        tracer.count("verify.oracle_lp_bytes", 8 * (m + 4) ** 2)
        return out

    rebind(oracle_gap, functools.wraps(oracle_gap)(traced_oracle_gap))

    simulate_market = montecarlo.simulate_market

    def sim_name(eq, config) -> str:
        model = config.cost_model
        if isinstance(model, montecarlo.SingleCost):
            return "single" if (config.workers or 1) == 1 else "single_parallel"
        return "discrete" if isinstance(model.costs, verify.DiscreteCosts) else "continuous"

    def traced_simulate(eq, config):
        report = tracer.span(f"montecarlo.simulate_market.{sim_name(eq, config)}", simulate_market, eq, config)
        tracer.count("montecarlo.costly_consumers", report.n_inexperienced)
        return report

    rebind(simulate_market, functools.wraps(simulate_market)(traced_simulate))

    for fn, key in (
        (exogenous.z_function, "exogenous.z_function.calls"),
        (welfare.informativeness_compare, "welfare.informativeness_compare.calls"),
        (montecarlo.reservation_for_cost, "montecarlo.reservation_for_cost.calls"),
        (montecarlo.stop_quantile, "montecarlo.stop_quantile.calls"),
        (montecarlo._simulate_block, "montecarlo.blocks"),
    ):
        rebind(fn, counted(fn, key))

    cls = posterior.PosteriorDistribution
    cls.sample = counted(cls.sample, "posterior.sample.calls")
    cls.excess_above = counted(cls.excess_above, "posterior.excess_above.calls")

    for prior_cls in (priors.UniformPrior, priors.PowerPrior, priors.PiecewiseLinearPrior):
        prior_cls.cdf = counted(prior_cls.cdf, f"priors.cdf.{FAMILIES[prior_cls.__name__]}.calls")
    for name in ("partial_vf", "truncated_moments"):
        base = getattr(priors.Prior, name)
        setattr(
            priors.Prior,
            name,
            counted(base, lambda self, *a, _n=name, **k: f"priors.{_n}.{family(self)}.calls"),
        )


def merge(summaries: list[dict]) -> dict:
    """Sum per-process summaries (the cli workload traces each subprocess)."""
    spans: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    counts: Counter = Counter()
    cache = [0, 0]
    for summ in summaries:
        for name, (calls, wall, self_s) in summ["spans"].items():
            agg = spans[name]
            agg[0] += calls
            agg[1] += wall
            agg[2] += self_s
        counts.update(summ["counts"])
        cache[0] += summ["cache"][0]
        cache[1] += summ["cache"][1]
    return {"spans": dict(spans), "counts": dict(counts), "cache": cache}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(summ: dict) -> dict[str, float]:
    """Per-layer figures: counts per market (per costly consumer for the
    simulator), seconds per call, and ratios."""
    spans, counts = summ["spans"], summ["counts"]

    def calls(name: str) -> int:
        return spans.get(name, [0, 0.0, 0.0])[0]

    def per_call(name: str, col: int) -> float:
        agg = spans.get(name, [0, 0.0, 0.0])
        return _div(agg[col], agg[0])

    fams = ("uniform", "power", "piecewise")
    by_family = {f: calls(f"endogenous.solve_endog.{f}") for f in fams}
    markets = sum(by_family.values())
    costly = counts.get("montecarlo.costly_consumers", 0)
    sims = sum(calls(f"montecarlo.simulate_market.{k}") for k in ("single", "single_parallel", "discrete", "continuous"))
    hits, misses = summ["cache"]
    out = {
        "candidate.solve_beta.calls": _div(calls("candidate.solve_beta"), markets),
        "candidate.solve_beta.self_s": per_call("candidate.solve_beta", 2),
        "rootfind.bisect_root.calls": _div(calls("rootfind.bisect_root"), markets),
        "rootfind.bisect_root.evals": _div(counts.get("rootfind.bisect_root.evals", 0), markets),
        "exogenous.solve_v_l_eq.calls": _div(calls("exogenous.solve_v_l_eq"), markets),
        "exogenous.solve_v_l_eq.self_s": per_call("exogenous.solve_v_l_eq", 2),
        "exogenous.z_function.calls": _div(counts.get("exogenous.z_function.calls", 0), markets),
        "endogenous.gap_evals": _div(counts.get("endogenous.gap_evals", 0), markets),
        "endogenous.validate_equilibrium.s": per_call("endogenous.validate_equilibrium", 1),
        "exogenous.r_lower_bar.calls": _div(calls("exogenous.r_lower_bar"), markets),
        "exogenous.r_lower_bar.hit_ratio": _div(hits, hits + misses),
        "verify.check_dm_conditions.s": per_call("verify.check_dm_conditions", 1),
        "verify.oracle_gap.s": per_call("verify.oracle_gap", 1),
        "verify.oracle_lp_bytes": _div(counts.get("verify.oracle_lp_bytes", 0), calls("verify.oracle_gap")),
        "welfare.equilibrium_row.s": per_call("welfare.equilibrium_row", 1),
        "welfare.informativeness_compare.calls": _div(
            counts.get("welfare.informativeness_compare.calls", 0), markets
        ),
        "montecarlo.blocks": _div(counts.get("montecarlo.blocks", 0), sims),
        "montecarlo.parallel_speedup": _div(
            per_call("montecarlo.simulate_market.single", 1),
            per_call("montecarlo.simulate_market.single_parallel", 1),
        ),
    }
    for f in fams:
        out[f"endogenous.solve_endog.{f}.s"] = per_call(f"endogenous.solve_endog.{f}", 1)
        for fn in ("cdf", "partial_vf", "truncated_moments"):
            out[f"priors.{fn}.{f}.calls"] = _div(counts.get(f"priors.{fn}.{f}.calls", 0), by_family[f])
    for kind in ("single", "discrete", "continuous"):
        out[f"montecarlo.simulate_market.{kind}.s"] = per_call(f"montecarlo.simulate_market.{kind}", 1)
    for key in (
        "montecarlo.reservation_for_cost.calls",
        "montecarlo.stop_quantile.calls",
        "posterior.sample.calls",
        "posterior.excess_above.calls",
    ):
        out[key] = _div(counts.get(key, 0), costly)
    return out

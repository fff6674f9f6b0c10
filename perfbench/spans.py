"""Spans and counters around koopnet's layer boundaries, taken from outside.

``Tracer`` replaces, for the length of a ``with`` block, every function that
``koopnet.experiments`` imports from the other koopnet modules, plus the three
calls the layers make into each other on the hot path
(``recovery.minimize_dfp``, ``recovery.lift_jacobian`` and
``sampling.sigma_quotient``).  Each replaced call records a span: name, start,
end, the span open when it began, and the trial it belongs to.  A trial opens
at each ``generate_er_graph`` call, the first thing every sweep trial (and
every node count of a linearization sweep) does.  Nothing under
``src/koopnet`` is edited; every name is put back on exit.
"""

from __future__ import annotations

import csv
import functools
import inspect
import math
import sys
import time
from dataclasses import dataclass

_INNER = (("koopnet.recovery", "minimize_dfp"),
          ("koopnet.recovery", "lift_jacobian"),
          ("koopnet.sampling", "sigma_quotient"))

SPAN_COLUMNS = ("id", "name", "start", "end", "parent", "trial")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int
    trial: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class DfpRun:
    iterations: int = 0
    fun_evals: int = 0
    grad_evals: int = 0
    converged: bool = False
    capped: bool = False
    failed: bool = False
    fun: float = math.inf


class Tracer:
    """Records spans while active; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.dfp_runs: list[DfpRun] = []
        # per recovery: (minimize_dfp runs in start order, starts without warm)
        self.recoveries: list[tuple[list[DfpRun], int]] = []
        self.rows_scored = 0
        self._stack: list[int] = []
        self._trial = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        span = Span(len(self.spans), name, time.perf_counter(), math.nan,
                    self._stack[-1] if self._stack else -1, self._trial)
        self.spans.append(span)
        self._stack.append(span.id)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SPAN_COLUMNS)
            for s in self.spans:
                writer.writerow([s.id, s.name, repr(s.start), repr(s.end),
                                 s.parent, s.trial])

    # -- patching ------------------------------------------------------------

    def __enter__(self) -> "Tracer":
        experiments = sys.modules["koopnet.experiments"]
        targets = [(experiments, attr) for attr, obj in vars(experiments).items()
                   if inspect.isfunction(obj)
                   and obj.__module__.startswith("koopnet.")
                   and obj.__module__ != "koopnet.experiments"]
        targets += [(sys.modules[mod], attr) for mod, attr in _INNER]
        for module, attr in targets:
            original = getattr(module, attr)
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        left = [f"{m.__name__}.{a}" for m, a, o in self._patched
                if getattr(m, a) is not o]
        self._patched.clear()
        if left:
            raise RuntimeError(f"names not restored after tracing: {left}")

    def _wrap(self, fn):
        layer = fn.__module__.rsplit(".", 1)[-1]
        name = f"{layer}.{fn.__name__}"
        special = {"generate_er_graph": self._traced_graph,
                   "fit": self._traced_fit,
                   "minimize_dfp": self._traced_dfp,
                   "recover_initial_state": self._traced_recovery,
                   "sigma_quotient": self._traced_sigma}.get(fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if special is not None:
                return special(name, fn, args, kwargs)
            return self.call(name, fn, *args, **kwargs)

        return traced

    def _traced_graph(self, name, fn, args, kwargs):
        self._trial += 1
        return self.call(name, fn, *args, **kwargs)

    def _traced_fit(self, name, fn, args, kwargs):
        training = args[0] if args else kwargs["training"]
        return self.call(f"{name}.{training.spec.kind}", fn, *args, **kwargs)

    def _traced_sigma(self, name, fn, args, kwargs):
        matrix = args[0] if args else kwargs["matrix"]
        self.rows_scored += matrix.shape[0]
        return self.call(name, fn, *args, **kwargs)

    def _traced_recovery(self, name, fn, args, kwargs):
        config = args[3] if len(args) > 3 else kwargs.get("config")
        config = config or sys.modules["koopnet.recovery"].OptimizerConfig()
        runs: list[DfpRun] = []
        self.recoveries.append((runs, 1 + config.multistarts))
        return self.call(name, fn, *args, **kwargs)

    def _traced_dfp(self, name, fn, args, kwargs):
        run = DfpRun()
        self.dfp_runs.append(run)
        if self.recoveries:
            self.recoveries[-1][0].append(run)
        fun, grad, *rest = args

        def counted_fun(x):
            run.fun_evals += 1
            return fun(x)

        def counted_grad(x):
            run.grad_evals += 1
            return grad(x)

        cap = kwargs.get("max_iterations",
                         inspect.signature(fn).parameters["max_iterations"].default)
        try:
            result = self.call(name, fn, counted_fun, counted_grad, *rest, **kwargs)
        except BaseException:
            run.failed = True
            raise
        run.iterations = result.iterations
        run.converged = bool(result.converged)
        run.capped = result.iterations >= cap
        run.fun = float(result.fun)
        return result

    # -- summaries -------------------------------------------------------------

    def missing(self, expected) -> list[str]:
        """Expected span names that never fired."""
        fired = {s.name for s in self.spans}
        return [name for name in expected if name not in fired]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures of everything recorded (see BENCHMARK.json)."""
        total: dict[str, float] = {}
        calls: dict[str, int] = {}
        for s in self.spans:
            total[s.name] = total.get(s.name, 0.0) + s.duration
            calls[s.name] = calls.get(s.name, 0) + 1

        def sec(*names):
            return sum(total.get(n, 0.0) for n in names)

        def count(*names):
            return sum(calls.get(n, 0) for n in names)

        roots = [s for s in self.spans if s.parent == -1
                 and s.name.startswith("experiments.run_")]
        root_ids = {s.id for s in roots}
        child_time = sum(s.duration for s in self.spans if s.parent in root_ids)

        runs = self.dfp_runs
        done = [r for r in runs if not r.failed]
        # The least-squares warm start, when recovery adds one, is its last start.
        warm_base = warm_wins = 0
        for rec_runs, plain_starts in self.recoveries:
            if len(rec_runs) != plain_starts + 1:
                continue
            warm_base += 1
            warm, earlier = rec_runs[-1], rec_runs[:-1]
            best_earlier = min((r.fun for r in earlier if not r.failed),
                               default=math.inf)
            if not warm.failed and warm.fun < best_earlier:
                warm_wins += 1

        def frac(part, base):
            return part / base if base else 0.0

        fits = [n for n in calls if n.startswith("koopman.fit.")]
        return {
            "baselines.gramian_nodes_for_budget.s": sec("baselines.gramian_nodes_for_budget"),
            "baselines.linear_observable_recover.s": sec("baselines.linear_observable_recover"),
            "baselines.linear_gft.s": sec("baselines.build_laplacian_basis",
                                          "baselines.linear_gft_select",
                                          "baselines.linear_gft_recover_trajectory"),
            "koopman.fit.poly.s": sec("koopman.fit.poly"),
            "koopman.fit.log.s": sec("koopman.fit.log"),
            "koopman.fit.calls": count(*fits),
            "koopman.build_theta.s": sec("koopman.build_theta"),
            "koopman.assemble_training.s": sec("koopman.assemble_training"),
            "koopman.refine_with_samples.s": sec("koopman.refine_with_samples"),
            "koopman.linearization_nrmse.s": sec("koopman.linearization_nrmse"),
            "sampling.greedy_select.s": sec("sampling.greedy_select"),
            "sampling.greedy_select.calls": count("sampling.greedy_select"),
            "sampling.sigma_quotient.calls": count("sampling.sigma_quotient"),
            "sampling.rows_scored": self.rows_scored,
            "recovery.recover_initial_state.s": sec("recovery.recover_initial_state"),
            "recovery.recover_initial_state.calls": count("recovery.recover_initial_state"),
            "recovery.warm_start_win_frac": frac(warm_wins, warm_base),
            "recovery.warm_start_base": warm_base,
            "optimize.minimize_dfp.s": sec("optimize.minimize_dfp"),
            "optimize.runs": len(runs),
            "optimize.iterations": sum(r.iterations for r in done),
            "optimize.fun_evals": sum(r.fun_evals for r in runs),
            "optimize.grad_evals": sum(r.grad_evals for r in runs),
            "optimize.iter_cap_frac": frac(sum(r.capped for r in done), len(runs)),
            "optimize.converged_frac": frac(sum(r.converged for r in done), len(runs)),
            "optimize.start_failed_frac": frac(len(runs) - len(done), len(runs)),
            "observables.lift_jacobian.s": sec("observables.lift_jacobian"),
            "observables.lift_jacobian.calls": count("observables.lift_jacobian"),
            "dynamics.simulate_ensemble.s": sec("dynamics.simulate_ensemble"),
            "dynamics.simulate_ensemble.calls": count("dynamics.simulate_ensemble"),
            "experiments.self_s": sum(s.duration for s in roots) - child_time,
            "experiments.emit.s": sec("experiments.emit"),
        }

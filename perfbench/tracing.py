"""In-memory span tracer that wraps ncgauge's layer functions from outside.

The tracer never edits the package source.  `install` replaces each target
function in every ncgauge module namespace and class that binds it with a
wrapper that opens a span (name, start, end, parent, pass id) around the
call; `uninstall` puts the originals back.  Spans stay in memory until the
run ends.  A span's self time is its duration minus the part of its
interval that its direct child spans cover.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

# (module, qualified name, metric) for every wrapped function.  Several
# functions share one metric where they do one job (e.g. both adaptedness
# tests); the private product kernels are listed because mul_P reaches them
# through the heisenberg module globals.
TARGETS = [
    ("quadfield", "pell_unit", "quadfield.pell_unit"),
    ("quadfield", "ThetaContext.power", "quadfield.power"),
    ("quadfield", "unit_power_data", "quadfield.power"),
    ("quadfield", "ThetaContext.eps_pow", "quadfield.eps_pow"),
    ("quadfield", "ThetaContext.eps_pow_float", "quadfield.eps_pow"),
    ("quadfield", "FieldElement.__pow__", "quadfield.field_pow"),
    ("torus", "TorusElement.__mul__", "torus.mul"),
    ("torus", "TorusElement.delta", "torus.calculus"),
    ("torus", "delta", "torus.calculus"),
    ("torus", "d_B", "torus.calculus"),
    ("torus", "d_B1", "torus.calculus"),
    ("torus", "wedge", "torus.calculus"),
    ("gauge", "q_sweep", "gauge.q_sweep"),
    ("gauge", "adaptedness_test", "gauge.adaptedness"),
    ("gauge", "relative_adaptedness_test", "gauge.adaptedness"),
    ("heisenberg", "mul_P", "heisenberg.mul_P"),
    ("heisenberg", "_pair_to_torus", "heisenberg.pair_to_torus"),
    ("heisenberg", "_pair_to_heis", "heisenberg.pair_to_heis"),
    ("heisenberg", "HeisenbergElement.evaluate", "heisenberg.evaluate"),
    ("heisenberg", "left_act", "heisenberg.act_torus"),
    ("heisenberg", "right_act", "heisenberg.act_torus"),
    ("heisenberg", "left_act_torus", "heisenberg.act_torus"),
    ("heisenberg", "right_act_torus", "heisenberg.act_torus"),
    ("heisenberg", "star_heis", "heisenberg.star"),
    ("heisenberg", "star_P", "heisenberg.star"),
    ("heisenberg", "partial", "heisenberg.partial"),
    ("heisenberg", "partial_heis", "heisenberg.partial"),
    ("heisenberg", "HeisenbergElement.inner", "heisenberg.inner_norm"),
    ("heisenberg", "HeisenbergElement.norm", "heisenberg.inner_norm"),
    ("heisenberg", "GradedElement.norm", "heisenberg.inner_norm"),
    ("heisenberg", "gaussian", "heisenberg.sample"),
    ("heisenberg", "random_packet", "heisenberg.sample"),
    ("hopf", "FiniteHopf.axiom_report", "hopf.axiom_report"),
    ("hopf", "ModuleAlgebra.data_report", "hopf.data_report"),
    ("hopf", "solve_hochschild_space", "hopf.solve"),
    ("hopf", "brute_force_group_z1", "hopf.brute_force"),
    ("hopf", "mc_cocycle", "hopf.mc"),
    ("hopf", "convolve", "hopf.mc"),
    ("hopf", "conj_action", "hopf.mc"),
    ("hopf", "check_hochschild_cocycle", "hopf.mc"),
    ("hopf", "op_report", "hopf.op_report"),
    ("hopf", "CrossedProduct.__init__", "hopf.crossed_product"),
    ("hopf", "jet_instance", "hopf.instance"),
    ("hopf", "cycle_instance", "hopf.instance"),
    ("cli", "emit", "cli.emit"),
]

HOOK = "trace.hook"
COMPLEX_BYTES = 16
OUTER_BAND = 1.0  # width of the outer band that clipping is judged on


class Tracer:
    """Spans and counters for one traced pass, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.counters: Counter = Counter()
        self.pass_id = 0
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans ---------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), None, parent, self.pass_id])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        if self._stack.pop() != index:
            raise RuntimeError("spans closed out of order")
        self.spans[index][2] = self.clock()

    def wrapper(self, fn, metric: str, hook=None):
        """`fn` inside a span named `metric`; `hook(tracer, args, result)`
        runs after the span closes, inside a span of its own so its cost is
        not charged to the caller's self time."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(metric)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[metric + ".errors"] += 1
                raise
            finally:
                self.close(index)
            if hook is not None:
                index = self.open(HOOK)
                try:
                    hook(self, args, result)
                finally:
                    self.close(index)
            return result

        return traced

    # -- installing wrappers -------------------------------------------------
    def install(self, modules: dict) -> None:
        """Wrap every target in every namespace of `modules` that binds it.

        `modules` maps short layer names to module objects; every module in
        it is searched for module-level names bound to a target function.
        """
        for layer, qualname, metric in TARGETS:
            owner = modules[layer]
            *classes, name = qualname.split(".")
            for cls_name in classes:
                owner = getattr(owner, cls_name)
            original = owner.__dict__[name] if classes else getattr(owner, name)
            traced = self.wrapper(original, metric, HOOKS.get(metric))
            if classes:
                self._replace(owner, name, original, traced)
                continue
            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._replace(module, attr, original, traced)

    def _replace(self, owner, attr, original, traced) -> None:
        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- aggregation ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Self time of every span: its duration minus the union of its
        direct children's intervals, clipped to the span."""
        children = defaultdict(list)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for index, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            reach = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out.append((end - start) - covered)
        return out

    def summary(self) -> dict:
        """Per span name: calls, self_s and total_s."""
        out: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for span, self_s in zip(self.spans, self.self_times()):
            row = out[span[0]]
            row["calls"] += 1
            row["self_s"] += self_s
            row["total_s"] += span[2] - span[1]
        return dict(out)


# -- computed counters ---------------------------------------------------------


def heis_bytes(element) -> int:
    """Computed size of a sample array: |c_m| * N complex128 values."""
    sectors, n = element.samples.shape
    return sectors * n * COMPLEX_BYTES


def outer_band_fraction(element) -> float:
    """Share of the l^2 mass of `element` with |x| > L - OUTER_BAND.

    Computed here rather than by the library's `boundary_fraction`, so a
    change to the library's own measure does not move the counter.
    """
    xs = np.linspace(-element.grid.L, element.grid.L, element.grid.N)
    dens = np.sum(np.abs(element.samples) ** 2, axis=0)
    total = np.trapezoid(dens, xs)
    if total == 0.0:
        return 0.0
    outer = np.abs(xs) > element.grid.L - OUTER_BAND
    return float(np.trapezoid(dens[outer], xs[outer]) / total)


def _count_sample_bytes(tracer, args, result) -> None:
    if hasattr(result, "samples"):  # a HeisenbergElement, not a graded sum
        tracer.counters["heisenberg.sample_bytes"] += heis_bytes(result)


def _count_product(tracer, args, result) -> None:
    _count_sample_bytes(tracer, args, result)
    # the library's own window threshold is 100 * grid.tol
    if outer_band_fraction(result) > 100.0 * result.grid.tol:
        tracer.counters["heisenberg.clipped_products"] += 1


def _count_crossed_product(tracer, args, result) -> None:
    inst = args[0].inst
    h, b, m, o2 = inst.H.dim, inst.dimB, inst.dimM, inst.dimO2
    entries = (h * b) ** 3 + 2 * (h * b) * (h * m) ** 2  # T, TL, TR
    if inst.wedge is not None:
        entries += (h * m) ** 2 * (h * o2)  # WT
    tracer.counters["hopf.crossed_product_bytes"] += entries * COMPLEX_BYTES


HOOKS = {
    "heisenberg.pair_to_heis": _count_product,
    "heisenberg.act_torus": _count_sample_bytes,
    "heisenberg.sample": _count_sample_bytes,
    "heisenberg.star": _count_sample_bytes,
    "heisenberg.partial": _count_sample_bytes,
    "hopf.crossed_product": _count_crossed_product,
}

"""Tests of the benchmark's own arithmetic and oracles.

    python3 -m pytest -q perfbench
"""

import json
import sys
from collections import Counter
from math import isqrt
from pathlib import Path

import pytest

import oracles
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


# -- self time -------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 4, 5, 6, 7, 9, 10]))
    a = tracer.open("a")
    b = tracer.open("b")
    tracer.close(b)
    c = tracer.open("c")
    d = tracer.open("d")
    tracer.close(d)
    tracer.close(c)
    tracer.close(a)
    assert tracer.self_times() == [3, 3, 3, 1]
    assert [s[3] for s in tracer.spans] == [-1, 0, 0, 2]


def test_self_time_merges_overlapping_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["p", 0.0, 10.0, -1, 0],
        ["x", 2.0, 6.0, 0, 0],
        ["y", 4.0, 8.0, 0, 0],
        ["z", 9.0, 12.0, 0, 0],  # clipped to the parent's end
    ]
    assert tracer.self_times()[0] == pytest.approx(10 - 6 - 1)


def test_summary_sums_self_time_per_name():
    tracer = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 5, 10]))
    outer = tracer.open("f")
    first = tracer.open("f")
    tracer.close(first)
    second = tracer.open("g")
    tracer.close(second)
    tracer.close(outer)
    summary = tracer.summary()
    assert summary["f"] == {"calls": 2, "self_s": 7 + 1, "total_s": 10 + 1}
    assert summary["g"]["self_s"] == 2


def test_wrapper_counts_errors_and_keeps_stack_balanced():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("x")

    traced = tracer.wrapper(boom, "layer.boom")
    with pytest.raises(ValueError):
        traced()
    assert tracer.counters["layer.boom.errors"] == 1
    assert tracer._stack == [] and tracer.spans[0][2] is not None


def test_install_catches_calls_made_inside_the_cli(capsys):
    import ncgauge
    import ncgauge.cli as cli

    modules = {name: getattr(ncgauge, name) for name in run.LAYERS}
    modules["ncgauge"] = ncgauge
    original = ncgauge.quadfield.pell_unit
    tracer = tracing.Tracer()
    tracer.install(modules)
    try:
        assert cli.main(["pell", "--delta", "5"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    summary = tracer.summary()
    assert summary["quadfield.pell_unit"]["calls"] == 2  # cmd_pell and ThetaContext
    assert summary["cli.emit"]["calls"] == 1
    assert ncgauge.quadfield.pell_unit is original and ncgauge.pell_unit is original


# -- oracles ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta", workloads.discriminants(5, 120))
def test_pell_minimal_is_the_smallest_solution(delta):
    u, v = oracles.pell_minimal(delta)
    assert u * u - delta * v * v == 4
    assert not any(isqrt(4 + delta * w * w) ** 2 == 4 + delta * w * w
                   for w in range(1, min(v, 5000)))


def pell_report(u, v):
    return json.dumps({"delta": 5, "u": u, "v": v})


def test_pell_oracle_accepts_the_minimal_unit():
    assert oracles.check(["pell", "--delta", "5"], 0, pell_report(3, 1), {}) == oracles.OK


@pytest.mark.parametrize("u, v", [(7, 3), (3, 2), (-3, 1)])
def test_tampered_pell_unit_is_a_failure(u, v):
    # (7, 3) solves u^2 - 5 v^2 = 4 but is eps^2; (3, 2) solves nothing
    outcome = oracles.check(["pell", "--delta", "5"], 0, pell_report(u, v), {})
    assert outcome.status == "wrong" and outcome.is_failure


def test_pell_exit_2_on_valid_input_is_a_failure_not_a_wrong_answer():
    outcome = oracles.check(["pell", "--delta", "97"], 2, "", {})
    assert outcome.status == "failed"


def cohomology_report(dim_z=16, brute_z=16):
    """A jet:5 report as the CLI writes it, which has no `op` block."""
    return {
        "instance": "jet(Z_5)", "dim_H": 5, "dim_B": 20,
        "hopf_gate": {"max": 0.0}, "data_gate": 0.0,
        "hochschild": {"dim_Z": dim_z, "dim_B": 16, "dim_HH": dim_z - 16,
                       "brute_force_Z": brute_z, "brute_force_B": 16},
        "failures": [], "pass": True,
    }


@pytest.mark.parametrize("dim_z, brute_z", [(16, 16), (17, 16), (17, 17)])
def test_wrong_hochschild_dimension_is_a_failure(dim_z, brute_z):
    argv = ["cohomology", "--builtin", "jet:5"]
    reference = oracles.load_reference()
    report = json.dumps(cohomology_report(dim_z, brute_z))
    outcome = oracles.check(argv, 0, report, reference)
    assert outcome.is_failure == (dim_z != 16)


def test_missing_op_block_is_counted_as_skipped_not_failed():
    outcome = oracles.check(["cohomology", "--builtin", "jet:5"], 0,
                            json.dumps(cohomology_report()), oracles.load_reference())
    assert outcome == oracles.Outcome("ok", "", skipped_checks=1)
    report = dict(cohomology_report(), op={"max": 1e-16})
    outcome = oracles.check(["cohomology", "--builtin", "jet:5"], 0, json.dumps(report),
                            oracles.load_reference())
    assert outcome == oracles.OK


@pytest.mark.parametrize("code, report, status", [
    (0, {"failures": [], "pass": True}, "ok"),
    (1, {"failures": ["twist2 m=1: 2.0e-04"], "pass": False}, "failed"),
    (0, {"failures": ["twist2 m=1: 2.0e-04"], "pass": True}, "failed"),
])
def test_heisenberg_outcome_follows_exit_code_and_verdict(code, report, status):
    argv = ["heisenberg-verify", "--grades", "1"]
    assert oracles.check(argv, code, json.dumps(report), {}).status == status


def test_graded_products_match_the_committed_norms():
    assert oracles.check_products() == oracles.OK


def test_zero_product_kernel_is_wrong(monkeypatch):
    import ncgauge.heisenberg as G

    kernel = G._pair_to_heis

    def zero_kernel(f, g):
        product = kernel(f, g)
        return product.with_samples(0 * product.samples)

    monkeypatch.setattr(G, "_pair_to_heis", zero_kernel)
    assert oracles.check_products().status == "wrong"


# -- the benchmark contract ---------------------------------------------------------------


def test_every_per_layer_metric_has_a_value():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer"]]
    imports = {name: 0.0 for name in run.LAYERS}
    values = run.per_layer(names, {}, Counter(), [], imports, 0.0)
    assert list(values) == names


def test_mean_pass_sums_the_mean_run_of_each_invocation():
    ok = oracles.OK
    repeats = [[(3.0, 2.0, ok), (1.0, 1.5, ok), (2.0, 1.0, ok)], [(5.0, 4.0, ok), (4.0, 6.0, ok)]]
    assert run.mean_pass(repeats) == {"wall_s": 6.5, "cpu_s": 6.5}
    assert run.full_passes(repeats) == [8.0, 5.0]


def test_an_invocation_counts_once_however_often_it_ran():
    bad = oracles.failed("exit 2 on valid discriminant 97")
    assert run.invocation_outcome([oracles.OK] * 4) == oracles.OK
    assert run.invocation_outcome([bad] * 5) == bad
    assert run.invocation_outcome([oracles.wrong("x"), bad]).status == "wrong"
    some = run.invocation_outcome([oracles.OK, bad, oracles.OK])
    assert some.status == "failed" and some.reason.endswith("(in 1 of 3 runs)")


def test_workload_inputs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.build(name, 3) == workloads.build(name, 3)
    assert len(workloads.build("exact-heis", 0)) == 94 + 9
    assert workloads.build("exact-heis", 1) != workloads.build("exact-heis", 2)

"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace

import pytest

import gen
import problems
import run
import spans

SEEDS = (0, 1)


@pytest.fixture
def symres(tmp_path):
    """A fresh import of symres from the source tree."""
    run.setup("int_verify", 0, tmp_path)
    return sys.modules["symres"]


def small_problem(kind="verify", n=2, d=2, n_params=0, seed=3):
    return gen.system_problem(random.Random(seed), f"{kind}-{n}{d}", kind,
                              n, d, range(n_params))


# -- generator ----------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert gen.workload(workload, 5) == gen.workload(workload, 5)
    assert gen.workload(workload, 5) != gen.workload(workload, 6)
    pids = [p.pid for p in gen.workload(workload, 5)]
    assert len(set(pids)) == len(pids)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generated_systems_are_equivariant(symres, workload):
    for seed in SEEDS:
        for problem in gen.workload(workload, seed):
            if not problem.text or problem.kind == "cli_discriminant":
                continue
            special = gen.system_text(problem.n, problem.d,
                                      problem.specialized_values())
            for text, params in ((problem.text, problem.params),
                                 (special, ())):
                parsed = symres.parse_system_file(text)
                assert (parsed.n, parsed.d) == (problem.n, problem.d)
                assert parsed.ring.params == params
                assert symres.check_equivariance(parsed.polys).ok


def test_coefficient_specs_parse_as_cli_input(symres):
    from symres.cli import _parse_coeff_spec
    for seed in SEEDS:
        for problem in gen.workload("cli_wide", seed):
            if problem.kind == "cli_discriminant":
                form = symres.SymmetricPoly(
                    problem.n, problem.d, _parse_coeff_spec(problem.text))
                if problem.d <= problem.n:
                    assert not form.coefficient((problem.d,)).is_zero()


def test_partitions_bounded_matches_symres(symres):
    for j in range(1, 7):
        for largest in range(1, 5):
            want = [lam.parts for lam in symres.partitions(j)
                    if lam[0] <= largest]
            assert gen.partitions_bounded(j, largest) == want


# -- checker ------------------------------------------------------------------

def _corrupt_factored(factored):
    (value, mult), *rest = factored.factors
    return replace(factored, factors=((value + 1, mult), *rest))


def test_correct_answers_pass(symres, tmp_path):
    for problem in (small_problem("verify", 3, 2),
                    small_problem("decompose", 3, 3, n_params=2)):
        assert problems.run_problem(problem, tmp_path).ok


@pytest.mark.parametrize("kind,n,d,n_params,target", [
    ("verify", 3, 2, 0, "symres.equivariant.decompose_resultant"),
    ("decompose", 3, 3, 2, "symres.equivariant.decompose_resultant"),
    ("cli_decompose", 8, 2, 1, "symres.cli.decompose_resultant"),
])
def test_corrupted_factor_counts_as_failed(symres, tmp_path, monkeypatch,
                                           kind, n, d, n_params, target):
    problem = small_problem(kind, n, d, n_params)
    problems.write_inputs([problem], tmp_path)
    modname, attr = target.rsplit(".", 1)
    original = getattr(sys.modules[modname], attr)
    monkeypatch.setattr(sys.modules[modname], attr,
                        lambda *a, **k: _corrupt_factored(original(*a, **k)))
    out = problems.run_problem(problem, tmp_path)
    assert not out.ok
    assert out.error.startswith("CheckFailed")


def test_corrupted_discriminant_value_counts_as_failed(symres, tmp_path,
                                                       monkeypatch):
    problem = gen.Problem("disc", "cli_discriminant", 3, 4,
                          text="c31=1, c22=2, c211=-1, c1111=3")
    assert problems.run_problem(problem, tmp_path).ok
    original = symres.cli.discriminant_value
    monkeypatch.setattr(symres.cli, "discriminant_value",
                        lambda form: original(form) + 1)
    out = problems.run_problem(problem, tmp_path)
    assert not out.ok and "Disc" in out.error


def test_corrupted_generic_form_counts_as_failed(symres, tmp_path,
                                                 monkeypatch):
    problem = gen.Problem("disc-generic-43", "disc_generic", 4, 3)
    assert problems.run_problem(problem, tmp_path).ok
    original = symres.discriminant.discriminant_decomposition
    monkeypatch.setattr(
        symres.discriminant, "discriminant_decomposition",
        lambda form: replace(original(form), sign=1))
    assert not problems.run_problem(problem, tmp_path).ok


def test_exception_is_recorded_not_raised(symres, tmp_path, monkeypatch):
    def boom(system):
        raise ArithmeticError("boom")
    monkeypatch.setattr(symres.equivariant, "verify_decomposition", boom)
    out = problems.run_problem(small_problem(), tmp_path)
    assert not out.ok and out.error == "ArithmeticError: boom"


# -- tail percentile ----------------------------------------------------------

def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(100, 0, -1)]
    assert run.tail(samples) == (90.0, 90.0, 100)
    value, pct, count = run.tail(list(range(1, 43)))
    assert (value, count) == (32, 42)
    assert sum(s > value for s in range(1, 43)) == 10
    assert pct == pytest.approx(100 * 32 / 42)
    assert run.tail(list(range(11))) == (0, 100 / 11, 11)
    with pytest.raises(ValueError):
        run.tail(list(range(10)))


# -- tracer -------------------------------------------------------------------

def test_self_times_subtract_children_and_leaf_calls():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    with tracer.span("outer", "p"):            # 0 .. 5
        with tracer.span("inner"):             # 1 .. 2
            pass
        tracer.top.leaf["ring.coeff_mul"] = [3, 1.5]
        with tracer.check_scope():             # 3 .. 4
            pass
    outer, inner, check = tracer.spans
    selfs = spans.self_times(tracer.spans)
    assert selfs[outer.sid] == 5 - 1 - 1 - 1.5
    assert inner.pid == "p" and not inner.in_check and check.in_check
    assert spans.self_time_by_name(tracer.spans)["ring.coeff_mul"] == 1.5


def test_wrappers_are_removed_after_traced_run(symres, tmp_path):
    originals = {
        "ring": symres.ring.determinant,
        "resultant": symres.resultant.determinant,
        "divdiff": symres.divdiff.determinant,
        "mul": symres.ring.Coefficient.__dict__["__mul__"],
        "freeze": symres.divdiff.DividedDifferenceTable.__dict__["freeze"],
        "main": symres.cli.main,
    }
    problem = small_problem("verify", 3, 3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        installed = set(spans.installed_wrappers())
        wall, outcomes = run.run_pass([problem], tmp_path, tracer)
    finally:
        tracer.remove()
    assert {"symres.ring.determinant", "symres.resultant.determinant",
            "symres.divdiff.determinant",
            "symres.equivariant.macaulay_resultant",
            "symres.ring.Coefficient.__mul__",
            "symres.ring.Coefficient.__rmul__"} <= installed
    assert outcomes[0].ok
    assert spans.installed_wrappers() == []
    assert symres.ring.determinant is originals["ring"]
    assert symres.resultant.determinant is originals["resultant"]
    assert symres.divdiff.determinant is originals["divdiff"]
    assert symres.ring.Coefficient.__dict__["__mul__"] is originals["mul"]
    assert symres.ring.Coefficient.__dict__["__rmul__"] is originals["mul"]
    assert (symres.divdiff.DividedDifferenceTable.__dict__["freeze"]
            is originals["freeze"])
    assert symres.cli.main is originals["main"]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["resultant.attempts"] >= metrics["resultant.calls"] > 0
    assert metrics["equivariant.chains"] == 3
    assert metrics["ring.coeff_mul_calls"] > 0
    assert metrics["ring.det_const_share"] == 1.0


def test_check_calls_stay_out_of_layer_metrics(symres, tmp_path):
    problem = small_problem("verify", 2, 3)
    tracer = spans.Tracer()
    tracer.install()
    try:
        run.run_pass([problem], tmp_path, tracer)
    finally:
        tracer.remove()
    names = {s.name for s in tracer.spans if s.in_check}
    assert "resultant.sylvester" in names
    # one direct quotient and one chain per partition of 2; Sylvester
    # belongs to the check
    assert spans.layer_metrics(tracer.spans)["resultant.calls"] == 3


# -- BENCHMARK.json -----------------------------------------------------------

def test_benchmark_json_matches_reported_metrics():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(gen.WORKLOADS)
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert set(layer) == set(spans.layer_metrics([])) | {"trace.overhead_s"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert run.UNITS[m["name"]] == m["unit"]
    assert {m["name"] for m in doc["end_to_end"]} == {
        "wall_s", "problem_tail_s", "setup_s", "peak_rss_mb"}

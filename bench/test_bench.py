"""Tests of the benchmark itself (not of ``subtle``).

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import signal
import time

import pytest

import run
import tracer as tracer_mod
import worker
import workloads
from workloads import DEFAULT_SEED, THREE_PATH, model_descriptor, render_model

import subtle.cli
import subtle.bigraded
import subtle.maps
import subtle.oracle
from subtle.milnor import build_field_model

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
README = (workloads.BENCH_DIR / "README.md").read_text(encoding="utf-8")


# ----- seed -> model ----------------------------------------------------------


def test_default_seed_gives_three_byte_for_byte():
    assert render_model(model_descriptor(DEFAULT_SEED)) == THREE_PATH.read_text(encoding="utf-8")


@pytest.mark.parametrize("seed", range(1, 41))
def test_other_seeds_give_same_shape_coprime_models(seed):
    d = model_descriptor(seed)
    assert d == model_descriptor(seed)
    assert d["generators"] == ["a", "b", "c"]
    assert d["alpha"] == d["minus_one"] == "a"
    mono, binom = d["relations"]
    assert "+" not in mono
    terms = binom.split("+")
    assert len(terms) == 2 and mono not in terms

    def variables(term):
        return set(term.replace("^2", "").split("*"))

    # no variable of the monomial divides both terms of the binomial
    assert not any(all(v in variables(t) for t in terms) for v in variables(mono))


@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2, 3, 4, 5])
def test_seeded_models_share_the_graded_dimensions_of_three(seed):
    model = build_field_model(model_descriptor(seed))
    assert model.dimensions(6) == [1, 3, 4, 4, 4, 4, 4]


def test_seeds_draw_more_than_one_model():
    assert len({tuple(model_descriptor(s)["relations"]) for s in range(1, 41)}) > 5


# ----- correctness gate -------------------------------------------------------


def _cli_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert subtle.cli.run(list(argv)) == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.fixture
def small_table(monkeypatch, tmp_path):
    """The ``table`` workload reduced to one fast request, pinned in a temp file."""
    argv = ["field", "show", "--model", "real"]
    monkeypatch.setattr(run, "requests", lambda w, path, seed: [argv])
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    pinned = tmp_path / "digests.json"
    monkeypatch.setattr(run, "PINNED_PATH", pinned)
    return pinned, _cli_digest(argv)


def _run(capsys, *args):
    code = run.main(["--workload", "table", "--seconds", "0", *args])
    out = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(out[-1]), out


def test_pinned_digest_passes(small_table, capsys):
    pinned, digest = small_table
    pinned.write_text(json.dumps({"table": [digest]}))
    code, result, _ = _run(capsys)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_corrupted_pinned_digest_raises_fail_frac_and_exit_code(small_table, capsys):
    pinned, digest = small_table
    pinned.write_text(json.dumps({"table": ["0" * 64]}))
    code, result, lines = _run(capsys)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert any("fail_frac 1.0000" in line for line in lines)


def test_pinned_digest_applies_only_to_the_default_seed(small_table, capsys):
    pinned, _ = small_table
    pinned.write_text(json.dumps({"table": ["0" * 64]}))
    code, result, _ = _run(capsys, "--seed", "7")
    assert code == 0 and result["failed"] == 0


def _sample(digests, code=0, oracle=None, coverage=(), trace=False):
    return {
        "requests": [
            {"code": code, "sha256": d, "error": "", "oracle": oracle} for d in digests
        ],
        "coverage": list(coverage),
        "trace": trace,
    }


def test_gate_checks_every_request_of_every_sample():
    ok = _sample(["x", "y"])
    samples = [
        ok,
        _sample(["x", "z"], trace=True),  # traced output differs
        _sample(["x", "y"], code=1),  # both requests exit 1
        _sample(["x", "y"], oracle="(0)[0]: table 0, oracle 1"),
        _sample(["x", "y"], coverage=["subtle.maps.hom_verify"]),
    ]
    failed = run.gate("maps", 5, samples, {})
    assert sorted(failed) == [(1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 1)]
    assert run.gate("maps", 5, [ok, ok], {}) == {}


# ----- host-speed probe -------------------------------------------------------


def test_probe_ticks_while_entered_and_restores_the_handler():
    with worker.Probe() as probe:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(probe.times) >= 3
    assert all(t > 0 for t in probe.times)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_probe_caps_a_stalled_tick_and_spares_the_collector():
    probe = worker.Probe()
    probe.times = [1.0, 2.0, 1.5, 100.0]
    assert probe.kept() == [1.0, 2.0, 1.5, 4 * 1.75]
    assert worker.Probe().kept() == []
    assert gc.isenabled()
    probe.tick()
    assert gc.isenabled()


def test_probe_times_a_loop_shorter_than_one_interval():
    with worker.Probe() as probe:
        pass
    assert len(probe.times) == 1


def test_untraced_sample_is_normalized_by_its_probe():
    argv = ["ring", "table", "BU:1", "--model", "real", "--box", "6", "6", "--format", "json"]
    plain = run.take_sample([argv], False, 60)
    assert plain["probes"] >= 1
    assert plain["slowdown"] == plain["probe_s"] / run.PROBE_REF_S
    assert plain["wall_s"] == plain["measured_wall_s"] / plain["slowdown"]
    assert plain["setup_s"] == plain["measured_setup_s"] / plain["slowdown"]
    traced = run.take_sample([argv], True, 60)
    assert traced["probes"] == 0 and "wall_s" not in traced
    assert traced["requests"][0]["sha256"] == plain["requests"][0]["sha256"]


# ----- tracer -----------------------------------------------------------------


@pytest.fixture
def traced():
    t = tracer_mod.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_tracer_wraps_every_binding(traced):
    assert traced.coverage_problems() == []
    assert subtle.maps.standard_monomials is subtle.bigraded.standard_monomials
    assert subtle.maps.standard_monomials.__wrapped__ is not None


def test_tracer_reports_a_missed_binding(traced):
    original = subtle.bigraded.standard_monomials.__wrapped__
    subtle.maps.standard_monomials = original  # restored by uninstall
    problems = traced.coverage_problems()
    assert any(p.startswith("subtle.maps.standard_monomials") for p in problems)


def test_tracer_reports_a_captured_default(traced):
    def sneaky(pres, f=subtle.bigraded.poincare_table.__wrapped__):
        return f

    subtle.maps.sneaky = sneaky
    sneaky.__module__ = "subtle.maps"
    try:
        assert any("subtle.maps.sneaky default" in p for p in traced.coverage_problems())
    finally:
        del subtle.maps.sneaky


def test_oracle_keeps_its_own_enumerator(traced):
    assert subtle.oracle._monomials_of_bidegree is not subtle.bigraded._monomials_of_bidegree
    assert subtle.oracle._monomials_of_bidegree.__module__ == "subtle.bigraded"
    assert not hasattr(subtle.oracle._monomials_of_bidegree, "__wrapped__")


def test_uninstall_restores_the_originals():
    before = subtle.maps.standard_monomials
    t = tracer_mod.Tracer()
    t.install()
    assert subtle.maps.standard_monomials is not before
    t.uninstall()
    assert subtle.maps.standard_monomials is before
    assert not hasattr(subtle.bigraded.AlgebraPresentation.reduce_poly, "__wrapped__")


def test_traced_output_is_identical_and_counted():
    argv = ["ring", "table", "BU:1", "--model", "real", "--box", "4", "4", "--format", "json"]
    plain = _cli_digest(argv)
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert _cli_digest(argv) == plain
    finally:
        t.uninstall()
    m = t.metrics()
    assert m["cli.run.calls"] == 1
    assert m["bigraded.table.calls"] == 1 and m["bigraded.table.cells"] == 25
    assert m["bigraded.basis.calls"] >= 25
    assert 0 < m["bigraded.basis.useful_ratio"] <= 1
    assert m["maps.verify.calls"] == 0
    assert [s[0] for s in t.spans if s[3] is None] == ["cli.run"]
    assert all(s[4] == 0 for s in t.spans)


# ----- docs and BENCHMARK.json agree with the code ----------------------------


def test_per_layer_metrics_match_the_tracer():
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    produced = list(tracer_mod.Tracer().metrics()) + [
        "trace.overhead_s", "trace.overhead_frac", "host.slowdown_ratio",
    ]
    assert sorted(names) == sorted(produced)
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run.layer_unit(m["name"])


def test_end_to_end_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS


def test_readme_maps_every_metric_to_a_layer_and_workload():
    layers = {name.rsplit(".", 1)[0] for name in (m["name"] for m in BENCHMARK["per_layer"])}
    for layer in layers:
        assert f"`{layer}`" in README, layer
    for m in BENCHMARK["end_to_end"]:
        assert f"`{m['name']}`" in README
    listed = [w["name"] for w in BENCHMARK["workloads"]]
    assert set(listed) <= set(workloads.WORKLOADS)
    for w in workloads.WORKLOADS:
        assert f"| `{w}` |" in README

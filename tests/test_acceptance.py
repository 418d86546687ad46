"""Acceptance suite: each criterion runs at its stated box and prints one
pass/fail line.  Everything is exact GF(2) combinatorics; no tolerances.
"""

import io
import itertools
import random
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest

from subtle import cli, verify
from subtle.maps import hom_define
from subtle.milnor import build_field_model
from subtle.motives import Atom, FormalMotive, atom_tensor


def _run(check, *args):
    result = check(*args)
    print(result.line())
    assert result.passed, result.detail
    return result


def test_criterion_01_presentation_vs_decomposition():
    # BU:n table equals the direct-sum convolution, n=1..3, both models, (8,8)
    _run(verify.check_decomposition)


def test_criterion_02_comparison_kernel():
    # comp:n kernel equals the stated ideal, n=1..3, both models, (8,8)
    _run(verify.check_kernel)


def test_criterion_03_diagonal_recursion():
    # power tables split along d = w+n-1 for n<=5, both models, (8,8)
    _run(verify.check_diagonal_recursion)


def test_criterion_04_colimit_stabilization():
    # Npow(m) entries equal the colimit entries for m >= Dmax on (6,6)
    _run(verify.check_colimit_stabilization)


def test_criterion_05_twist_isomorphism():
    # bijective per bidegree on (6,6), n<=2, and self-inverse on generators
    _run(verify.check_twist)


def test_criterion_06_groebner_oracle():
    # every built ring matches dense row reduction on a (6,6) box
    _run(verify.check_groebner_oracle)


CRITERIA_ON_MODELS = (
    verify.check_decomposition,
    verify.check_kernel,
    verify.check_diagonal_recursion,
    verify.check_colimit_stabilization,
    verify.check_twist,
    verify.check_groebner_oracle,
)


@pytest.mark.parametrize("model", ["alpha_sum", "ann_two"])
def test_criteria_01_to_06_on_the_committed_models(monkeypatch, model):
    # criteria 1-6 over a model whose alpha (b + c) is neither its first
    # generator nor minus_one, and over one whose Ann(alpha) has two
    # generators; criteria 7-10 read no model
    path = str(Path(__file__).parent / "models" / f"{model}.json")
    read = []

    def models():
        read.append(build_field_model(path))
        return read[-1:]

    monkeypatch.setattr(verify, "_models", models)
    for check in CRITERIA_ON_MODELS:
        _run(check)
    assert len(read) == len(CRITERIA_ON_MODELS)
    assert {m.tag for m in read} == {model}


def test_criterion_07_motive_rewrites():
    # confluence on 1000 seeded expressions, inverses, torsor coherence
    _run(verify.check_motive_suite)


def _every_merge_sequence(work, tensor):
    """Brute force: every sequence of steps that replaces an ordered pair
    (i, j), i != j, by tensor(work[i], work[j])."""
    if len(work) == 1:
        return {work[0]}
    out = set()
    for i, j in itertools.permutations(range(len(work)), 2):
        rest = [a for k, a in enumerate(work) if k not in (i, j)]
        out |= _every_merge_sequence(rest + [tensor(work[i], work[j])], tensor)
    return out


def _ordered_tensor(a, b):
    # neither commutative nor associative, so merge orders reach many atoms
    return Atom("N", 2 * a.power - b.power + a.twist, a.twist + 1, b.shift - a.shift)


@pytest.mark.parametrize("tensor", [atom_tensor, _ordered_tensor], ids=["atom_tensor", "ordered"])
def test_every_reduction_equals_every_merge_sequence_random(monkeypatch, tensor):
    monkeypatch.setattr(verify, "atom_tensor", tensor)
    rng = random.Random(24)
    sizes = []
    for _ in range(300):
        atoms = verify._random_product(rng, rng.randint(1, 4))
        reached = verify._every_reduction(atoms)
        assert reached == _every_merge_sequence(atoms, tensor), atoms
        sizes.append(len(reached))
    if tensor is _ordered_tensor:
        assert max(sizes) > 10


def test_criterion_08_sq1_suite():
    # Leibniz + square-zero on (5,5) and the nonvanishing witness
    _run(verify.check_sq1)


def test_criterion_09_specialization():
    # zero classes satisfy every relation and report split-compatible
    _run(verify.check_specialization)


def test_criterion_10_cli_golden():
    # pinned commands reproduce byte-identical outputs
    _run(verify.check_golden)


# ----- every failure path ----------------------------------------------------
#
# Each case replaces one name in ``subtle.verify`` so that exactly one failure
# path of one criterion fires, then checks the CheckResult and that
# ``verify all`` exits 1 printing that FAIL line.

BOX = (2, 2)
# the criteria that take a box; the others take none or a seed
_BOXED = {
    verify.check_decomposition, verify.check_kernel, verify.check_diagonal_recursion,
    verify.check_colimit_stabilization, verify.check_twist, verify.check_groebner_oracle,
    verify.check_sq1,
}


def _bumped(table):
    """The table with every entry one larger."""
    return replace(table, counts=tuple(tuple(c + 1 for c in row) for row in table.counts))


def _altered(**changes):
    """Factory: the function with ``replace(result, **changes)`` on its result."""
    return lambda fn: lambda *args: replace(fn(*args), **changes)


def _bump_block(block):
    def factory(fn):
        def fake(model, b, w, d):
            table = fn(model, b, w, d)
            return _bumped(table) if b == block else table
        return fake
    return factory


def _tau_to_zero(fn):
    """Factory: the map builder with tau sent to 0, so no map is well defined."""
    def fake(*args):
        h = fn(*args)
        return hom_define(h.source, h.target, dict(h.images, tau="0"), h.label)
    return fake


def _shift_when(cond):
    def factory(fn):
        def fake(a, b):
            atom = fn(a, b)
            return replace(atom, shift=atom.shift + 1) if cond(a, b) else atom
        return fake
    return factory


def _sq1_report_altered(**changes):
    def factory(fn):
        def fake(der, w, d):
            report, solved = fn(der, w, d)
            return replace(report, **changes), solved
        return fake
    return factory


def _specialization_altered(label, **changes):
    def factory(fn):
        def fake(ring, assignments, target, lbl):
            h, report = fn(ring, assignments, target, lbl)
            return h, (replace(report, **changes) if lbl == label else report)
        return fake
    return factory


FAILURES = [
    pytest.param(
        verify.check_decomposition, "npow_bu_table", lambda fn: lambda *a: _bumped(fn(*a)),
        1, "presentation vs decomposition", "BU:1 over real differs at (0, 0), box (2,2)",
        id="decomposition",
    ),
    pytest.param(
        verify.check_kernel, "kernel_match",
        _altered(tables_match=False, first_mismatch=(0, 0, 1, 0)),
        2, "comparison-map kernel",
        "comp:1 over real: first mismatch at (0)[0]: quotient 1, image rank 0",
        id="kernel",
    ),
    pytest.param(
        verify.check_kernel, "kernel_match",
        _altered(generators_vanish=False, nonvanishing_generator="u2"),
        2, "comparison-map kernel", "comp:1 over real: nonvanishing generator u2",
        id="kernel-generator",
    ),
    pytest.param(
        verify.check_kernel, "comp_map", _tau_to_zero,
        2, "comparison-map kernel", "comp:1 over real: offending relation tau*v3 + rho*u2",
        id="kernel-relation",
    ),
    pytest.param(
        verify.check_diagonal_recursion, "block_table", _bump_block("Npow:1"),
        3, "diagonal recursion", "Npow:1 over real cell (0)[0]: 2 != 1",
        id="diagonal",
    ),
    pytest.param(
        verify.check_colimit_stabilization, "check_colimit",
        _altered(passed=False, stabilization=((0, 1, 2), (0, 0, None), (0, 0, 0))),
        4, "colimit stabilization", "over real: (1)[2] does not stabilize, box (2,2)",
        id="colimit",
    ),
    pytest.param(
        verify.check_twist, "hom_verify", _altered(injective_on_box=False),
        5, "twist isomorphism", "pq:1 over real not bijective on box (2,2)",
        id="twist-bijective",
    ),
    pytest.param(
        verify.check_twist, "hom_compose", lambda fn: lambda g, f: f,
        5, "twist isomorphism", "pq:1 over real not self-inverse on u1",
        id="twist-self-inverse",
    ),
    pytest.param(
        verify.check_groebner_oracle, "oracle_table", lambda fn: lambda *a: _bumped(fn(*a)),
        6, "Groebner vs dense oracle", "H over real differs at (0, 0)",
        id="oracle",
    ),
    pytest.param(
        verify.check_motive_suite, "atom_tensor", lambda fn: lambda a, b: verify.T_ATOM,
        7, "motive rewrite suite",
        "confluence failure on trial 0: T + T + Mt(1)[2] vs Mt(1)[2] + Mt(6)[4] + Mt(7)[6]",
        id="motive-confluence",
    ),
    pytest.param(
        # only a product of N atoms with twists summing to 6 or more, taken on
        # the left of Ma, meets the fault: three random merge orders per
        # expression miss it on the default seed
        verify.check_motive_suite, "atom_tensor", _shift_when(
            lambda a, b: a.base == "N" and b.base == "Ma" and a.twist >= 6
        ),
        7, "motive rewrite suite", "confluence failure on trial 66: Ma(7)[5] vs Ma(7)[4]",
        id="motive-confluence-rare-order",
    ),
    pytest.param(
        verify.check_motive_suite, "T_ATOM", lambda atom: Atom("N", 0, 1, 0),
        7, "motive rewrite suite", "N^-5 * N^5 != T",
        id="motive-inverse",
    ),
    pytest.param(
        verify.check_motive_suite, "torsor_motive", lambda fn: lambda n, split: FormalMotive.of(),
        7, "motive rewrite suite", "split torsor motive disagrees with quadric product at n=0",
        id="motive-torsor",
    ),
    pytest.param(
        verify.check_sq1, "sq1_check", _sq1_report_altered(square_zero=False, square_zero_offender="u1"),
        8, "Sq1 suite", "BO:4: square-zero offender u1",
        id="sq1-report",
    ),
    pytest.param(
        verify.check_sq1, "sq1_check", _sq1_report_altered(descends=False, offending_relation="u1^2"),
        8, "Sq1 suite", "BO:4: offending relation u1^2",
        id="sq1-descent",
    ),
    pytest.param(
        verify.check_sq1, "leibniz_offender", lambda fn: lambda *a: ("u1", "u2"),
        8, "Sq1 suite", "Leibniz fails on u1 * u2 in BO:4",
        id="sq1-leibniz",
    ),
    pytest.param(
        verify.check_sq1, "sq1_apply", lambda fn: lambda der, el: el.pres.zero(),
        8, "Sq1 suite", "witness Sq1(mu*u2) = 0",
        id="sq1-witness",
    ),
    pytest.param(
        verify.check_specialization, "specialize_classes",
        _specialization_altered("split-form", split_compatible=None),
        9, "class specialization", "zero assignment: split_compatible is None",
        id="specialization-zero",
    ),
    pytest.param(
        verify.check_specialization, "specialize_classes",
        _specialization_altered(
            "split-form", well_defined=False, relation_images=(("tau*d1 + rho*c1", "rho*c1", False),)
        ),
        9, "class specialization", "zero assignment: relation tau*d1 + rho*c1 does not vanish",
        id="specialization-zero-relation",
    ),
    pytest.param(
        verify.check_specialization, "specialize_classes",
        _specialization_altered("corrupted", well_defined=True),
        9, "class specialization", "corrupted assignment was not rejected",
        id="specialization-accepted",
    ),
    pytest.param(
        verify.check_specialization, "specialize_classes",
        _specialization_altered("corrupted", relation_images=(("rho*c1", "rho*c1", False),)),
        9, "class specialization", "unexpected failing relation: rho*c1",
        id="specialization-relation",
    ),
    pytest.param(
        verify.check_specialization, "specialize_classes",
        _specialization_altered("nonsplit", split_compatible=True),
        9, "class specialization", "nonzero c2 still reported split-compatible",
        id="specialization-nonsplit",
    ),
    pytest.param(
        verify.check_golden, "GOLDEN_COMMANDS", lambda cmds: (("missing.txt", cmds[0][1]),),
        10, "CLI golden outputs", "missing golden file missing.txt",
        id="golden-missing",
    ),
    pytest.param(
        verify.check_golden, "run_golden_command", lambda fn: lambda argv: (2, ""),
        10, "CLI golden outputs", "ring table BU:1 --model real --box 4 4 exited 2",
        id="golden-exit",
    ),
    pytest.param(
        verify.check_golden, "run_golden_command", lambda fn: lambda argv: (0, ""),
        10, "CLI golden outputs", "table_bu1_real.txt differs from pinned output",
        id="golden-differs",
    ),
]


@pytest.mark.parametrize("check, name, factory, number, title, detail", FAILURES)
def test_criterion_failure_paths(monkeypatch, check, name, factory, number, title, detail):
    monkeypatch.setattr(verify, name, factory(getattr(verify, name)))
    args = (BOX,) if check in _BOXED else ()
    result = check(*args)
    assert (result.number, result.name, result.passed, result.detail) == (
        number, title, False, detail
    )
    assert "\n" not in result.detail
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(["verify", "all", "--box", str(BOX[0]), str(BOX[1])])
    assert code == 1
    assert result.line().startswith("FAIL ")
    assert result.line() in buf.getvalue()

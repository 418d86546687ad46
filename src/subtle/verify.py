"""The acceptance suite: one callable per criterion, shared by the CLI
(`verify all`) and the test suite.  ``_criterion`` declares each one's number
and name and builds its CheckResult; the check itself returns its pass
detail or raises ``_Failure`` at the first failure.

Every check embeds its certification box in the result detail; GF(2)
combinatorics is exact, so checks pass or fail with no tolerances.
"""

from __future__ import annotations

import functools
import io
import itertools
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from importlib import resources

from .bigraded import shared_tables
from .maps import (
    comp_kernel_ideal,
    comp_map,
    hom_compose,
    hom_verify,
    kernel_match,
    specialize_classes,
    twist_iso,
)
from .milnor import FieldModel, build_field_model
from .motives import (
    Atom,
    FormalMotive,
    T_ATOM,
    affine_quadric_motive,
    atom_tensor,
    motive_tensor,
    torsor_motive,
)
from .oracle import oracle_table
from .rings import (
    block_presentation,
    block_table,
    check_colimit,
    npow_bu_table,
)
from .steenrod import (
    leibniz_offender,
    sq1_apply,
    sq1_check,
    sq1_define,
    sq1_presentation,
)

MODELS = ("real", "finite_field")

ORACLE_BLOCKS = (
    "H", "BO:1", "BO:2", "BO:3", "BO:4", "BU:1", "BU:2", "BU:3",
    "BOp:1", "BOp:2", "BOh:1", "BOh:2", "BOh:3", "BOh:4",
    "Mtilde", "Xalpha", "Xtilde", "Npow:0", "Npow:1", "Npow:2", "Npow:3",
    "XBU:1", "XBU:2",
)


@dataclass(frozen=True)
class CheckResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.number:2d} {self.name}: {self.detail}"


def _models() -> list[FieldModel]:
    return [build_field_model(name) for name in MODELS]


def _box(default: tuple[int, int], box: tuple[int, int] | None) -> tuple[int, int]:
    if box is None:
        return default
    return (min(default[0], box[0]), min(default[1], box[1]))


class _Failure(Exception):
    """A criterion's first failure; its one argument is the result detail."""


def _criterion(number: int, name: str):
    """Declare a criterion: the decorated check returns its pass detail or
    raises ``_Failure(detail)``, and the criterion returns the CheckResult."""

    def decorate(check):
        @functools.wraps(check)
        def run(*args, **kwargs) -> CheckResult:
            try:
                passed, detail = True, check(*args, **kwargs)
            except _Failure as failure:
                passed, detail = False, failure.args[0]
            return CheckResult(number, name, passed, detail)

        return run

    return decorate


@_criterion(1, "presentation vs decomposition")
def check_decomposition(box: tuple[int, int] | None = None) -> str:
    """Presentation tables equal the direct-sum convolution tables."""
    w, d = _box((8, 8), box)
    for model in _models():
        for n in (1, 2, 3):
            engine = block_table(model, f"BU:{n}", w, d)
            bad = engine.first_difference(npow_bu_table(model, 0, n, w, d))
            if bad is not None:
                raise _Failure(f"BU:{n} over {model.tag} differs at {bad}, box ({w},{d})")
    return f"BU:1..3 equal convolution tables, both models, box ({w},{d})"


@_criterion(2, "comparison-map kernel")
def check_kernel(box: tuple[int, int] | None = None) -> str:
    """Comparison-map kernel equals the stated ideal."""
    w, d = _box((8, 8), box)
    for model in _models():
        for n in (1, 2, 3):
            h = comp_map(model, n, w + d)
            rep = kernel_match(h, comp_kernel_ideal(model, n, w + d), w, d)
            if not rep.ok:
                if rep.offending_relation:
                    first = f"offending relation {rep.offending_relation}"
                elif not rep.generators_vanish:
                    first = f"nonvanishing generator {rep.nonvanishing_generator}"
                else:
                    first = "first mismatch at ({})[{}]: quotient {}, image rank {}".format(*rep.first_mismatch)
                raise _Failure(f"comp:{n} over {model.tag}: {first}")
    return f"kernels match stated ideals for n=1..3, both models, box ({w},{d})"


@_criterion(3, "diagonal recursion")
def check_diagonal_recursion(box: tuple[int, int] | None = None) -> str:
    """Power-block tables split along d = w + n - 1."""
    w, d = _box((8, 8), box)
    for model in _models():
        mt = block_table(model, "Mtilde", w, d + 1)
        tables = [block_table(model, f"Npow:{n}", w, d) for n in range(6)]
        for n in range(1, 6):
            for ww in range(w + 1):
                for dd in range(d + 1):
                    if dd <= ww + n - 1:
                        want = tables[n - 1].entry(ww, dd)
                    else:
                        want = mt.entry(ww, dd - n + 1)
                    got = tables[n].entry(ww, dd)
                    if got != want:
                        raise _Failure(
                            f"Npow:{n} over {model.tag} cell ({ww})[{dd}]: {got} != {want}"
                        )
    return f"Npow:n splits along d = w+n-1 for n<=5, both models, box ({w},{d})"


@_criterion(4, "colimit stabilization")
def check_colimit_stabilization(box: tuple[int, int] | None = None) -> str:
    w, d = _box((6, 6), box)
    for model in _models():
        rep = check_colimit(model, w, d)
        if not rep.passed:
            stab = rep.stabilization
            a, b = next((a, b) for a in range(w + 1) for b in range(d + 1) if stab[a][b] is None or stab[a][b] > d)
            raise _Failure(f"over {model.tag}: ({a})[{b}] does not stabilize, box ({w},{d})")
    return f"power tables stabilize to the colimit table, both models, box ({w},{d})"


@_criterion(5, "twist isomorphism")
def check_twist(box: tuple[int, int] | None = None) -> str:
    w, d = _box((6, 6), box)
    for model in _models():
        for n in (1, 2):
            t = twist_iso(model, n, w + d)
            rep = hom_verify(t, w, d)
            if not (rep.well_defined and rep.surjective_on_box and rep.injective_on_box):
                raise _Failure(f"pq:{n} over {model.tag} not bijective on box ({w},{d})")
            tt = hom_compose(t, t)
            for gen in t.source.gens:
                if tt.image_of(gen.name) != t.source.gen(gen.name):
                    raise _Failure(
                        f"pq:{n} over {model.tag} not self-inverse on {gen.name}"
                    )
    return f"bijective and self-inverse for n<=2, both models, box ({w},{d})"


@_criterion(6, "Groebner vs dense oracle")
def check_groebner_oracle(box: tuple[int, int] | None = None) -> str:
    w, d = _box((6, 6), box)
    shared: dict = {}  # the oracle's cell lists per generator layout, for this run
    for model in _models():
        for block in ORACLE_BLOCKS:
            engine = block_table(model, block, w, d)
            dense = oracle_table(block_presentation(model, block, w + d), w, d, shared)
            bad = engine.first_difference(dense)
            if bad is not None:
                raise _Failure(f"{block} over {model.tag} differs at {bad}")
    return f"{len(ORACLE_BLOCKS)} blocks x both models match on box ({w},{d})"


# ----- motive suite -------------------------------------------------------------


def _random_product(rng: random.Random, n_atoms: int) -> list[Atom]:
    def rand_twist() -> tuple[int, int]:
        return rng.randint(0, 3), rng.randint(-2, 4)

    atoms: list[Atom] = []
    special = rng.choice(["none", "Ma", "Mt"])
    plain_pool = ["T", "N", "Xa"] if special != "Mt" else ["T", "N"]
    if special != "none":
        i, j = rand_twist()
        atoms.append(Atom(special, 0, i, j))
    while len(atoms) < n_atoms:
        kind = rng.choice(plain_pool)
        i, j = rand_twist()
        if kind == "N":
            atoms.append(Atom("N", rng.randint(-3, 3), i, j))
        elif kind == "T":
            atoms.append(Atom("N", 0, i, j))
        else:
            atoms.append(Atom("Xa", 0, i, j))
    rng.shuffle(atoms)
    return atoms


def _every_reduction(atoms: list[Atom]) -> set[Atom]:
    """Every atom that some order of pairwise ``atom_tensor`` products of
    ``atoms`` reaches.

    ``reach[mask]`` holds the results for the atoms at the positions set in
    ``mask``: a product's last step joins the results of two disjoint nonempty
    parts, in either argument order, so each mask takes every split into a
    submask and its complement.  Both parts are smaller masks, already
    filled; a mask of one bit has no split and keeps its atom.  Each result
    is keyed by its four fields, whose tuple hashes and compares without the
    dataclass's Python-level ``__hash__`` and ``__eq__``.
    """
    reach: list[dict[tuple, Atom]] = [{} for _ in range(1 << len(atoms))]
    for i, a in enumerate(atoms):
        reach[1 << i][a.base, a.power, a.twist, a.shift] = a
    for mask in range(len(reach)):
        out = reach[mask]
        part = (mask - 1) & mask
        while part:
            ys = reach[mask ^ part].values()
            for x in reach[part].values():
                for y in ys:
                    z = atom_tensor(x, y)
                    out[z.base, z.power, z.twist, z.shift] = z
            part = (part - 1) & mask
    return set(reach[-1].values())


@_criterion(7, "motive rewrite suite")
def check_motive_suite(seed: int = 20250801) -> str:
    rng = random.Random(seed)
    # confluence on seeded random expressions: every merge order of each
    # product, against the left fold through the public tensor
    for trial in range(1000):
        n_products = rng.randint(1, 3)
        sizes = [rng.randint(1, 4) for _ in range(n_products)]
        while sum(sizes) > 6:
            sizes[sizes.index(max(sizes))] -= 1
        products = [_random_product(rng, s) for s in sizes]
        folded = []
        for p in products:
            acc = FormalMotive.of(p[0])
            for a in p[1:]:
                acc = motive_tensor(acc, FormalMotive.of(a))
            folded.extend(acc.atoms)
        canonical = FormalMotive.of(*folded)
        # every combination of the products' reachable atoms must be the left
        # fold; there is one when each product reaches one atom.  Sorted, so
        # the combination reported does not depend on string hashing
        reaches = [sorted(_every_reduction(p), key=Atom.sort_key) for p in products]
        for combination in itertools.product(*reaches):
            alt = FormalMotive.of(*combination)
            if alt != canonical:
                raise _Failure(f"confluence failure on trial {trial}: {alt} vs {canonical}")
    # invertibility
    for k in range(-5, 6):
        prod = motive_tensor(
            FormalMotive.of(Atom("N", k)), FormalMotive.of(Atom("N", -k))
        )
        if prod != FormalMotive.of(T_ATOM):
            raise _Failure(f"N^{k} * N^{-k} != T")
    # torsor vs affine-quadric product
    for n in range(4):
        prod = FormalMotive.of(T_ATOM)
        for i in range(1, n + 1):
            prod = motive_tensor(prod, affine_quadric_motive(i))
        if prod != torsor_motive(n, split=True):
            raise _Failure(f"split torsor motive disagrees with quadric product at n={n}")
    return "confluent on 1000 seeded expressions; inverses and torsor products agree"


@_criterion(8, "Sq1 suite")
def check_sq1(box: tuple[int, int] | None = None) -> str:
    w, d = _box((5, 5), box)
    model = build_field_model("real")
    for block in ("BO:4", "BOp:1"):
        pres = sq1_presentation(model, block, w, d)
        report, solved = sq1_check(sq1_define(pres), w, d)
        if not report.ok:
            if not report.descends:
                raise _Failure(f"{block}: offending relation {report.offending_relation}")
            raise _Failure(f"{block}: square-zero offender {report.square_zero_offender}")
        # Leibniz on all monomial pairs of the box whose product stays inside
        # the bound, certified from generator products by induction
        offender = leibniz_offender(solved, w, d)
        if offender is not None:
            x, c = offender
            raise _Failure(f"Leibniz fails on {x} * {c} in {block}")
    # the non-vanishing witness
    ring = block_presentation(model, "XBO:2", 12)
    der = sq1_define(ring)
    witness = sq1_apply(der, ring.el("mu*u2"))
    expected = ring.el("mu^2*u2 + mu*u1*u2")
    if witness.is_zero() or witness != expected:
        raise _Failure(f"witness Sq1(mu*u2) = {witness}")
    return f"descends, square-zero and Leibniz on box ({w},{d}); witness nonzero"


@_criterion(9, "class specialization")
def check_specialization() -> str:
    model = build_field_model("real")
    bu2 = block_presentation(model, "BU:2", 12)
    xa = block_presentation(model, "Xalpha", 12)
    # split form: all classes vanish
    _, rep = specialize_classes(
        bu2, {"c1": "0", "c2": "0", "d1": "0"}, xa, "split-form"
    )
    if not rep.well_defined:
        raise _Failure(f"zero assignment: relation {rep.first_failing} does not vanish")
    if rep.split_compatible is not True:
        raise _Failure(f"zero assignment: split_compatible is {rep.split_compatible}")
    # negative control: violates tau*d1 + alpha*c1
    _, bad = specialize_classes(
        bu2, {"c1": "rho*mu", "c2": "0", "d1": "0"}, xa, "corrupted"
    )
    if bad.well_defined or bad.first_failing is None:
        raise _Failure("corrupted assignment was not rejected")
    if "d1" not in bad.first_failing:
        raise _Failure(f"unexpected failing relation: {bad.first_failing}")
    # negative control for the splitting criterion
    _, nonsplit = specialize_classes(
        bu2, {"c1": "0", "c2": "rho^2*mu^2", "d1": "0"}, xa, "nonsplit"
    )
    if nonsplit.split_compatible is not False:
        raise _Failure("nonzero c2 still reported split-compatible")
    return (
        "zero classes pass and report split-compatible; controls fail with "
        f"relation {bad.first_failing!r}"
    )


# ----- golden files -------------------------------------------------------------

GOLDEN_COMMANDS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("table_bu1_real.txt", ("ring", "table", "BU:1", "--model", "real", "--box", "4", "4")),
    ("table_bu1_real.json", ("ring", "table", "BU:1", "--model", "real", "--box", "4", "4", "--format", "json")),
    ("table_mtilde_fq.txt", ("ring", "table", "Mtilde", "--model", "finite_field", "--box", "3", "3")),
    ("table_nbar_real.txt", ("ring", "table", "nbar", "--model", "real", "--box", "4", "4")),
    ("build_bu2_fq.txt", ("ring", "build", "BU:2", "--model", "finite_field", "--box", "3", "3")),
    ("motive_eval_inverse.txt", ("motive", "eval", "N^1 * N^-1")),
    ("motive_eval_table.json", ("motive", "eval", "N^1(2)[3]", "--model", "real", "--box", "4", "4", "--format", "json")),
    ("field_show_real.txt", ("field", "show", "--model", "real")),
    ("hom_verify_comp1_fq.json", ("hom", "verify", "comp:1", "--model", "finite_field", "--box", "4", "4", "--format", "json")),
    ("hom_kernel_comp2_real.json", ("hom", "kernel", "comp:2", "--model", "real", "--box", "5", "5", "--format", "json")),
    ("sq1_check_bop1_real.json", ("sq1", "check", "BOp:1", "--model", "real", "--box", "4", "4", "--format", "json")),
)


def run_golden_command(argv: tuple[str, ...]) -> tuple[int, str]:
    from . import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, buf.getvalue()


@_criterion(10, "CLI golden outputs")
def check_golden() -> str:
    for name, argv in GOLDEN_COMMANDS:
        ref = resources.files("subtle").joinpath("golden", name)
        if not ref.is_file():
            raise _Failure(f"missing golden file {name}")
        expected = ref.read_text(encoding="utf-8")
        code, got = run_golden_command(argv)
        if code != 0:
            raise _Failure(f"{' '.join(argv)} exited {code}")
        if got != expected:
            raise _Failure(f"{name} differs from pinned output")
    return f"{len(GOLDEN_COMMANDS)} pinned commands byte-identical"


def run_all(seed: int = 20250801, box: tuple[int, int] | None = None) -> list[CheckResult]:
    """The ten criteria in order.  They read the same blocks over and over,
    so they share one ``shared_tables`` scope, the golden commands included:
    each staircase is counted once per run.  Criterion 6 still compares the
    engine's tables, served or not, with fresh oracle counts."""
    with shared_tables():
        return [
            check_decomposition(box),
            check_kernel(box),
            check_diagonal_recursion(box),
            check_colimit_stabilization(box),
            check_twist(box),
            check_groebner_oracle(box),
            check_motive_suite(seed),
            check_sq1(box),
            check_specialization(),
            check_golden(),
        ]

"""Workload inputs: the seeded field model and the request list of each workload.

The default seed gives the committed 3-generator model ``three`` (``three.json``):
generators a, b, c in degree 1, relations ``a*b`` and ``b^2+a*c``, and
``alpha = minus_one = a``.  Any other seed draws a model of the same shape: one
quadratic monomial relation and one quadratic binomial relation that share no
factor.  Two coprime quadrics in three variables form a regular sequence, so
every such model has the Hilbert series (1+t)^2/(1-t) of ``three`` and the same
graded dimensions 1, 3, 4, 4, ...; the workloads therefore do the same amount of
enumeration on every seed, and only the Groebner bases differ.

Why each workload (shares are of traced wall time on the default seed;
``maps`` is not listed in BENCHMARK.json, see README.md):

* ``table`` -- ``ring table BU:4 --box 16 16`` on the seeded model.  One large
  presentation with each cell's basis enumerated once.  Basis enumeration
  (``bigraded.basis``) is about 99%, normal form about 0%, the colon ideal
  behind Ann(alpha) about 12% inclusive, and no build repeats.  A change to basis
  enumeration shows here; a change to reduction should not move it.
* ``maps`` -- ``hom verify comp:3 --box 12 12`` and ``sq1 check BOp:2 --box 9 9``
  on the seeded model, and ``hom kernel comp:5 --box 12 12`` on ``real``.  Per
  cell it builds source and target bases and multiplies elements: about 78%
  basis, 12% normal form, 7% ``Homomorphism.apply`` and 2% Sq1.  Once basis
  enumeration is fast, this is where reduction and map application dominate.
* ``suite`` -- ``verify all``, the acceptance suite.  283 small presentation
  builds and repeated block builds, plus the dense oracle (10%), the Sq1
  Leibniz checks (14%), the motive suite and the golden commands.  The
  same layers as ``table``, but as many small jobs; the only workload where the
  oracle runs and where caching builds could help.  The seed shifts the
  motive-suite seed of ``verify all``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

DEFAULT_SEED = 0
BENCH_DIR = Path(__file__).resolve().parent
THREE_PATH = BENCH_DIR / "three.json"

# ``verify all`` default seed; the suite workload offsets it by the bench seed
SUITE_BASE_SEED = 20250801

GENERATORS = ("a", "b", "c")
# quadratic monomials in a, b, c as exponent vectors
_QUADRATICS = tuple(
    tuple(sorted((i, j))) for i in range(3) for j in range(i, 3)
)

THREE = {
    "name": "three",
    "generators": list(GENERATORS),
    "relations": ["a*b", "b^2+a*c"],
    "alpha": "a",
    "minus_one": "a",
}

WORKLOADS = ("table", "maps", "suite")


def _mono_str(m: tuple[int, int]) -> str:
    i, j = m
    if i == j:
        return f"{GENERATORS[i]}^2"
    return f"{GENERATORS[i]}*{GENERATORS[j]}"


def model_descriptor(seed: int) -> dict:
    """The field model for a seed: ``three`` for the default seed, else a
    random model of the same shape (monomial + binomial, coprime)."""
    if seed == DEFAULT_SEED:
        return dict(THREE)
    rng = random.Random(seed)
    while True:
        mono = rng.choice(_QUADRATICS)
        binom = rng.sample(_QUADRATICS, 2)
        if mono in binom:
            continue
        # a common factor of a monomial and a binomial is one of the
        # monomial's variables dividing both terms of the binomial
        if any(all(v in t for t in binom) for v in set(mono)):
            continue
        binom.sort()
        return {
            "name": f"three_s{seed}",
            "generators": list(GENERATORS),
            "relations": [_mono_str(mono), "+".join(_mono_str(t) for t in binom)],
            "alpha": "a",
            "minus_one": "a",
        }


def render_model(descriptor: dict) -> str:
    """The descriptor file's exact text (``three.json`` for the default seed)."""
    return json.dumps(descriptor) + "\n"


def requests(workload: str, model_path: str, seed: int) -> list[list[str]]:
    """The CLI argument lists a workload sends, in order."""
    if workload == "table":
        return [
            ["ring", "table", "BU:4", "--model", model_path, "--box", "16", "16", "--format", "json"],
        ]
    if workload == "maps":
        return [
            ["hom", "verify", "comp:3", "--model", model_path, "--box", "12", "12", "--format", "json"],
            ["hom", "kernel", "comp:5", "--model", "real", "--box", "12", "12", "--format", "json"],
            ["sq1", "check", "BOp:2", "--model", model_path, "--box", "9", "9", "--format", "json"],
        ]
    if workload == "suite":
        return [
            ["verify", "all", "--seed", str(SUITE_BASE_SEED + seed), "--format", "json"],
        ]
    raise ValueError(f"unknown workload {workload!r}")

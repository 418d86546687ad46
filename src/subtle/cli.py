"""Command-line front end.

    subtle field show              --model real
    subtle ring build BU:2         --model finite_field --box 3 3
    subtle ring table BU:1         --model real --box 4 4
    subtle hom verify comp:2       --model real --box 6 6
    subtle hom verify path/to/map.json
    subtle hom kernel comp:2       --model real --box 8 8
    subtle sq1 check BOp:1         --model real --box 4 4
    subtle motive eval "N^1 * N^-1"
    subtle verify all              --seed 20250801

Each command returns (exit code, JSON object, text) and prints nothing;
``run`` prints one of the two forms once, per --format, to stdout or --out.
Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or configuration error.  Reports always state the certification box.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from .bigraded import Element
from .errors import SubtleError
from .maps import (
    comp_kernel_ideal,
    comp_map,
    hom_verify,
    kernel_match,
    load_map_descriptor,
    twist_iso,
)
from .milnor import BUILTIN_MODELS, build_field_model
from .motives import motive_cohomology, parse_motive
from .parse import STRING, load_descriptor, parse_id, parse_int
from .rings import block_presentation, block_table, canonical_block_id
from .steenrod import sq1_check, sq1_define, sq1_presentation
from . import verify as verify_mod

DEFAULT_BOX = (8, 8)
DEFAULT_SEED = 20250801


# parse_args leaves the parser as it was, so one serves every run in a process
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--model", default=None, help="builtin name or descriptor path")
    shared.add_argument("--box", nargs=2, metavar=("W", "D"), default=None)
    shared.add_argument("--format", choices=["text", "json"], default=None)
    shared.add_argument("--seed", default=None)
    shared.add_argument("--out", default=None, help="write the report to a file")
    shared.add_argument("--config", default=None, help="JSON file presetting flags")

    parser = argparse.ArgumentParser(
        prog="subtle",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", parents=[shared])
    p_field.add_argument("action", choices=["show"])

    p_ring = sub.add_parser("ring", parents=[shared])
    p_ring.add_argument("action", choices=["build", "table"])
    p_ring.add_argument("block")

    p_hom = sub.add_parser("hom", parents=[shared])
    p_hom.add_argument("action", choices=["verify", "kernel"])
    p_hom.add_argument("map")

    p_sq1 = sub.add_parser("sq1", parents=[shared])
    p_sq1.add_argument("action", choices=["check"])
    p_sq1.add_argument("block")
    p_sq1.add_argument("--values", default=None, help="derivation descriptor JSON")

    p_motive = sub.add_parser("motive", parents=[shared])
    p_motive.add_argument("action", choices=["eval"])
    p_motive.add_argument("expr")

    p_verify = sub.add_parser("verify", parents=[shared])
    p_verify.add_argument("action", choices=["all"])
    return parser


def _is_box(value) -> bool:
    # type() rather than isinstance: JSON true/false load as bool, an int subclass
    return (
        isinstance(value, list)
        and len(value) == 2
        and all(type(x) is int and x >= 0 for x in value)
    )


# the config file's keys, one per flag it presets
CONFIG_FIELDS = {
    "box": (_is_box, "two non-negative integers"),
    "format": (lambda v: v in ("text", "json"), '"text" or "json"'),
    "model": STRING,
    "out": STRING,
    "seed": (lambda v: type(v) is int, "an integer"),
}


def _apply_config(args) -> None:
    if args.box is not None:
        args.box = [parse_int(v, "--box") for v in args.box]
    if args.seed is not None:
        args.seed = parse_int(args.seed, "--seed", signed=True)
    if args.config:
        for key, value in load_descriptor(args.config, "config", CONFIG_FIELDS).items():
            if getattr(args, key) is None:
                setattr(args, key, value)
    args.explicit_model = args.model is not None
    if args.model is None:
        args.model = "real"
    args.explicit_box = args.box is not None
    if args.box is None:
        args.box = list(DEFAULT_BOX)
    if args.format is None:
        args.format = "text"
    if args.seed is None:
        args.seed = DEFAULT_SEED


def _resolve_model(name: str):
    search = os.environ.get("SUBTLE_MODEL_DIR")
    if search and name not in BUILTIN_MODELS and not Path(name).is_file():
        for candidate in (Path(search) / name, Path(search) / f"{name}.json"):
            if candidate.is_file():
                return build_field_model(str(candidate))
    return build_field_model(name)


def _report(rep, code: int) -> tuple[int, dict, str]:
    return code, rep.to_json_obj(), rep.render_text()


# ----- subcommands: each returns (exit code, JSON object, text) ------------------


def _cmd_field(args) -> tuple[int, dict, str]:
    model = _resolve_model(args.model)
    dims = model.dimensions(8)
    # annihilator(9) finds the generators of degree below 9, so up to 8
    ann = model.annihilator(9) if model.has_alpha else None
    payload = {
        "model": model.tag,
        "generators": list(model.generators),
        "relations": list(model.relation_strings),
        "alpha": model.alpha_string,
        "minus_one": model.minus_one_string,
        "dimensions_to_degree_8": dims,
        "annihilator_of_alpha": [str(g) for g in ann.gens] if ann else None,
    }
    lines = [
        str(model),
        f"minus_one designation: {model.minus_one_string}",
        f"graded dimensions (degrees 0..8): {dims}",
        f"Ann(alpha) generators (degree <= 8): {ann}"
        if ann is not None
        else "Ann(alpha): model carries no alpha",
    ]
    return 0, payload, "\n".join(lines)


def _cmd_ring(args) -> tuple[int, dict, str]:
    model = _resolve_model(args.model)
    w, d = args.box
    block = canonical_block_id(args.block)
    if args.action == "table":
        table = block_table(model, block, w, d)
        head = f"block: {block}\nmodel: {model.tag}\nbox: {w} {d}"
        return 0, table.to_json_obj(), head + "\n" + table.render_text()
    pres = block_presentation(model, block, w + d)
    relations = [str(Element(pres, r)) for r in pres.relations]
    groebner = [str(Element(pres, g)) for g in pres.groebner]
    payload = {
        "block": block,
        "model": model.tag,
        "bound": pres.truncation_bound,
        "is_module": pres.is_module,
        "generators": [
            {
                "name": g.name,
                "bidegree": [g.bidegree.w, g.bidegree.d],
                "origin": g.origin,
            }
            for g in pres.gens
        ],
        "relations": relations,
        "groebner": groebner,
    }
    lines = [
        f"block: {block}",
        f"model: {model.tag}",
        f"bound: {pres.truncation_bound}",
        "generators: " + ", ".join(f"{g.name}{g.bidegree}" for g in pres.gens),
        "relations: " + (", ".join(relations) or "none"),
        "groebner basis: " + (", ".join(groebner) or "empty"),
    ]
    return 0, payload, "\n".join(lines)


def _cmd_hom(args) -> tuple[int, dict, str]:
    model = _resolve_model(args.model)
    w, d = args.box
    bound = w + d
    map_arg = args.map
    if map_arg.startswith(("comp:", "pq:")):
        kind, (n, *more) = parse_id(map_arg, "map")
        if more:
            raise SubtleError(f"bad map {map_arg!r} (expected {kind}:n)")
        h = (comp_map if kind == "comp" else twist_iso)(model, n, bound)
    elif Path(map_arg).is_file():
        h = load_map_descriptor(map_arg, model, bound)
    else:
        raise SubtleError(f"unknown map {map_arg!r} (expected comp:n, pq:n, or a file)")
    if args.action == "kernel":
        if not map_arg.startswith("comp:"):
            raise SubtleError("kernel checking is defined for comp:n maps")
        rep = kernel_match(h, comp_kernel_ideal(model, n, bound), w, d)
        return _report(rep, 0 if rep.ok else 1)
    rep = hom_verify(h, w, d)
    return _report(rep, 0 if rep.well_defined else 1)


def _cmd_sq1(args) -> tuple[int, dict, str]:
    model = _resolve_model(args.model)
    w, d = args.box
    pres = sq1_presentation(model, args.block, w, d)
    if args.values:
        from .steenrod import load_derivation_descriptor

        der = load_derivation_descriptor(args.values, pres)
    else:
        der = sq1_define(pres)
    report, _ = sq1_check(der, w, d)
    return _report(report, 0 if report.ok else 1)


def _cmd_motive(args) -> tuple[int, dict, str]:
    motive = parse_motive(args.expr)
    # a named model is checked even when no box asks for a table
    model = _resolve_model(args.model) if args.explicit_model or args.explicit_box else None
    if not args.explicit_box:
        return 0, {"normal_form": str(motive)}, str(motive)
    w, d = args.box
    table = motive_cohomology(model, motive, w, d)
    payload = {"normal_form": str(motive), "model": model.tag, "clipped": table.clipped}
    payload.update(table.to_json_obj())
    lines = [f"normal form: {motive}", f"model: {model.tag}"]
    if table.clipped:
        lines.append("warning: negative twists clipped at the box edge")
    lines.append(table.render_text())
    return 0, payload, "\n".join(lines)


def _cmd_verify(args) -> tuple[int, dict, str]:
    if args.explicit_model:
        raise SubtleError(
            "verify all reads no model (--model or a config's \"model\" key): "
            "criteria 1-10 run on their built-in models"
        )
    box = tuple(args.box) if args.explicit_box else None
    results = verify_mod.run_all(seed=args.seed, box=box)
    all_pass = all(r.passed for r in results)
    payload = {
        "seed": args.seed,
        "checks": [asdict(r) for r in results],
        "all_pass": all_pass,
    }
    return 0 if all_pass else 1, payload, "\n".join(r.line() for r in results)


_COMMANDS = {
    "field": _cmd_field,
    "ring": _cmd_ring,
    "hom": _cmd_hom,
    "sq1": _cmd_sq1,
    "motive": _cmd_motive,
    "verify": _cmd_verify,
}


# the flags whose values are integers, with their value counts: argparse
# takes a value such as "-+3" or "-0x1" for an unknown flag, so ``run`` sets
# these aside for ``parse_int`` to judge
_INT_FLAGS = {"--box": 2, "--seed": 1}


def _long_flags(command: str) -> tuple[str, ...]:
    """The long flags of ``command``'s parser, or none for an unknown one."""
    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a.choices, dict))
    commands = sub.choices
    if command not in commands:
        return ()
    return tuple(f for a in commands[command]._actions for f in a.option_strings if f[:2] == "--")


def _set_aside_int_flags(argv: list[str]) -> tuple[list[str], dict]:
    """``argv`` without the integer flags and their values, and the values
    by flag name.  A flag may be written as argparse reads it: in full, or
    as a prefix that starts no other long flag of the command.  A value may
    start with one ``-`` but not two, so a flag short of values stays for
    argparse to report; nothing after ``--`` is a flag."""
    flags = _long_flags(argv[0]) if argv else ()
    rest: list[str] = []
    values: dict = {}
    i = 0
    while i < len(argv):
        if argv[i] == "--":
            rest += argv[i:]
            break
        flag = argv[i]
        named = [f for f in flags if f.startswith(flag)] if flag[:2] == "--" else []
        if flag not in _INT_FLAGS and len(named) == 1:
            flag = named[0]
        n = _INT_FLAGS.get(flag, 0)
        taken = argv[i + 1 : i + 1 + n]
        if n and len(taken) == n and not any(t.startswith("--") for t in taken):
            values[flag[2:]] = taken if n > 1 else taken[0]
        else:
            rest.append(argv[i])
            n = 0
        i += 1 + n
    return rest, values


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    rest, int_values = _set_aside_int_flags(sys.argv[1:] if argv is None else list(argv))
    try:
        args = parser.parse_args(rest)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    for name, value in int_values.items():
        setattr(args, name, value)
    try:
        _apply_config(args)
        code, payload, text = _COMMANDS[args.command](args)
        report = json.dumps(payload, indent=2) if args.format == "json" else text
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(report + "\n")
        else:
            print(report)
        return code
    except (SubtleError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

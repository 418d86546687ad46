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

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage or configuration error.  Reports always state the certification box.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
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
from .parse import load_descriptor
from .rings import block_presentation, block_table
from .steenrod import sq1_check, sq1_define, sq1_presentation
from . import verify as verify_mod

DEFAULT_BOX = (8, 8)
DEFAULT_SEED = 20250801
CONFIG_KEYS = ("box", "format", "model", "out", "seed")


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--model", default=None, help="builtin name or descriptor path")
    shared.add_argument("--box", nargs=2, type=int, metavar=("W", "D"), default=None)
    shared.add_argument("--format", choices=["text", "json"], default=None)
    shared.add_argument("--seed", type=int, default=None)
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


def _preset(preset: dict, key: str, valid, what: str):
    """The config file's value for a flag, None when absent; exit 2 when bad."""
    value = preset.get(key)
    if value is not None and not valid(value):
        raise SubtleError(f"config {key} must be {what}, got {json.dumps(value)}")
    return value


def _apply_config(args) -> None:
    if args.config:
        preset = load_descriptor(args.config, "config")
        unknown = sorted(set(preset) - set(CONFIG_KEYS))
        if unknown:
            known = ", ".join(CONFIG_KEYS)
            raise SubtleError(f"unknown config key {json.dumps(unknown[0])}; known: {known}")
        if args.model is None:
            args.model = _preset(preset, "model", lambda v: isinstance(v, str), "a string")
        if args.box is None:
            args.box = _preset(preset, "box", _is_box, "two non-negative integers")
        if args.format is None:
            args.format = _preset(
                preset, "format", lambda v: v in ("text", "json"), '"text" or "json"'
            )
        if args.seed is None:
            args.seed = _preset(preset, "seed", lambda v: type(v) is int, "an integer")
        if args.out is None:
            args.out = _preset(preset, "out", lambda v: isinstance(v, str), "a string")
    if args.model is None:
        args.model = "real"
    args.explicit_box = args.box is not None
    if args.box is None:
        args.box = list(DEFAULT_BOX)
    if min(args.box) < 0:
        raise SubtleError(f"--box needs W, D >= 0, got {args.box[0]} {args.box[1]}")
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


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _json(obj) -> str:
    return json.dumps(obj, indent=2)


# ----- subcommands --------------------------------------------------------------


def _cmd_field(args) -> int:
    model = _resolve_model(args.model)
    dims = model.dimensions(8)
    ann = model.annihilator(8) if model.has_alpha else None
    if args.format == "json":
        payload = {
            "model": model.tag,
            "generators": list(model.generators),
            "relations": list(model.relation_strings),
            "alpha": model.alpha_string,
            "minus_one": model.minus_one_string,
            "dimensions_to_degree_8": dims,
            "annihilator_of_alpha": [str(g) for g in ann.gens] if ann else None,
        }
        _emit(args, _json(payload))
    else:
        lines = [str(model)]
        lines.append(f"minus_one designation: {model.minus_one_string}")
        lines.append(f"graded dimensions (degrees 0..8): {dims}")
        if ann is not None:
            lines.append(f"Ann(alpha) generators (degree <= 8): {ann}")
        else:
            lines.append("Ann(alpha): model carries no alpha")
        _emit(args, "\n".join(lines))
    return 0


def _cmd_ring(args) -> int:
    model = _resolve_model(args.model)
    w, d = args.box
    if args.action == "table":
        table = block_table(model, args.block, w, d)
        if args.format == "json":
            _emit(args, _json(table.to_json_obj()))
        else:
            head = f"block: {args.block}\nmodel: {model.tag}\nbox: {w} {d}"
            _emit(args, head + "\n" + table.render_text())
        return 0
    pres = block_presentation(model, args.block, w + d)
    if args.format == "json":
        payload = {
            "block": args.block,
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
            "relations": [str(Element(pres, r)) for r in pres.relations],
            "groebner": [str(Element(pres, g)) for g in pres.groebner],
        }
        _emit(args, _json(payload))
    else:
        lines = [
            f"block: {args.block}",
            f"model: {model.tag}",
            f"bound: {pres.truncation_bound}",
            "generators: "
            + ", ".join(f"{g.name}{g.bidegree}" for g in pres.gens),
            "relations: "
            + (", ".join(str(Element(pres, r)) for r in pres.relations) or "none"),
            "groebner basis: "
            + (", ".join(str(Element(pres, g)) for g in pres.groebner) or "empty"),
        ]
        _emit(args, "\n".join(lines))
    return 0


def _map_index(map_arg: str) -> int:
    """The n of a comp:n or pq:n map argument."""
    text = map_arg.split(":", 1)[1]
    try:
        return int(text)
    except ValueError:
        raise SubtleError(f"bad map {map_arg!r}: {text!r} is not an integer") from None


def _cmd_hom(args) -> int:
    model = _resolve_model(args.model)
    w, d = args.box
    bound = w + d
    map_arg = args.map
    if map_arg.startswith("comp:"):
        h = comp_map(model, _map_index(map_arg), bound)
    elif map_arg.startswith("pq:"):
        h = twist_iso(model, _map_index(map_arg), bound)
    elif Path(map_arg).is_file():
        h = load_map_descriptor(map_arg, model, bound)
    else:
        raise SubtleError(f"unknown map {map_arg!r} (expected comp:n, pq:n, or a file)")

    if args.action == "kernel":
        if not map_arg.startswith("comp:"):
            raise SubtleError("kernel checking is defined for comp:n maps")
        ideal = comp_kernel_ideal(model, _map_index(map_arg), bound)
        rep = kernel_match(h, ideal, w, d)
        if args.format == "json":
            _emit(args, _json(rep.to_json_obj()))
        else:
            _emit(args, rep.render_text())
        return 0 if rep.ok else 1

    rep = hom_verify(h, w, d)
    if args.format == "json":
        _emit(args, _json(rep.to_json_obj()))
    else:
        _emit(args, rep.render_text())
    return 0 if rep.well_defined else 1


def _cmd_sq1(args) -> int:
    model = _resolve_model(args.model)
    w, d = args.box
    pres = sq1_presentation(model, args.block, w, d)
    if args.values:
        from .steenrod import load_derivation_descriptor

        der = load_derivation_descriptor(args.values, pres)
    else:
        der = sq1_define(pres)
    report, _ = sq1_check(der, w, d)
    if args.format == "json":
        _emit(args, _json(report.to_json_obj()))
    else:
        _emit(args, report.render_text())
    return 0 if report.ok else 1


def _cmd_motive(args) -> int:
    motive = parse_motive(args.expr)
    if args.explicit_box:
        model = _resolve_model(args.model)
        w, d = args.box
        table = motive_cohomology(model, motive, w, d)
        if args.format == "json":
            payload = {
                "normal_form": str(motive),
                "model": model.tag,
                "clipped": table.clipped,
            }
            payload.update(table.to_json_obj())
            _emit(args, _json(payload))
        else:
            lines = [f"normal form: {motive}", f"model: {model.tag}"]
            if table.clipped:
                lines.append("warning: negative twists clipped at the box edge")
            lines.append(table.render_text())
            _emit(args, "\n".join(lines))
        return 0
    if args.format == "json":
        _emit(args, _json({"normal_form": str(motive)}))
    else:
        _emit(args, str(motive))
    return 0


def _cmd_verify(args) -> int:
    box = tuple(args.box) if args.explicit_box else None
    results = verify_mod.run_all(seed=args.seed, box=box)
    if args.format == "json":
        payload = {
            "seed": args.seed,
            "checks": [
                {
                    "number": r.number,
                    "name": r.name,
                    "passed": r.passed,
                    "detail": r.detail,
                }
                for r in results
            ],
            "all_pass": all(r.passed for r in results),
        }
        _emit(args, _json(payload))
    else:
        _emit(args, "\n".join(r.line() for r in results))
    return 0 if all(r.passed for r in results) else 1


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    try:
        _apply_config(args)
        if args.command == "field":
            return _cmd_field(args)
        if args.command == "ring":
            return _cmd_ring(args)
        if args.command == "hom":
            return _cmd_hom(args)
        if args.command == "sq1":
            return _cmd_sq1(args)
        if args.command == "motive":
            return _cmd_motive(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return 2
    except SubtleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

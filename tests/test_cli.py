import hashlib
import io
import json
import random
import shlex
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from subtle import cli
from subtle.verify import GOLDEN_COMMANDS, CheckResult


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.run(list(argv))
    return code, buf.getvalue()


def test_golden_outputs_byte_identical():
    for name, argv in GOLDEN_COMMANDS:
        expected = resources.files("subtle").joinpath("golden", name).read_text("utf-8")
        code, got = run_cli(*argv)
        assert code == 0, (name, got)
        assert got == expected, name


def test_outputs_stable_across_runs():
    for name, argv in GOLDEN_COMMANDS[:4]:
        assert run_cli(*argv) == run_cli(*argv)


def test_ring_table_spec_example():
    code, out = run_cli("ring", "table", "BU:1", "--model", "real", "--box", "4", "4")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("w=")]
    assert len(lines) == 5  # 5x5 grid
    # entry (2)[3] = 1
    row = lines[2].split()
    assert row[1 + 3] == "1"


def test_ring_build_json_matches_text_golden():
    code, out = run_cli(
        "ring", "build", "BU:2", "--model", "finite_field", "--box", "3", "3",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    golden = resources.files("subtle").joinpath("golden", "build_bu2_fq.txt")
    text = dict(line.split(": ", 1) for line in golden.read_text("utf-8").splitlines())
    assert (payload["block"], payload["model"], str(payload["bound"])) == (
        text["block"], text["model"], text["bound"]
    )
    assert payload["is_module"] is False
    gens = [f"{g['name']}({g['bidegree'][0]})[{g['bidegree'][1]}]" for g in payload["generators"]]
    assert ", ".join(gens) == text["generators"]
    assert ", ".join(payload["relations"]) == text["relations"]
    assert ", ".join(payload["groebner"]) == text["groebner basis"]


def test_ring_table_json_schema():
    code, out = run_cli(
        "ring", "table", "BU:1", "--model", "real", "--box", "3", "3",
        "--format", "json",
    )
    payload = json.loads(out)
    assert payload["box"] == [3, 3]
    assert [0, 0, 1] in payload["entries"]
    assert len(payload["entries"]) == 16  # every cell listed, zeros included
    assert payload["entries"] == sorted(payload["entries"])


def test_motive_eval_rewrites():
    code, out = run_cli("motive", "eval", "N^1 * N^-1")
    assert code == 0
    assert out.strip() == "T"
    code, out = run_cli("motive", "eval", "N^1 * N^-1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"normal_form": "T"}


def test_motive_eval_high_power_exits_0():
    # on a (2, 2) box N^3000 reads Npow:2, not a 3000-generator module
    code, out = run_cli("motive", "eval", "N^3000", "--model", "real", "--box", "2", "2")
    assert code == 0, out
    assert out.startswith("normal form: N^3000\n")


def test_motive_eval_bad_expression_exits_2():
    code, _ = run_cli("motive", "eval", "N^1 *")
    assert code == 2
    code, _ = run_cli("motive", "eval", "Ma * Ma")
    assert code == 2


@pytest.mark.parametrize("given", ["flag", "config"])
def test_motive_eval_checks_a_named_model_without_a_box(tmp_path, capsys, given):
    # a named model is resolved even when no box asks for a table
    missing = str(tmp_path / "nonexistent.json")
    if given == "flag":
        argv = ["motive", "eval", "T", "--model", missing]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": missing}), encoding="utf-8")
        argv = ["motive", "eval", "T", "--config", str(cfg)]
    assert run_cli(*argv) == (2, "")
    assert capsys.readouterr().err == f"error: unknown model {missing!r} (not builtin, not a file)\n"
    # a valid one leaves the output as it was
    assert run_cli("motive", "eval", "T", "--model", "quadratically_closed") == (0, "T\n")


def test_hom_verify_exit_codes(tmp_path):
    code, out = run_cli("hom", "verify", "comp:2", "--model", "real", "--box", "4", "4")
    assert code == 0
    assert "well_defined: True" in out

    bad = tmp_path / "bad.json"
    bad.write_text(
        '{"source": "BOh:1", "target": "BU:1", "images": {"u1": "0", "u2": "c1", "v3": "0"}}',
        encoding="utf-8",
    )
    code, out = run_cli("hom", "verify", str(bad), "--model", "real", "--box", "4", "4")
    assert code == 1
    assert "tau*v3 + rho*u2" in out


def test_hom_verify_pq():
    code, out = run_cli("hom", "verify", "pq:1", "--model", "real", "--box", "4", "4")
    assert code == 0
    assert "injective_on_box: True" in out


def test_hom_kernel():
    code, out = run_cli("hom", "kernel", "comp:1", "--model", "finite_field", "--box", "4", "4")
    assert code == 0
    assert "MATCH" in out


def test_sq1_check_exit():
    code, out = run_cli("sq1", "check", "BO:3", "--model", "real", "--box", "3", "3")
    assert code == 0
    code, _ = run_cli("sq1", "check", "BO:3", "--model", "finite_field", "--box", "3", "3")
    assert code == 2  # no {-1} designation on the builtin finite field


def test_sq1_check_unsolvable_exits_1():
    # no value of Sq1(mu_i) in the one-diagonal module kills tau*mu_i
    code, out = run_cli("sq1", "check", "Xtilde", "--model", "real", "--box", "3", "3")
    assert code == 1
    assert "offending relation: unsolvable constraints for mu1, mu2," in out
    assert "Sq1 o Sq1 = 0 on box: False" in out


def _readme_cli_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    block = readme.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("subtle ")]


def test_readme_cli_examples_exit_0():
    lines = [argv for argv in _readme_cli_lines() if "my_map.json" not in argv]
    assert len(lines) >= 10
    for argv in lines:
        code, out = run_cli(*argv)
        assert code == 0, (argv, out)


def test_readme_library_sketch_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    sketch = readme.split("## Library sketch\n\n```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
    assert "w=6" in capsys.readouterr().out


@pytest.mark.parametrize("block", ["BO:4", "BU:2", "BOp:2", "Npow:2"])
def test_sq1_check_small_box_exits_0(block):
    # Sq1 o Sq1 of a generator above the box (u4 has total 6) still fits the bound
    for w in range(3):
        for d in range(3):
            code, out = run_cli("sq1", "check", block, "--model", "real", "--box", str(w), str(d))
            assert code == 0, (block, w, d, out)
            assert "Sq1 o Sq1 = 0 on box: True" in out


def test_verify_all_small_box_exits_0():
    code, out = run_cli("verify", "all", "--box", "2", "2")
    assert code == 0, out
    code, payload = run_cli("verify", "all", "--box", "2", "2", "--format", "json")
    payload = json.loads(payload)
    assert code == 0
    assert list(payload) == ["seed", "checks", "all_pass"]
    assert payload["seed"] == 20250801 and payload["all_pass"] is True
    checks = payload["checks"]
    assert [c["number"] for c in checks] == list(range(1, 11))
    assert all(list(c) == ["number", "name", "passed", "detail"] for c in checks)
    # the JSON entries carry exactly what the text lines print
    assert [CheckResult(**c).line() for c in checks] == out.splitlines()


@pytest.mark.parametrize("given", ["flag", "config"])
@pytest.mark.parametrize("model", ["file", "missing", "builtin"])
def test_verify_all_refuses_a_model(tmp_path, capsys, given, model):
    # verify all certifies its built-in models only: a model asked for, by
    # flag or by config key, exits 2 before any criterion runs, never a PASS
    # about other models
    name = {
        "file": str(Path(__file__).parent / "models" / "alpha_sum.json"),
        "missing": str(tmp_path / "nonexistent.json"),
        "builtin": "quadratically_closed",
    }[model]
    if given == "flag":
        argv = ["verify", "all", "--model", name]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": name, "box": [0, 0]}), encoding="utf-8")
        argv = ["verify", "all", "--config", str(cfg)]
    assert run_cli(*argv) == (2, "")
    err = capsys.readouterr().err
    assert err.startswith("error: verify all reads no model")
    assert "criteria 1-10 run on their built-in models" in err


def _relations(out):
    return set(dict(line.split(": ", 1) for line in out.splitlines())["relations"].split(", "))


@pytest.mark.parametrize(
    "argv, passes",
    [
        (["sq1", "check", "BOp:1", "--model", "ab4", "--box", "1", "1"],
         lambda out: "descends to quotient: True" in out),
        (["hom", "kernel", "comp:1", "--model", "ab4", "--box", "1", "1"],
         lambda out: out.splitlines()[-1] == "MATCH"),
        (["ring", "build", "BU:3", "--model", "finite_field", "--box", "0", "0"],
         lambda out: {"s*d1", "s*d3"} <= _relations(out)),
        (["verify", "all", "--box", "0", "0"],
         lambda out: [line[:4] for line in out.splitlines()] == ["PASS"] * 10),
    ],
    ids=["sq1", "kernel", "build", "verify"],
)
def test_blocks_at_small_boxes_hold_their_relations(argv, passes, ab4_path):
    # a block asked for at a small bound rises to fit its relations and reads
    # Ann(alpha) at the raised bound
    code, out = run_cli(*(ab4_path if a == "ab4" else a for a in argv))
    assert code == 0 and passes(out), out


def test_unknown_block_exits_2():
    code, _ = run_cli("ring", "table", "QQ:1", "--model", "real")
    assert code == 2


def test_unknown_model_exits_2():
    code, _ = run_cli("ring", "table", "H", "--model", "no_such_model")
    assert code == 2


def test_bad_map_index_exits_2(capsys):
    for action in ("verify", "kernel"):
        code, out = run_cli("hom", action, "comp:x", "--model", "real", "--box", "4", "4")
        assert code == 2 and out == ""
        assert "'x' is not an integer" in capsys.readouterr().err
    code, _ = run_cli("hom", "verify", "pq:", "--model", "real", "--box", "2", "2")
    assert code == 2
    code, out = run_cli("hom", "verify", "pq:0_1", "--model", "real", "--box", "2", "2")
    assert code == 2 and out == ""
    assert "'0_1' is not an integer" in capsys.readouterr().err


# golden commands whose third argument is a block or map id
_ID_GOLDENS = [(name, argv) for name, argv in GOLDEN_COMMANDS if argv[0] in ("ring", "hom", "sq1")]


def _near_misses(ident: str) -> list[str]:
    """Ids one edit away from ``ident`` that the id grammar (an ASCII name,
    then ``:`` and ASCII digits per parameter) refuses or names no block."""
    name, _, digits = ident.partition(":")
    misses = [
        ident + " ", " " + ident, ident + "\n", ident + ":", ident + "::1",
        ident + ":+1", ident + "_1", ident.swapcase(), "\u0412" + ident[1:],
    ]
    if digits:
        wide = "".join(chr(ord(c) + 0xFEE0) for c in digits)
        arabic = "".join(chr(ord(c) + 0x0630) for c in digits)
        misses += [
            f"{name}:+{digits}", f"{name}:-{digits}", f"{name}:{digits}_0",
            f"{name}:0_{digits}", f"{name}:{wide}", f"{name}:{arabic}",
            f"{name}: {digits}", f"{name}:{digits}.0", f"{name}:0x{digits}",
            f"{name}:{digits}e0", f"{name}:\u00b9",
        ]
    else:
        misses += [ident + ":0", ident + ":x"]
    return misses


_rng = random.Random(20250801)
_ID_CASES = [
    (name, bad) for name, argv in _ID_GOLDENS for bad in _rng.sample(_near_misses(argv[2]), 6)
]


@pytest.mark.parametrize("golden,bad", _ID_CASES)
def test_near_miss_ids_exit_2_naming_the_id(golden, bad, capsys):
    argv = dict(_ID_GOLDENS)[golden]
    code, out = run_cli(*argv[:2], bad, *argv[3:])
    assert code == 2 and out == ""
    assert repr(bad) in capsys.readouterr().err


def test_valid_ids_keep_their_output():
    # the golden ids are checked by test_golden_outputs_byte_identical; a
    # leading zero is still ASCII digits: the same block, printed canonically
    code, out = run_cli("ring", "table", "BU:01", "--model", "real", "--box", "4", "4")
    assert (code, out) == run_cli(*dict(_ID_GOLDENS)["table_bu1_real.txt"])
    assert out.startswith("block: BU:1\n")
    code, out = run_cli("ring", "table", "NpowBU:1:2", "--model", "real", "--box", "2", "2")
    assert code == 0 and out.startswith("block: NpowBU:1:2\n")


def _near_miss_integers(digit: str, signed: bool) -> list[str]:
    """Integers one edit away from the ASCII ``digit`` that the integer rule
    (ASCII digits, after one optional sign when ``signed``) refuses; none
    starts with ``-`` (``test_dash_led_integers_reach_the_integer_rule``)."""
    misses = [
        chr(ord(digit) + 0xFEE0), chr(ord(digit) + 0x0630), chr(ord(digit) + 0x0936),
        "\u00b9", f"{digit}_0", f"0_{digit}", f" {digit}", f"{digit} ", f"{digit}\n",
        f"{digit}.0", f"0x{digit}", f"{digit}e0", f"+-{digit}", f"++{digit}", "",
    ]
    return misses if signed else misses + [f"+{digit}"]


def _near_miss_integer_cases() -> list[tuple[str, str]]:
    """(where, near miss) pairs: in ``--box``, in ``--seed``, as an element
    exponent in a model file and as a motive exponent.  An element token reads
    a non-ASCII digit alone, so those near misses are single characters, and
    a motive expression may end in spaces."""
    wheres = {
        "box": _near_miss_integers("2", signed=False),
        "seed": _near_miss_integers("3", signed=True),
        "element": ["\uff12", "\u0662", "\u0968", "\u09e8", "\u00b2"],
        "motive": [bad for bad in _near_miss_integers("1", signed=True) if bad == bad.rstrip()],
    }
    rng = random.Random(20250801)
    return [(where, bad) for where, misses in wheres.items() for bad in rng.sample(misses, 5)]


@pytest.mark.parametrize("where,bad", _near_miss_integer_cases())
def test_near_miss_integers_exit_2_naming_the_value(where, bad, tmp_path, capsys):
    named = bad
    if where == "box":
        box = [bad, "2"] if len(bad) % 2 else ["2", bad]
        argv = ["ring", "table", "BU:1", "--model", "real", "--box", *box]
    elif where == "seed":
        argv = ["verify", "all", "--seed", bad]
    elif where == "element":
        model = tmp_path / "model.json"
        relation = {"generators": ["a"], "relations": [f"a^{bad}"], "alpha": "a"}
        model.write_text(json.dumps(relation), encoding="utf-8")
        argv = ["field", "show", "--model", str(model)]
    else:
        named = f"N^{bad}"
        argv = ["motive", "eval", named]
    code, out = run_cli(*argv)
    assert (code, out) == (2, ""), argv
    assert repr(named) in capsys.readouterr().err, argv


def test_valid_integers_keep_their_output():
    # leading zeros and a signed seed are still ASCII integers
    golden = dict(GOLDEN_COMMANDS)["table_bu1_real.txt"]
    assert run_cli("ring", "table", "BU:1", "--model", "real", "--box", "04", "004") == run_cli(*golden)
    for seed in ("+5", "-5", "05"):
        code, out = run_cli("motive", "eval", "N^01 * N^-1", "--seed", seed)
        assert (code, out) == (0, "T\n"), seed


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["verify", "all", "--seed", "-+3"], "-+3"),
        (["verify", "all", "--seed", "-0x1"], "-0x1"),
        (["ring", "table", "BU:1", "--model", "real", "--box", "-0x1", "2"], "-0x1"),
        (["ring", "table", "BU:1", "--box", "2", "-+2", "--model", "real"], "-+2"),
        (["ring", "table", "BU:1", "--box", "-2e0", "-1"], "-2e0"),
        (["motive", "eval", "N^1", "--seed", "-3_0"], "-3_0"),
        # argparse reads a unique prefix as the flag itself
        (["verify", "all", "--se", "-+3"], "-+3"),
        (["ring", "table", "BU:1", "--bo", "-0x1", "2"], "-0x1"),
    ],
)
def test_dash_led_integers_reach_the_integer_rule(argv, bad, capsys):
    # argparse would take these values for unknown flags and name neither
    # the value nor the rule
    code, out = run_cli(*argv)
    assert (code, out) == (2, ""), argv
    flag = "--seed" if any(a[:4] == "--se" for a in argv) else "--box"
    assert f"bad {flag}: {bad!r} is not an integer" in capsys.readouterr().err, argv


def test_integer_flags_short_of_values_are_reported_by_argparse(capsys):
    for argv in (["ring", "table", "BU:1", "--box", "2"], ["ring", "table", "BU:1", "--box", "2", "--format", "json"]):
        assert run_cli(*argv) == (2, ""), argv
        assert "argument --box: expected 2 arguments" in capsys.readouterr().err, argv
    assert run_cli("verify", "all", "--seed") == (2, "")
    assert "argument --seed: expected one argument" in capsys.readouterr().err
    # flags and values are read wherever they stand, in either form
    golden = run_cli(*dict(GOLDEN_COMMANDS)["table_bu1_real.txt"])
    assert run_cli("ring", "table", "--box", "4", "4", "BU:1", "--model", "real", "--seed", "-5") == golden
    assert run_cli("ring", "table", "--b", "4", "4", "BU:1", "--model", "real", "--se", "-5") == golden
    assert run_cli("ring", "table", "BU:1", "--bo", "2") == (2, "")
    assert "argument --box: expected 2 arguments" in capsys.readouterr().err
    code, out = run_cli("motive", "eval", "N^1 * N^-1", "--seed=-5")
    assert (code, out) == (0, "T\n")


def test_negative_box_exits_2(capsys):
    code, out = run_cli("ring", "table", "BU:1", "--model", "real", "--box", "-1", "3")
    assert code == 2 and out == ""
    assert "--box" in capsys.readouterr().err
    code, _ = run_cli("ring", "table", "BU:1", "--model", "real", "--box", "2", "-1")
    assert code == 2


def test_usage_error_exits_2():
    assert cli.run(["ring"]) == 2
    assert cli.run(["frobnicate"]) == 2


def test_runs_in_a_row_equal_fresh_runs(tmp_path, capsys):
    # one parser serves every run in a process: no flag, config or usage
    # error of one run reaches the next
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"box": [3, 3], "format": "json"}), encoding="utf-8")
    runs = [
        ("motive", "eval", "N^1 * N^-1", "--format", "json"),
        ("motive", "eval", "N^1 * N^-1"),
        ("ring", "table", "H", "--config", str(cfg)),
        ("ring", "table", "H"),
        ("ring",),
        ("field", "show", "--model", "finite_field"),
        ("ring", "table", "H", "--box", "x", "2"),
        ("ring", "table", "H", "--box", "2", "2"),
    ]

    def outcome(argv):
        code, out = run_cli(*argv)
        return code, out, capsys.readouterr().err

    in_a_row = [outcome(argv) for argv in runs]
    fresh = []
    for argv in runs:
        cli._build_parser.cache_clear()
        fresh.append(outcome(argv))
    assert in_a_row == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 0, 0, 2, 0, 2, 0]
    assert json.loads(fresh[2][1])["box"] == [3, 3]
    assert fresh[3][1].startswith("block: H\nmodel: real\nbox: 8 8\n")


def _sweep_commands(model_path):
    blocks = ["BOh:1", "BOh:2", "BOp:1", "BO:4", "Xtilde", "Npow:2"]
    argv = [
        ("ring", action, block, "--box", *box)
        for block in blocks
        for action in ("build", "table")
        for box in (("3", "3"), ("6", "5"))
    ]
    argv += [("sq1", "check", block, "--box", "4", "4") for block in ("BOh:1", "BOp:1")]
    argv += [("hom", "verify", f"comp:{n}", "--box", "5", "5") for n in (1, 2)]
    argv += [("ring", "table", "BOh:1", "--box", "3", "3", "--model", model_path)]
    argv += [("sq1", "check", "BOh:1", "--box", "3", "3", "--model", model_path)]
    return argv


def test_shuffled_runs_equal_runs_on_fresh_caches(ab4_path, capsys):
    # one process answers the block requests of many commands from one build
    # cache, in any order; each output equals the command's run with the
    # process-wide cache (builds and Ann(alpha)) emptied first
    from subtle import rings

    def outcome(argv):
        code, out = run_cli(*argv)
        return code, out, capsys.readouterr().err

    runs = _sweep_commands(ab4_path)
    random.Random(25).shuffle(runs)
    in_a_row = {argv: outcome(argv) for argv in runs}
    for argv in runs:
        rings.clear()
        assert outcome(argv) == in_a_row[argv], argv
    assert all(code == 0 for code, _, _ in in_a_row.values())
    for block in ("BOh:1", "BOp:1"):
        out = in_a_row[("sq1", "check", block, "--box", "4", "4")][1]
        assert out.startswith(f"Sq1 check {block} on box (4,4)\n")


def test_model_dir_env(tmp_path, monkeypatch):
    (tmp_path / "mymodel.json").write_text(
        '{"generators": ["a"], "relations": [], "alpha": "a"}', encoding="utf-8"
    )
    monkeypatch.setenv("SUBTLE_MODEL_DIR", str(tmp_path))
    code, out = run_cli("field", "show", "--model", "mymodel")
    assert code == 0
    assert "generators [a]" in out


def test_config_file_presets(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": "finite_field", "box": [3, 3], "format": "json"}),
        encoding="utf-8",
    )
    code, out = run_cli("ring", "table", "H", "--config", str(cfg))
    assert code == 0
    payload = json.loads(out)
    assert payload["box"] == [3, 3]
    # explicit flags win over the config file
    code, out = run_cli("ring", "table", "H", "--config", str(cfg), "--box", "2", "2")
    assert json.loads(out)["box"] == [2, 2]


@pytest.mark.parametrize(
    "text",
    [
        "[3, 3]",
        '{"box": ["a", 3]}',
        '{"box": [3]}',
        '{"box": 3}',
        '{"box": [1.5, 2]}',
        '{"box": [true, 2]}',
        '{"box": [-1, 2]}',
        '{"model": 3}',
        '{"format": "xml"}',
        '{"seed": "x"}',
        '{"out": 3}',
        '{"boxx": [2, 2]}',
    ],
)
def test_bad_config_file_exits_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text, encoding="utf-8")
    code, out = run_cli("ring", "table", "H", "--config", str(cfg))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert "config" in err
    # the message names the offending key
    assert all(key in err for key in json.loads(text) if isinstance(key, str))


@pytest.mark.parametrize(
    "text",
    [
        '["a"]',
        '{"builtin": "nope"}',
        '{"builtin": ["real"]}',
        '{"generators": "ab", "relations": [], "alpha": "a"}',
        '{"generators": ["a"], "relations": [3], "alpha": "a"}',
        '{"generators": ["a"], "relations": "a^2", "alpha": "a"}',
        '{"generators": ["a"], "relations": [], "alpha": 3}',
        '{"generators": ["a"], "relations": [], "alpha": "a", "minus_one": ["a"]}',
        '{"name": [1], "generators": ["a"], "relations": [], "alpha": "a"}',
        '{"generators": ["a"], "relation": ["a^2"], "alpha": "a"}',
    ],
)
@pytest.mark.parametrize("via", ["path", "model_dir"])
def test_bad_model_file_exits_2(tmp_path, monkeypatch, capsys, text, via):
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    name = str(path)
    if via == "model_dir":
        monkeypatch.setenv("SUBTLE_MODEL_DIR", str(tmp_path))
        name = "m"
    code, out = run_cli("field", "show", "--model", name)
    assert code == 2 and out == ""
    assert "model" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, text, expected",
    [
        ("relations", "a^2_0", "model relation 'a^2_0': trailing input at token '_0'"),
        ("relations", "a^$", "model relation 'a^$': unexpected character '$' at position 2"),
        ("alpha", "a^$", "model alpha 'a^$': unexpected character '$'"),
        ("minus_one", "a+", "model minus_one 'a+': unexpected end of expression"),
        ("relations", "b^2", "model relation 'b^2': no generator named 'b'"),
        ("alpha", "z", "model alpha 'z': no generator named 'z'"),
        ("minus_one", "q", "model minus_one 'q': no generator named 'q'"),
    ],
)
def test_model_parse_error_names_field_and_text(tmp_path, capsys, field, text, expected):
    descriptor = {"generators": ["a"], "relations": [], "alpha": "a"}
    descriptor[field] = [text] if field == "relations" else text
    path = tmp_path / "m.json"
    path.write_text(json.dumps(descriptor), encoding="utf-8")
    code, out = run_cli("field", "show", "--model", str(path))
    assert code == 2 and out == ""
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '["BO:1"]',
        '{"target": "BU:1"}',
        '{"source": 3, "target": "BU:1"}',
        '{"source": "BOh:1"}',
        '{"source": "BOh:1", "target": "BU:1", "images": ["u1"]}',
        '{"source": "BOh:1", "target": "BU:1", "images": {"u1": 0}}',
        '{"source": "BOh:1", "target": "BU:1", "images": {"u1": "0", "u2": "c1", "v3": "d1", "zz": "0"}}',
        '{"source": "BOh:1", "target": "BU:1", "image": {"u1": "0"}}',
    ],
)
def test_bad_map_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "map.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli("hom", "verify", str(path), "--model", "real", "--box", "3", "3")
    assert code == 2 and out == ""
    assert "map descriptor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '["v3"]',
        '{"values": {"v3": 5}}',
        '{"values": ["x"]}',
        '{"values": "v3"}',
        '{"values": {"zz": "0"}}',
        '{"value": {"v3": "0"}}',
    ],
)
def test_bad_derivation_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "der.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(
        "sq1", "check", "BOp:1", "--model", "real", "--box", "3", "3",
        "--values", str(path),
    )
    assert code == 2 and out == ""
    assert "derivation descriptor" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, descriptor, expected",
    [
        (("hom", "verify"), {"source": "BOh:1", "target": "BU:1", "images": {"u1": "c1^$"}},
         "map descriptor images: image of u1 'c1^$': unexpected character '$' at position 3"),
        (("hom", "verify"), {"source": "BOh:1", "target": "BU:1", "images": {"u1": "zz"}},
         "map descriptor images: image of u1 'zz': no generator named 'zz'"),
        (("sq1", "check", "BOp:1", "--values"), {"values": {"v3": "q^$"}},
         "derivation descriptor values: value of v3 'q^$': unexpected character '$'"),
        (("sq1", "check", "BOp:1", "--values"), {"values": {"v3": "qq"}},
         "derivation descriptor values: value of v3 'qq': no generator named 'qq'"),
        (("hom", "verify"), {"source": "BU:1", "target": "BU:1", "images": {"c1": "c1^40"}},
         "map descriptor images: image of c1 'c1^40': monomial of total degree 120 exceeds bound 6"),
        (("sq1", "check", "BOp:1", "--values"), {"values": {"v3": "u1^40"}},
         "derivation descriptor values: value of v3 'u1^40': monomial of total degree 40 exceeds bound 8"),
        (("sq1", "check", "Npow:2", "--values"), {"values": {"rho": "rho*mu1"}},
         "error: value of rho 'rho*mu1': a module element, but rho is a ring generator"),
    ],
)
def test_bad_image_or_value_names_generator_and_text(tmp_path, capsys, argv, descriptor, expected):
    path = tmp_path / "descriptor.json"
    path.write_text(json.dumps(descriptor), encoding="utf-8")
    code, out = run_cli(*argv, str(path), "--model", "real", "--box", "3", "3")
    assert code == 2 and out == ""
    assert expected in capsys.readouterr().err


@pytest.mark.parametrize("field", ["relations", "alpha", "minus_one"])
def test_model_field_past_the_bound_names_field_and_text(tmp_path, capsys, field):
    text = "a^40" if field == "relations" else "a + a^40"
    descriptor = {"generators": ["a"], "relations": [], "alpha": "a"}
    descriptor[field] = [text] if field == "relations" else text
    path = tmp_path / "m.json"
    path.write_text(json.dumps(descriptor), encoding="utf-8")
    name = "relation" if field == "relations" else field
    expected = f"model {name} {text!r}: monomial of total degree 80 exceeds bound 32"
    for argv in (("field", "show"), ("ring", "table", "H")):
        code, out = run_cli(*argv, "--model", str(path))
        assert code == 2 and out == "", argv
        assert expected in capsys.readouterr().err, argv


@pytest.mark.parametrize(
    "argv, text, key",
    [
        (["ring", "table", "H", "--config"], '{"boxx": [2, 2]}', "boxx"),
        (["field", "show", "--model"], '{"generators": ["a"], "relation": []}', "relation"),
        (["sq1", "check", "BOp:1", "--box", "3", "3", "--values"], '{"value": {}}', "value"),
        (["hom", "verify"], '{"source": "BOh:1", "target": "BU:1", "image": {}}', "image"),
    ],
)
def test_unknown_descriptor_key_is_named(tmp_path, capsys, argv, text, key):
    # every input file goes through one check: an unknown key exits 2 and the
    # message names the key and the file
    path = tmp_path / "in.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(*argv, str(path))
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert f"unknown key {key!r}" in err and str(path) in err


def test_help_keeps_example_lines():
    code, out = run_cli("--help")
    assert code == 0
    assert "\n    subtle ring table BU:1         --model real --box 4 4\n" in out


def _without_format(argv):
    i = argv.index("--format") if "--format" in argv else len(argv)
    return [*argv[:i], *argv[i + 2:]]


# every golden command (table_bu1_real once for its two formats), verify all
# at the smallest box, a twist isomorphism and the shortest motive
OUT_COMMANDS = {
    **{name.split(".")[0]: _without_format(argv) for name, argv in GOLDEN_COMMANDS},
    "verify_all_box_0": ["verify", "all", "--box", "0", "0"],
    "hom_verify_pq1": ["hom", "verify", "pq:1", "--box", "3", "3"],
    "motive_eval_T": ["motive", "eval", "T"],
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_flag_writes_file(tmp_path, command, fmt):
    # --out writes exactly what the command prints without it, and prints nothing
    argv = [*OUT_COMMANDS[command], "--format", fmt]
    code, printed = run_cli(*argv)
    target = tmp_path / "report"
    assert run_cli(*argv, "--out", str(target)) == (code, "")
    written = target.read_text(encoding="utf-8")
    assert written == printed
    if fmt == "json":
        json.loads(written)


def test_out_flag_on_error_writes_no_file(tmp_path, capsys):
    target = tmp_path / "f"
    assert run_cli("ring", "table", "XX:1", "--out", str(target)) == (2, "")
    assert not target.exists()
    assert capsys.readouterr().err == "error: unknown block id 'XX:1'\n"


def test_field_show_json(qc):
    code, out = run_cli("field", "show", "--model", "quadratically_closed", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] is None
    assert payload["annihilator_of_alpha"] is None


@pytest.mark.parametrize("power, ann", [(8, ["b^8"]), (9, [])])
def test_field_show_annihilator_up_to_degree_8(tmp_path, power, ann):
    # a*b^k = 0 with alpha = a: Ann(a) is generated by b^k, in degree k
    path = tmp_path / "m.json"
    path.write_text(
        json.dumps({"generators": ["a", "b"], "relations": [f"a*b^{power}"], "alpha": "a"}),
        encoding="utf-8",
    )
    code, out = run_cli("field", "show", "--model", str(path))
    assert code == 0
    shown = f"({', '.join(ann)})" if ann else "(0)"
    assert f"Ann(alpha) generators (degree <= 8): {shown}" in out.splitlines()
    code, out = run_cli("field", "show", "--model", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["annihilator_of_alpha"] == ann


def test_field_show_prints_two_annihilator_generators_in_rising_degree():
    # a*b = a*c^2 = 0 with alpha = a: Ann(a) = (b, c^2), generators of
    # degrees 1 and 2, printed in rising degree
    model = str(Path(__file__).parent / "models" / "ann_two.json")
    code, out = run_cli("field", "show", "--model", model)
    assert code == 0
    assert "Ann(alpha) generators (degree <= 8): (b, c^2)" in out.splitlines()
    code, out = run_cli("field", "show", "--model", model, "--format", "json")
    assert code == 0
    assert json.loads(out)["annihilator_of_alpha"] == ["b", "c^2"]


def test_ring_build_table_only_block_exits_2():
    code, _ = run_cli("ring", "build", "nbar", "--model", "real")
    assert code == 2


def test_sq1_values_descriptor(tmp_path):
    path = tmp_path / "der.json"
    path.write_text('{"values": {"v3": "0"}}', encoding="utf-8")
    code, out = run_cli(
        "sq1", "check", "BOp:1", "--model", "real", "--box", "3", "3",
        "--values", str(path),
    )
    assert code == 1  # v3 -> 0 breaks descent
    assert "tau*v3 + rho*u2" in out


THREE = str(Path(__file__).resolve().parents[1] / "bench" / "three.json")


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["hom", "verify", "pq:2", "--model", "real", "--box", "10", "10", "--format", "json"],
         "49eea14afc01b11869d9e01d0bc88a75e038d99351cacced7bbe321a54c90a7f"),
        (["hom", "verify", "comp:3", "--model", THREE, "--box", "10", "10"],
         "183fa5989ff3c34b7eeeee1df53602d7f7de461a57f826de1c146b4afcdeb480"),
        (["hom", "kernel", "comp:3", "--model", THREE, "--box", "10", "10"],
         "1812b8790f7132e71308702fde93a0d6987d9705b16a0983b6609c3c80a68670"),
        (["field", "show", "--model", THREE, "--format", "json"],
         "c311e08acbeb94e9f877e5e89e9bc6721963c9efc4fa99a46f3b7a43f0f45cfd"),
        (["ring", "table", "nbar", "--model", THREE, "--box", "10", "10"],
         "2590577f9c3926dedd9b1a5c664f0e98ab7d954eaf52d16a0321152dbec5a68b"),
        (["motive", "eval", "Ma(2)[3]", "--model", "finite_field", "--box", "7", "9", "--format", "json"],
         "0ef4de16244ab4815a66cc15bf28a258a167d6d21dc518587082b111a03392be"),
        (["motive", "eval", "Ma", "--model", "real", "--box", "12", "3"],
         "48a820bf5adb4ac88f0483c99bfa358d8c550bd0d27f41efc317f8683f8e797d"),
        (["motive", "eval", "Ma", "--model", "finite_field", "--box", "12", "3"],
         "735a261af8b45695dd372bdcdcbec4175a54d56642982cf25079a2dc30c8b505"),
        (["motive", "eval", "Ma", "--model", THREE, "--box", "12", "3"],
         "3235e89fa8b39c98abe88f7e2cd74e20310d36fd71652b854e7655e9f1948133"),
    ],
    ids=lambda v: " ".join("three" if a == THREE else a for a in v) if isinstance(v, list) else v[:8],
)
def test_pinned_output_digests(argv, digest):
    # outputs of the cell-sweep consumers (map ranks, Ann(alpha), the mu_1
    # ranks behind Ma), recorded before they moved onto bigraded.cell_maps
    code, out = run_cli(*argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

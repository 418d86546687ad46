import io
import json
import shlex
from contextlib import redirect_stdout
from importlib import resources
from pathlib import Path

import pytest

from subtle import cli
from subtle.verify import GOLDEN_COMMANDS


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


def test_motive_eval_bad_expression_exits_2():
    code, _ = run_cli("motive", "eval", "N^1 *")
    assert code == 2
    code, _ = run_cli("motive", "eval", "Ma * Ma")
    assert code == 2


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


def test_negative_box_exits_2(capsys):
    code, out = run_cli("ring", "table", "BU:1", "--model", "real", "--box", "-1", "3")
    assert code == 2 and out == ""
    assert "--box" in capsys.readouterr().err
    code, _ = run_cli("ring", "table", "BU:1", "--model", "real", "--box", "2", "-1")
    assert code == 2


def test_usage_error_exits_2():
    assert cli.run(["ring"]) == 2
    assert cli.run(["frobnicate"]) == 2


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
    "text",
    [
        '["BO:1"]',
        '{"target": "BU:1"}',
        '{"source": 3, "target": "BU:1"}',
        '{"source": "BOh:1"}',
        '{"source": "BOh:1", "target": "BU:1", "images": ["u1"]}',
        '{"source": "BOh:1", "target": "BU:1", "images": {"u1": 0}}',
        '{"source": "BOh:1", "target": "BU:1", "images": {"u1": "0", "u2": "c1", "v3": "d1", "zz": "0"}}',
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
    ['["v3"]', '{"values": {"v3": 5}}', '{"values": ["x"]}', '{"values": "v3"}', '{"values": {"zz": "0"}}'],
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


def test_help_keeps_example_lines():
    code, out = run_cli("--help")
    assert code == 0
    assert "\n    subtle ring table BU:1         --model real --box 4 4\n" in out


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.txt"
    code, out = run_cli(
        "motive", "eval", "T", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").strip() == "T"


def test_field_show_json(qc):
    code, out = run_cli("field", "show", "--model", "quadratically_closed", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["alpha"] is None
    assert payload["annihilator_of_alpha"] is None


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

import ast
import copy
import importlib
import json
import math
import pkgutil
import statistics
import sys
from pathlib import Path

import subtle
from subtle import bigraded, rings, verify


def test_runtime_imports_are_standard_library():
    # the package has no runtime dependencies: every absolute import names a
    # standard-library module
    found = set()
    for path in sorted(Path(subtle.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.add((path.name, name.split(".")[0]))
    outside = sorted(f for f in found if f[1] not in sys.stdlib_module_names)
    assert not outside
    assert len(found) > 10


def test_bench_records_have_the_shared_shape():
    # each BENCH_<change>.json at the repository root records, per workload and
    # end-to-end metric, both sides' runs and their median (to the 4 decimals
    # the files keep), and whether every run was correct
    paths = sorted(Path(__file__).resolve().parents[1].glob("BENCH_*.json"))
    assert paths
    for path in paths:
        record = json.loads(path.read_text("utf-8"))
        for key in ("change", "parent_commit", "host", "method", "end_to_end"):
            assert key in record, (path.name, key)
        assert record["end_to_end"], path.name
        for workload, metrics in record["end_to_end"].items():
            where = (path.name, workload)
            assert metrics["correct_all_runs"] is True, where
            for metric in ("wall_s", "setup_s", "peak_rss_mb"):
                for side in ("parent", "change"):
                    summary = metrics[metric][side]
                    assert summary["runs"], where + (metric, side)
                    assert math.isclose(
                        summary["median"], statistics.median(summary["runs"]), abs_tol=5e-5 + 1e-9
                    ), where + (metric, side)


def test_user_input_enters_through_parse():
    # one input boundary: only parse.py reads JSON, and the package has one
    # token scanner (one class defining peek and take) that every grammar
    # subclasses, so a new loader or grammar cannot bypass the checks there
    package = Path(subtle.__file__).parent
    readers = sorted(p.name for p in package.glob("*.py") if "json.load" in p.read_text("utf-8"))
    assert readers == ["parse.py"]
    scanners = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text("utf-8"), str(path))):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
                if methods & {"peek", "take"}:
                    scanners.append((path.name, node.name))
    assert scanners == [("parse.py", "Parser")]


def _module_containers() -> dict:
    """Every module-level dict, list and set of every ``subtle`` module."""
    for info in pkgutil.iter_modules(subtle.__path__):
        if info.name != "__main__":  # importing it runs the CLI
            importlib.import_module(f"subtle.{info.name}")
    return {
        (name, key): value
        for name, module in sorted(sys.modules.items())
        if name == "subtle" or name.startswith("subtle.")
        for key, value in vars(module).items()
        if isinstance(value, (dict, list, set)) and key != "__builtins__"
    }


def test_process_state_has_one_owner():
    # all state that outlives a call lives in the one cache rings.clear()
    # empties: a verify all run changes no other module-level container of
    # the package, and leaves no shared-tables scope open behind it
    rings.clear()
    before = copy.deepcopy(_module_containers())
    assert all(result.passed for result in verify.run_all(box=(2, 2)))
    after = _module_containers()
    changed = [k for k in before.keys() | after.keys() if before.get(k) != after.get(k)]
    assert len(changed) == 1 and changed[0][0] == "subtle.rings", changed
    rings.clear()
    assert _module_containers()[changed[0]] == before[changed[0]]
    assert bigraded._TABLES.get() is None

import ast
import json
import math
import statistics
import sys
from pathlib import Path

import subtle


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

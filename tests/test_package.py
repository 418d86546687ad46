import ast
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

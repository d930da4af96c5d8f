"""Every module reads each name it imports."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def unused_imports(source: str) -> list[str]:
    """The names an import of ``source`` binds and the module never reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_scan_finds_unused_names():
    source = "import os.path\nimport re as regex\nfrom a import b, c as d\nprint(b, re)\n"
    assert unused_imports(source) == ["d", "os", "regex"]


def test_no_module_imports_a_name_it_never_reads():
    modules = [*(ROOT / "src" / "qsynth").glob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "tools").glob("*.py")]
    unused = {str(p.relative_to(ROOT)): unused_imports(p.read_text()) for p in sorted(modules)}
    assert {path: names for path, names in unused.items() if names} == {}

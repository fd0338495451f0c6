"""The public surface of the package: what `import hdgstokes` exports, and
which of its modules write files."""

import ast
from pathlib import Path

import hdgstokes

WRITERS = {"write_text", "write_bytes", "tofile", "save", "savez", "savetxt"}


def test_all_names_resolve_once():
    names = hdgstokes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hdgstokes, name, None) is not None, name


def test_star_import():
    namespace = {}
    exec("from hdgstokes import *", namespace)
    assert set(hdgstokes.__all__) <= set(namespace)


def _writes(call):
    """Whether call writes a file: an open() or path.open() with a w, a, x
    or + mode (or one that is not a literal), or a pathlib/numpy writer."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name != "open":
        return name in WRITERS
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[1 if isinstance(call.func, ast.Name) else 0:][:1]
    return any(not isinstance(m, ast.Constant) or set("wax+") & set(m.value) for m in modes)


def test_only_the_cli_writes_files():
    # the solver layers return data; cli turns it into the run's files
    writers = set()
    for path in Path(hdgstokes.__file__).parent.glob("*.py"):
        calls = [n for n in ast.walk(ast.parse(path.read_text())) if isinstance(n, ast.Call)]
        if any(_writes(c) for c in calls):
            writers.add(path.name)
    assert writers == {"cli.py"}

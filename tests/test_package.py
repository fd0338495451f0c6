"""The public surface of the package: what `import hdgstokes` exports, which
of its modules write files, and that the README's library snippet runs."""

import ast
import re
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


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_reaches(source, modules):
    """The names of another module's privates that source reaches: from .x
    import _name, or m._name where m is a module of the package it imports."""
    found, bound = [], set()
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module == "hdgstokes"):
            for alias in node.names:
                if _private(alias.name):
                    found.append(alias.name)
                elif node.module in (None, "hdgstokes") and alias.name in modules:
                    bound.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            bound.update(a.asname for a in node.names if a.name.startswith("hdgstokes.") and a.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_another_modules_privates():
    # each module uses the others through their public names only
    paths = sorted(Path(hdgstokes.__file__).parent.glob("*.py"))
    modules = {p.stem for p in paths}
    probe = ("from .verify import _batch, __all__\nfrom . import krylov as k\n"
             "import hdgstokes.mesh as m\nk._order, k.__doc__, m._x, k.gmres")
    assert _private_reaches(probe, modules) == ["_batch", "k._order", "m._x"]
    for path in paths:
        assert _private_reaches(path.read_text(), modules) == [], path.name


def test_readme_library_snippet_runs(capsys):
    # the README's one python block, run as written: a bubble solve with its
    # error norms, then MRAS-NVTF-preconditioned GMRES against the reference
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    [snippet] = re.findall(r"```python\n(.*?)```", readme, re.DOTALL)
    namespace = {}
    exec(snippet, namespace)
    assert capsys.readouterr().out.startswith("ErrorReport(")
    assert namespace["rep"].converged

"""The public surface of the package: what `import hdgstokes` exports."""

import hdgstokes


def test_all_names_resolve_once():
    names = hdgstokes.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(hdgstokes, name, None) is not None, name


def test_star_import():
    namespace = {}
    exec("from hdgstokes import *", namespace)
    assert set(hdgstokes.__all__) <= set(namespace)

"""The package namespace: every exported name loads its home module on
first use, and a bare ``import hugelschaffer`` loads no submodule."""

import subprocess
import sys

import pytest

import hugelschaffer


def _fresh(code):
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_every_export_is_its_home_modules_object():
    assert len(set(hugelschaffer.__all__)) == len(hugelschaffer.__all__) == 42
    for name in hugelschaffer.__all__:
        value = getattr(hugelschaffer, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("hugelschaffer."), name
        assert getattr(home, name) is value, name
        # kept after the first read, so later reads are a plain lookup
        assert vars(hugelschaffer)[name] is value, name


def test_bare_import_loads_no_submodule():
    code = (
        "import sys, hugelschaffer; "
        "print([m for m in sys.modules if m.startswith('hugelschaffer.')])"
    )
    assert _fresh(code) == "[]\n"


def test_dir_lists_every_export_before_any_is_read():
    code = "import hugelschaffer as h; print(set(h.__all__) <= set(dir(h)))"
    assert _fresh(code) == "True\n"


def test_star_import_binds_every_export():
    code = (
        "from hugelschaffer import *; import hugelschaffer as h; "
        "print(all(globals()[n] is getattr(h, n) for n in h.__all__))"
    )
    assert _fresh(code) == "True\n"


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hugelschaffer.no_such_name
    assert not hasattr(hugelschaffer, "K_SERIES")
    # submodules still import by name
    from hugelschaffer import oracle

    assert oracle.quad is hugelschaffer.quad

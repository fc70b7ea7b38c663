"""The scripts in ``scripts/`` report a failed certificate by exit status.

They check with an explicit test, not ``assert``, so the check also runs
under ``python -O``, and catch a failed replay instead of printing a
traceback. Each test loads a script as a module and patches its check or
``replay`` to fail. A bad argument is exit 2, not the exit 1 of a failed
certificate. The sweep's script digest over all posets on up to 6 nodes is
pinned, so any change in the bytes ``decompose`` emits fails here. The
code-line counter is checked on a module whose count is known.
"""

from __future__ import annotations

import importlib.util
import sys

import pytest

from posetglue import StepMismatch

from conftest import FIXTURES

SCRIPTS = FIXTURES.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def sweep(monkeypatch):
    monkeypatch.setattr(sys, "argv", ["sweep_small_posets.py", "3"])
    return load_script("sweep_small_posets")


def test_sweep_exits_zero_when_every_certificate_verifies(sweep, capsys):
    assert sweep.main() == 0
    assert "all certificates verified" in capsys.readouterr().out


# SHA-256 over the emitted scripts of all 405 posets on up to 6 nodes
N6_SCRIPT_SHA256 = "4e98101578426fbbdc84bc89f3fbbf9da862bba87eb54558237c4393256b4e6d"


def test_sweep_prints_the_pinned_script_digest(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["sweep_small_posets.py", "6"])
    assert load_script("sweep_small_posets").main() == 0
    assert f"script sha256: {N6_SCRIPT_SHA256}" in capsys.readouterr().out.splitlines()


def test_sweep_exits_one_and_names_the_poset_when_a_certificate_fails(
    sweep, monkeypatch, capsys
):
    monkeypatch.setattr(sweep, "is_saturated_embedding", lambda f: False)
    assert sweep.main() == 1
    out, err = capsys.readouterr()
    assert "all certificates verified" not in out
    assert "8 certificates FAILED" in out
    assert err.count("certificate failed: Poset(") == 8


def test_demo_exits_one_and_names_the_poset_when_the_certificate_fails(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["demo_decompose.py"])
    demo = load_script("demo_decompose")
    monkeypatch.setattr(demo, "is_saturated_embedding", lambda f: False)
    assert demo.main() == 1
    out, err = capsys.readouterr()
    assert "script written" not in out
    assert err.startswith("certificate failed: Poset(")


def refuse(script):
    raise StepMismatch("final poset differs from the recorded one")


def test_sweep_counts_a_replay_failure_and_goes_on(sweep, monkeypatch, capsys):
    monkeypatch.setattr(sweep, "replay", refuse)
    assert sweep.main() == 1
    out, err = capsys.readouterr()
    assert "8 certificates FAILED" in out
    assert err.count("certificate failed: Poset(") == 8
    assert "Traceback" not in err


def test_demo_exits_one_and_names_the_poset_when_replay_fails(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["demo_decompose.py"])
    demo = load_script("demo_decompose")
    monkeypatch.setattr(demo, "replay", refuse)
    assert demo.main() == 1
    out, err = capsys.readouterr()
    assert "script written" not in out
    assert err.startswith("certificate failed: Poset(")
    assert err.count("\n") == 1


@pytest.mark.parametrize("arg", ["x", "-3"])
def test_sweep_exits_two_with_one_usage_line_on_a_bad_count(sweep, monkeypatch, capsys, arg):
    monkeypatch.setattr(sys, "argv", ["sweep_small_posets.py", arg])
    assert sweep.main() == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: ") and err.count("\n") == 1


KNOWN_MODULE = '''"""A module docstring,
on two lines."""

import os  # a trailing comment keeps the line


class A:
    """A class docstring."""

    def f(self):
        """A function docstring."""
        # a comment line
        return """a string
that is not a docstring"""


x = [
    1,
]
'''


def test_code_lines_counts_code_not_docstrings_comments_or_blanks(monkeypatch, capsys, tmp_path):
    # the import, class and def lines, the two lines of the returned string
    # and the three lines of x: 8 code lines
    (tmp_path / "known.py").write_text(KNOWN_MODULE)
    (tmp_path / "empty.py").write_text("# only a comment\n")
    monkeypatch.setattr(sys, "argv", ["code_lines.py", str(tmp_path)])
    assert load_script("code_lines").main() == 0
    out = capsys.readouterr().out
    assert [line.split() for line in out.splitlines()] == [
        ["empty", "0"],
        ["known", "8"],
        ["total", "8"],
    ]


def test_code_lines_exits_two_on_a_missing_directory(monkeypatch, capsys, tmp_path):
    monkeypatch.setattr(sys, "argv", ["code_lines.py", str(tmp_path / "missing")])
    assert load_script("code_lines").main() == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1

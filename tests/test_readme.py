"""The README's examples are checked: its library quickstart is a doctest,
and each of its ``$ mukaistab ...`` shell lines prints the line that
follows it."""

import doctest
import pathlib
import shlex

import pytest

from mukaistab.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
LINES = README.read_text(encoding="utf-8").splitlines()
SHELL = [(shlex.split(line)[2:], LINES[i + 1])
         for i, line in enumerate(LINES) if line.startswith("$ mukaistab ")]


def test_readme_quickstart():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def test_readme_has_shell_examples():
    assert len(SHELL) >= 5


@pytest.mark.parametrize("argv, want", SHELL, ids=[a[0] for a, _ in SHELL])
def test_readme_shell_example(capsys, argv, want):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert (out, err) == (want + "\n", "")

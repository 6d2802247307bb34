"""Checks on the package source itself."""

import pathlib

SOURCE = pathlib.Path(__file__).resolve().parent.parent / "src" / "su11"


def test_convergence_errors_raised_only_by_the_gate():
    raisers = sorted(
        path.name
        for path in SOURCE.glob("*.py")
        if "raise ConvergenceError" in path.read_text(encoding="utf-8")
    )
    assert raisers == ["algebra.py"]


def test_no_line_over_100_characters():
    long_lines = [
        f"{path.name}:{number}"
        for path in sorted(SOURCE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > 100
    ]
    assert long_lines == []

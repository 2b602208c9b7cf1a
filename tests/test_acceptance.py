"""End-to-end acceptance gate.

Each test prints one ACCEPTANCE line and asserts the criterion passed, so
`pytest -v` doubles as the sign-off report.  The criteria themselves live
in finehull.acceptance and are shared with the reproduce-all subcommand.
"""

import json
import re

import pytest

from finehull import cli
from finehull.acceptance import _pipeline, run_all, write_summary

RESULTS = {r.index: r for r in run_all()}


def _check(index, capsys):
    r = RESULTS[index]
    with capsys.disabled():
        print(f"\nACCEPTANCE {r.index:2d} {r.name}: "
              f"{'PASS' if r.passed else 'FAIL'}")
    assert r.passed, r.detail


def test_acceptance_01_capacity_oracles(capsys):
    _check(1, capsys)


def test_acceptance_02_union_bound_chain(capsys):
    _check(2, capsys)


def test_acceptance_03_branch_system(capsys):
    _check(3, capsys)


def test_acceptance_04_fine_continuity_vs_jump(capsys):
    _check(4, capsys)


def test_acceptance_05_laurent_length(capsys):
    _check(5, capsys)


def test_acceptance_06_truncation_estimates(capsys):
    _check(6, capsys)


def test_acceptance_07_fiber_structure(capsys):
    _check(7, capsys)


def test_acceptance_08_disk_identities(capsys):
    _check(8, capsys)


def test_acceptance_09_sheet_spacing(capsys):
    _check(9, capsys)


def test_acceptance_10_determinism(capsys):
    _check(10, capsys)


def test_summary_artifacts(tmp_path):
    results = run_all(str(tmp_path))
    names = write_summary(results, str(tmp_path))
    assert "summary.csv" in names and "acceptance.json" in names
    for n in names:
        assert (tmp_path / n).exists()
    summary = json.loads((tmp_path / "acceptance.json").read_text())
    assert summary["all_pass"] is True
    lines = (tmp_path / "summary.csv").read_text().splitlines()
    assert len(lines) == 11
    assert all(line.endswith(",PASS") for line in lines[1:])


# a non-finite number as CSV ("nan", "inf") or JSON ("NaN", "Infinity")
# writes it
NONFINITE = re.compile(r"(?<![\w.])-?(nan|inf|infinity)(?!\w)", re.I)


def test_artifact_trees_hold_no_nonfinite_token(tmp_path, capsys):
    assert cli.main(["reproduce-all", "--out", str(tmp_path / "all")]) == 0
    _pipeline(str(tmp_path / "pipeline"))
    capsys.readouterr()
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    assert len(files) == 15 + 27
    for p in files:
        assert not NONFINITE.search(p.read_text()), p

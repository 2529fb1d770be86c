"""Every cell of the claims ledger's tables (tests/claims.py), pinned at the
precision the printed table shows."""

import pytest

from claims import BLEND_SAMPLES, blend_ea, markdown
from pyrokin.kinetics import METHODS

# kJ/mol: Friedman, KAS, FWO
BLEND_EA = {
    "three-component-ds": (134.3, 140.5, 142.4),
    "three-component-scg": (146.4, 141.4, 143.4),
    "blend-0.75": (146.5, 140.0, 142.0),
    "blend-0.5": (147.0, 142.9, 144.7),
    "blend-0.25": (142.7, 143.6, 145.5),
}


@pytest.fixture(scope="module")
def blend_rows():
    return blend_ea()


def test_blend_ea_cells(blend_rows):
    assert [row[0] for row in blend_rows] == list(BLEND_SAMPLES)
    for name, *cells in blend_rows:
        assert cells == pytest.approx(BLEND_EA[name], abs=0.05), name


@pytest.mark.parametrize("method, highest, lowest", [
    # the paper's ordering, from blends with no interaction at all
    ("kas", "blend-0.25", "blend-0.75"),
    ("fwo", "blend-0.25", "blend-0.75"),
    ("friedman", "blend-0.5", "three-component-ds"),
])
def test_blend_ea_ordering(blend_rows, method, highest, lowest):
    column = 1 + METHODS.index(method)
    ranked = sorted(blend_rows, key=lambda row: row[column])
    assert (ranked[-1][0], ranked[0][0]) == (highest, lowest)


def test_blend_ea_markdown():
    lines = markdown("blend_ea").splitlines()
    assert lines[:2] == ["| sample | Friedman | KAS | FWO |", "| --- | --- | --- | --- |"]
    assert lines[2] == "| three-component-ds | 134.3 | 140.5 | 142.4 |"
    assert len(lines) == 2 + len(BLEND_SAMPLES)

"""Smoke-run the fast experiments end-to-end and assert their verdicts.

The slow sweeps (E4 full, E5, E13) run in benchmarks; here we pin the
quick ones so a regression in any layer trips CI.
"""

import pytest

from repro.analysis import (
    run_e1,
    run_e2,
    run_e6,
    run_e7,
    run_e9,
    run_e10,
    run_e12,
)


@pytest.mark.parametrize("experiment", [
    run_e2,   # row-buffer semantics (instant)
    run_e9,   # refresh paths (instant)
    run_e12,  # enclaves (fast)
])
def test_fast_experiment_reproduces(experiment):
    outcome = experiment()
    assert outcome.verdict, outcome.render()


def test_e1_table1_matrix():
    outcome = run_e1()
    assert outcome.verdict, outcome.render()


def test_e6_trr_cliff():
    outcome = run_e6(sides_sweep=(2, 8))
    assert outcome.verdict, outcome.render()


def test_e7_dma_blindspot():
    outcome = run_e7()
    assert outcome.verdict, outcome.render()


def test_e10_jitter():
    outcome = run_e10()
    assert outcome.verdict, outcome.render()


def test_render_is_stable_text():
    outcome = run_e2()
    rendered = outcome.render()
    assert "E2" in rendered
    assert "verdict" in rendered


def test_e4_core_matrix_and_tracker_column():
    from repro.analysis import run_e4

    outcome = run_e4()
    assert outcome.verdict, outcome.render()
    table = outcome.tables[0]
    rows = {row[0]: dict(zip(table.columns, row)) for row in table.rows}
    # the next-generation mitigations ride the registry into the matrix
    for name in ("prac", "breakhammer"):
        assert name in rows
        assert rows[name]["double-sided"] == 0
        assert rows[name]["dma"] == 0
    # BlockHammer's tracker peak is surfaced as a table column
    assert rows["blockhammer"]["peak_rows_tracked"] > 0
    assert rows["none"]["peak_rows_tracked"] == "-"


def test_e8_frequency_defenses():
    from repro.analysis import run_e8

    outcome = run_e8()
    assert outcome.verdict, outcome.render()


def test_e14_ideal_world():
    from repro.analysis import run_e14

    outcome = run_e14()
    assert outcome.verdict, outcome.render()


def test_e15_ecc(capsys):
    from repro.analysis import run_e15

    outcome = run_e15(draws=400)
    assert outcome.verdict, outcome.render()


def test_e13_overhead_small():
    from repro.analysis import run_e13

    outcome = run_e13(accesses=4000, workloads=("random",))
    assert outcome.verdict, outcome.render()

"""Golden check: E5's rows against EXPERIMENTS.md, two generations per
test (ddr3-old and lpddr4, then ddr3-new and future).

Every row runs every attack arm of E5 (undefended, vendor TRR, PARA,
targeted refresh, PRAC, BreakHammer at comb spacings 2 and 4) through
``Attacker.run``, so this is the attack path's cheap end-to-end guard:
a change to the hammer loop, the request engine or the disturbance
model that moves a flip count shows up here without regenerating the
whole file.  ``tests/attacks/test_chain_differential.py`` pins the same
path more finely against the per-access loop.
"""

from repro.analysis import run_e5

from tests.integration.test_e13_golden import EXPERIMENTS_MD, table_rows

TITLE = "== E5 / section 3 — density scaling (cross-domain flips per window) =="


def check_rows(generations):
    outcome = run_e5(generations=generations)
    rendered = table_rows(outcome.tables[0].render(), TITLE)
    committed = [
        row
        for row in table_rows(EXPERIMENTS_MD.read_text(encoding="utf-8"), TITLE)
        if row[0] in generations
    ]
    assert [row[0] for row in rendered] == list(generations)
    assert rendered == committed


def test_dense_and_high_mac_rows_match_committed_experiments():
    check_rows(("ddr3-old", "lpddr4"))


def test_new_and_future_rows_match_committed_experiments():
    """``future`` runs at scale 6, the largest E5 cell."""
    check_rows(("ddr3-new", "future"))

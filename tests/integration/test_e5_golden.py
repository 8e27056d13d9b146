"""Golden check: E5's ddr3-old and lpddr4 rows against EXPERIMENTS.md.

Both rows run every attack arm of E5 (undefended, vendor TRR, PARA,
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
GENERATIONS = ("ddr3-old", "lpddr4")


def test_dense_and_high_mac_rows_match_committed_experiments():
    outcome = run_e5(generations=GENERATIONS)
    rendered = table_rows(outcome.tables[0].render(), TITLE)
    committed = [
        row
        for row in table_rows(EXPERIMENTS_MD.read_text(encoding="utf-8"), TITLE)
        if row[0] in GENERATIONS
    ]
    assert [row[0] for row in rendered] == list(GENERATIONS)
    assert rendered == committed

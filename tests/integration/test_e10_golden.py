"""Golden check: E10's and A2's rows against EXPERIMENTS.md.

Both tables run ``EvasiveAttacker.run`` against targeted refresh at
every jitter fraction the reproduction reports (E10: fixed and
randomized resets; A2: 0, 0.1, 0.25 and 0.5), so this is the evader's
cheap end-to-end guard: a change to its schedule, the chain engine,
the counters or the handler path that moves a flip or ACT count shows
up here without regenerating the whole file.
``tests/attacks/test_chain_differential.py`` pins the same path more
finely against the per-access loop.
"""

from repro.analysis import run_e10
from repro.analysis.ablations import run_a2

from tests.integration.test_e13_golden import EXPERIMENTS_MD, table_rows

E10_TITLE = "== E10 / section 4.2 — counter-reset randomization vs evasion =="
A2_TITLE = "== A2 — counter-reset jitter vs the phase-tracking evader =="


def committed(title):
    return table_rows(EXPERIMENTS_MD.read_text(encoding="utf-8"), title)


def test_e10_rows_match_committed_experiments():
    rendered = table_rows(run_e10().tables[0].render(), E10_TITLE)
    assert [row[0] for row in rendered] == ["fixed", "randomized"]
    assert rendered == committed(E10_TITLE)


def test_a2_rows_match_committed_experiments():
    rendered = table_rows(run_a2().tables[0].render(), A2_TITLE)
    assert [row[0] for row in rendered] == ["0", "0.1", "0.25", "0.5"]
    assert rendered == committed(A2_TITLE)

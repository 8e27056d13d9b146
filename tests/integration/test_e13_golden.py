"""Golden check: E13's zipfian column against the committed EXPERIMENTS.md.

Every zipfian row of E13 is rendered at E13's own size (scale 8, 10,000
accesses, 128 pages, config seed 1234) and compared, cell by cell, with
the committed table.  The bank-partition, guard-rows and
aggressor-remap rows run through the host-OS allocator, so a change
there that moves a number shows up here without regenerating the whole
file (which frame is picked is pinned more finely by
``tests/hostos/test_allocator_differential.py``).
"""

from pathlib import Path

from repro.analysis import run_e13

EXPERIMENTS_MD = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
TITLE = "== E13 — benign multi-tenant overhead of every defense =="


def table_rows(text, title):
    """Rows below ``title``'s header and rule, split into cells."""
    lines = text.splitlines()
    start = lines.index(title)
    rows = []
    for line in lines[start + 3:]:
        if not line.strip() or line.startswith("note:"):
            break
        rows.append(line.split())
    return rows


def test_zipfian_column_matches_committed_experiments():
    outcome = run_e13(workloads=("zipfian",))
    rendered = table_rows(outcome.tables[0].render(), TITLE)
    committed = [
        row
        for row in table_rows(EXPERIMENTS_MD.read_text(encoding="utf-8"), TITLE)
        if row[1] == "zipfian"
    ]
    assert {"none", "bank-partition", "guard-rows", "aggressor-remap"} <= {
        row[0] for row in rendered
    }
    assert rendered == committed

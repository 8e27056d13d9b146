#!/usr/bin/env python
"""CI smoke: SIGKILL a campaign partway, resume it, demand identity.

Drill:

1. run a clean campaign, record its aggregate lines;
2. start the same campaign with ``--journal``, SIGKILL it as soon as at
   least ``--min-records`` seeds are journaled;
3. ``python -m repro replicate --resume <journal>``;
4. fail unless the resumed aggregates are byte-identical to the clean
   run's.

If the campaign finishes before the kill lands, the resume degenerates
to a pure journal replay — which must *still* match, so the assertion
stands either way.

Usage (from the repository root)::

    PYTHONPATH=src python scripts/kill_resume_smoke.py
"""

from __future__ import annotations

import argparse
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def aggregate_lines(output: str) -> list:
    return [
        line for line in output.splitlines()
        if line.startswith("  ") and "95% CI" in line
    ]


def run_cli(args, env) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, env=env, timeout=600,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=6)
    parser.add_argument("--scale", type=int, default=8)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument(
        "--min-records", type=int, default=2,
        help="journaled seeds to wait for before killing",
    )
    args = parser.parse_args(argv)

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = (
        f"{src}:{env['PYTHONPATH']}" if env.get("PYTHONPATH") else src
    )
    base = [
        "replicate", "E13", "--seeds", str(args.seeds),
        "--scale", str(args.scale), "--jobs", str(args.jobs),
    ]

    print("[1/3] clean campaign...", flush=True)
    clean = run_cli(base, env)
    if clean.returncode != 0:
        print(clean.stderr, file=sys.stderr)
        return 1
    reference = aggregate_lines(clean.stdout)
    if not reference:
        print("no aggregate lines in clean output", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory() as tmp:
        journal = Path(tmp) / "campaign.journal"
        print("[2/3] campaign with journal, SIGKILL partway...",
              flush=True)
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", *base,
             "--journal", str(journal)],
            env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        deadline = time.monotonic() + 540
        while time.monotonic() < deadline and process.poll() is None:
            if journal.exists() and \
                    len(journal.read_text().splitlines()) \
                    >= 1 + args.min_records:
                break
            time.sleep(0.02)
        if process.poll() is None:
            os.kill(process.pid, signal.SIGKILL)
            killed = True
        else:
            killed = False
        process.wait(timeout=60)
        records = max(0, len(journal.read_text().splitlines()) - 1) \
            if journal.exists() else 0
        print(f"      killed={killed} with {records}/{args.seeds} "
              f"seeds journaled", flush=True)

        print("[3/3] resume from journal...", flush=True)
        resumed = run_cli(["replicate", "--resume", str(journal)], env)
        if resumed.returncode != 0:
            print(resumed.stderr, file=sys.stderr)
            return 1
        if aggregate_lines(resumed.stdout) != reference:
            print("FAIL: resumed aggregates differ from the clean run",
                  file=sys.stderr)
            print("--- clean ---", *reference, sep="\n", file=sys.stderr)
            print("--- resumed ---", *aggregate_lines(resumed.stdout),
                  sep="\n", file=sys.stderr)
            return 1

    print("kill-and-resume smoke OK: resumed aggregates byte-identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

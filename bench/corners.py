#!/usr/bin/env python3
"""One-shot reference for the generator's corner scenarios (not a workload).

Runs each corner once untraced and once under the span recorder, each run
in a fresh process (so that the traced run sees ``ru_maxrss`` rise), and
writes wall time, peak RSS and the split by layer to ``bench/corners.json``.  These are the before rows for work on the corners;
they are too slow to repeat in the workload runs.

    python3 bench/corners.py            # about five minutes on 2 CPUs
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench

SEED = 11
CORNERS = (
    ("dilate", 8, 8, 8, None),
    ("crossed", 1, 8, 1, "cyclic:2"),
    ("crossed", 2, 3, 2, "symmetric:4"),
)
OUTPUT = bench.BENCH / "corners.json"


def measure(index: int, traced: bool) -> dict:
    """Run one corner once in this process, under the span recorder or not."""
    import tracer as tracing

    cli = bench.import_covstine()
    kind, p, n, amp, group = CORNERS[index]
    item = {"key": bench.spec_key(CORNERS[index]), "kind": kind, "spec": CORNERS[index],
            "seed": SEED, "file": f"corner{index}.json"}
    workdir = bench.WORK / f"corner{index}-{os.getpid()}"
    recorder = tracing.Tracer() if traced else contextlib.nullcontext()
    try:
        bench.write_scenarios(cli, [item], workdir)
        with recorder:
            code, wall, data, _ = bench.execute(cli, item, workdir / "cert.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    cert = json.loads(data) if data else {}
    row = {
        "scenario": item["key"],
        "exit_code": code,
        "pass": cert.get("pass"),
        "sha256": hashlib.sha256(data).hexdigest(),
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if traced:
        summary = recorder.summary()
        row.update({
            "layers": summary["layers"],
            "top_functions_self_s": dict(sorted(
                ((name, f["self_s"]) for name, f in summary["functions"].items() if f["calls"]),
                key=lambda kv: -kv[1])[:12]),
            "spectral_n3": summary["spectral_n3"],
            "spectral_calls": summary["spectral_calls"],
        })
    return row


def run_fresh(index: int, traced: bool) -> dict | None:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--corner", str(index),
                           "--traced", str(int(traced))],
                          capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corner", type=int, choices=range(len(CORNERS)), help=argparse.SUPPRESS)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.corner is not None:
        print(json.dumps(measure(args.corner, bool(args.traced))))
        return 0
    rows = []
    for index in range(len(CORNERS)):
        plain, traced = run_fresh(index, False), run_fresh(index, True)
        if plain is None or traced is None:
            return 1
        row = {key: plain[key] for key in ("scenario", "exit_code", "pass", "sha256",
                                           "wall_s", "peak_rss_mb")}
        row.update({key: value for key, value in traced.items() if key not in row})
        row.update({"seed": SEED, "traced_wall_s": traced["wall_s"],
                    "traced_peak_rss_mb": traced["peak_rss_mb"],
                    "replay_identical": traced["sha256"] == plain["sha256"]})
        rows.append(row)
        print(f"{row['scenario']:36s} {row['wall_s']:8.2f}s {row['peak_rss_mb']:8.1f} MB",
              file=sys.stderr)
    record = {"environment": bench.environment(), "corners": rows}
    OUTPUT.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if all(r["pass"] and r["replay_identical"] for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())

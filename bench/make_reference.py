#!/usr/bin/env python3
"""Record the correctness oracle of the benchmark in ``reference.json``.

Every scenario a workload seed can produce is one of POOL seeded instances
of a spec of the workload, or a bundled scenario.  This script runs each of
them once through ``cli.main`` and stores the certificate dims and rank
decisions (achieved, required).  It refuses to write a reference when a
certificate does not pass.

    python3 bench/make_reference.py

Re-run it only when a change is meant to alter dims or rank decisions, and
say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench


def reference_items() -> list[dict]:
    items = {}
    for workload in bench.WORKLOADS.values():
        for spec in workload["specs"]:
            for slot in range(bench.POOL):
                item = bench.scenario_item(spec, slot, 0)
                if item["key"] not in items:
                    item["file"] = f"s{len(items):04d}.json"
                    items[item["key"]] = item
    for name in bench.BUNDLED:
        items[f"bundled|{name}"] = bench.bundled_item(name)
    return list(items.values())


def write_reference(version: str, entries: dict) -> None:
    """One scenario per line, sorted, so that a changed entry shows as one line."""
    lines = [f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}"
             for key in sorted(entries)]
    text = (f'{{"artifact_version": {json.dumps(version)}, "scenarios": {{\n'
            + ",\n".join(lines) + "\n}}\n")
    bench.REFERENCE.write_text(text, encoding="utf-8")


def main() -> int:
    cli = bench.import_covstine()
    workdir = bench.WORK / "reference"
    entries = {}
    problems = []
    try:
        items = reference_items()
        bench.write_scenarios(cli, items, workdir)
        for item in items:
            code, latency, data, notes = bench.execute(cli, item, workdir / "cert.json")
            cert = json.loads(data) if data else {}
            if code != 0 or cert.get("pass") is not True:
                problems.append(f"{item['key']}: exit {code} {notes.strip()}")
                continue
            entries[item["key"]] = {
                "dims": cert["dims"],
                "ranks": {k: [r["achieved"], r["required"]] for k, r in cert["ranks"].items()},
            }
            print(f"{item['key']:48s} {latency:8.3f}s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        for line in problems:
            print(f"FAIL {line}", file=sys.stderr)
        return 1
    write_reference(cli.__version__, entries)
    print(f"wrote {len(entries)} reference entries to {bench.REFERENCE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""covstine benchmark: certificate throughput end to end, per-layer spans traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload batch-small --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each scenario runs only after the
previous one has returned.  Every scenario goes through the public entry
point ``covstine.cli.main([kind, "--scenario", PATH, "--out", CERT])`` in
process; the program only sees scenario files generated here from
``--seed`` with ``cli.generate_scenario`` (plus copies of the bundled
scenarios).  The scenario list of a workload is one *cycle*; the timed
phase runs as many whole cycles as fill ``--seconds`` at the workload's
nominal pace, so every run measures the same work.

``--trace 0`` prints the end-to-end metrics; their times are scaled to a
reference speed of the machine, measured by a fixed loop timed during the
same phase (``SpeedProbe``).  ``--trace 1`` runs two cycles
under the span recorder of ``tracer.py``, then the same timed phase
untraced, and prints the per-layer metrics.  Every certificate is
checked against ``reference.json`` and against earlier replays of the same
scenario in the run; any deviation makes the run fail (exit code 1).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A detailed record
(environment, certificate digests, tail latency, failure list) is written
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread, set before numpy is first imported (the set-up probes
# inherit it).  On two shared vCPUs a second OpenBLAS thread made every
# workload slower, not faster, and the first large call of a process up to
# 1 s slower still (README.md, "How a run works").
BLAS_THREADS = "1"
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = BLAS_THREADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"
BUNDLED = ("identity", "z2_concrete", "s3_crossed")

# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

_TINY_SHAPES = ((1, 1, 1), (1, 2, 1), (1, 2, 2), (2, 2, 1), (2, 2, 2), (1, 3, 1), (2, 3, 1), (3, 2, 2))
_TINY_GROUPS = (None, "cyclic:2", "cyclic:3", "symmetric:3")


def _batch_small_specs() -> list[tuple]:
    specs = [
        (kind, p, n, amp, group)
        for kind in ("dilate", "dilate-covariant", "uniqueness", "verify")
        for group in _TINY_GROUPS
        for p, n, amp in _TINY_SHAPES
    ]
    # Crossed products grow with |G| * p * n, and at crossed dimension <= 64
    # the exhaustive axiom checks run, so larger groups get smaller shapes.
    specs += [("crossed", p, n, amp, None) for p, n, amp in _TINY_SHAPES]
    specs += [("crossed", p, n, amp, "cyclic:2") for p, n, amp in _TINY_SHAPES]
    specs += [("crossed", p, n, amp, "cyclic:3") for p, n, amp in _TINY_SHAPES[:5]]
    specs += [("crossed", 1, 1, 1, "symmetric:3")]
    return specs


# Each workload: generated specs (kind, p, n, amplification, group), how many
# independently seeded copies of each spec, how often each bundled scenario
# is replayed per cycle, and the nominal wall time of one cycle on 2 CPUs at
# the commit that added the benchmark.  Why each workload exists is in
# README.md.
# The specs of a large workload differ in cost, so that the median latency
# falls on the same spec in every run: (6,6,6) on dilate-wide, which runs it
# twice per cycle so that four of its samples are near the median, and Z2 on
# crossed-group.
WORKLOADS = {
    "dilate-wide": {
        "specs": [("dilate", 6, 6, 6, None), ("dilate", 8, 8, 2, None),
                  ("dilate", 6, 6, 6, None), ("dilate", 8, 6, 2, None)],
        "copies": 1,
        "bundled_replays": 0,
        "cycle_s": 16.5,
    },
    "crossed-group": {
        "specs": [
            ("crossed", 1, 2, 1, "symmetric:4"),
            ("crossed", 1, 6, 1, "cyclic:2"),
            ("crossed", 1, 6, 1, "cyclic:3"),
        ],
        "copies": 1,
        "bundled_replays": 0,
        "cycle_s": 4.5,
    },
    "batch-small": {
        "specs": _batch_small_specs(),
        "copies": 2,
        "bundled_replays": 3,
        "cycle_s": 5.0,
    },
    # Not a benchmark workload: the self-test and the warm-up use it.
    "smoke": {
        "specs": [
            ("dilate", 1, 2, 1, None),
            ("dilate-covariant", 1, 2, 1, "cyclic:2"),
            ("uniqueness", 1, 2, 1, "cyclic:2"),
            ("verify", 1, 2, 1, "cyclic:2"),
            ("crossed", 1, 1, 1, "cyclic:2"),
        ],
        "copies": 1,
        "bundled_replays": 2,
        "cycle_s": 0.5,
    },
}


# Each spec draws its scenario seed from a fixed pool, so that every scenario
# a workload seed can produce has its dims and rank decisions recorded in
# reference.json.  The pool is the first POOL seeds of a per-spec stream,
# taken whatever they generate.
POOL = 8


def spec_key(spec: tuple) -> str:
    kind, p, n, amp, group = spec
    return f"{kind}|p{p}|n{n}|a{amp}|{group or 'trivial'}"


def pool_seed(spec: tuple, slot: int) -> int:
    return random.Random(f"{spec_key(spec)}#{slot}").randrange(2**32)


def scenario_item(spec: tuple, slot: int, position: int) -> dict:
    kind, p, n, amp, group = spec
    seed = pool_seed(spec, slot)
    return {
        "key": f"{spec_key(spec)}|{seed}",
        "kind": kind,
        "spec": spec,
        "seed": seed,
        "file": f"g{position:03d}-{kind}-p{p}n{n}a{amp}-{(group or 'trivial').replace(':', '')}.json",
    }


def bundled_item(name: str) -> dict:
    return {"key": f"bundled|{name}", "kind": None, "spec": None, "seed": None,
            "file": f"{name}.json"}


def plan_workload(name: str, seed: int) -> list[dict]:
    """The scenarios of one cycle, in execution order, derived from the seed."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    plan = []
    for _ in range(workload["copies"]):
        for spec in workload["specs"]:
            plan.append(scenario_item(spec, rng.randrange(POOL), len(plan)))
    for bundled in BUNDLED:
        plan += [bundled_item(bundled) for _ in range(workload["bundled_replays"])]
    if workload["bundled_replays"]:
        rng.shuffle(plan)
    return plan


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class SetupError(RuntimeError):
    pass


def import_covstine():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "covstine" / "cli.py").is_file():
        raise SetupError(f"no covstine sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from covstine import cli

    if Path(cli.__file__).resolve().parent != (SRC / "covstine").resolve():
        raise SetupError(f"imported covstine from {cli.__file__}, not from {SRC}")
    return cli


def write_scenarios(cli, plan: list[dict], workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    for item in plan:
        path = workdir / item["file"]
        item["path"] = str(path)
        if item["spec"] is None:
            name = item["key"].split("|", 1)[1]
            source = SRC / "covstine" / "scenarios" / f"{name}.json"
            data = json.loads(source.read_text(encoding="utf-8"))
            item["kind"] = data["kind"]
            shutil.copyfile(source, path)
        else:
            kind, p, n, amp, group = item["spec"]
            scenario = cli.generate_scenario(kind, p, n, amp, item["seed"], group)
            path.write_bytes(cli.canonical_bytes(scenario))


def execute(cli, item: dict, cert: Path) -> tuple[int, float, bytes, str]:
    """One ``cli.main`` call: exit code, latency, certificate bytes, stderr."""
    argv = [item["kind"], "--scenario", item["path"], "--out", str(cert)]
    notes = io.StringIO()
    with contextlib.redirect_stderr(notes):
        started = time.perf_counter()
        code = cli.main(argv)
        latency = time.perf_counter() - started
    try:
        data = cert.read_bytes()
        cert.unlink()
    except FileNotFoundError:
        data = b""
    return code, latency, data, notes.getvalue()


def setup(workload: str, seed: int, workdir: Path):
    """Import covstine, write the scenario files and warm up.

    Returns the package, the plan, the set-up time and the machine's
    slowdown measured right after it.
    """
    started = time.perf_counter()
    cli = import_covstine()
    plan = plan_workload(workload, seed)
    write_scenarios(cli, plan, workdir / "scenarios")
    warm = [scenario_item(spec, 0, i) for i, spec in enumerate(WORKLOADS["smoke"]["specs"])]
    write_scenarios(cli, warm, workdir / "warmup")
    for item in warm:
        code, _, _, notes = execute(cli, item, workdir / "warmup.cert.json")
        if code != 0:
            raise SetupError(f"warm-up scenario {item['file']} exited {code}: {notes.strip()}")
    elapsed = time.perf_counter() - started
    speed = SpeedProbe()
    for _ in range(SETUP_SPEED_BURSTS):
        speed.sample(force=True)
    return cli, plan, elapsed, speed.slowdown()


# Set-ups timed in fresh interpreters per run, besides the run's own set-up;
# setup_s is the median of all of them.  Half run before the timed phase and
# half after it, so that the samples spread over the run like the other
# metrics' do, instead of sharing the machine's state of one moment.
SETUP_PROBES = 4
SETUP_SPEED_BURSTS = 5


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Time one set-up in a fresh interpreter (covers the import too).

    Returns the set-up time and the machine's slowdown right after it.
    """
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()}")
    elapsed, slowdown = proc.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(slowdown)


# ---------------------------------------------------------------------------
# Machine speed
# ---------------------------------------------------------------------------

# The time metrics are reported at a fixed reference speed of the machine.
# On the shared host this was tuned on, the speed at which this process runs
# drifts by up to 1.6x over minutes, whatever the program does (README.md,
# "Run-to-run spread").  A fixed pure-Python loop, which no covstine code
# touches, is timed in short bursts between the scenarios of the timed phase
# and after each set-up; each time is scaled by the ratio of the loop's
# weighted mean time in the same phase to REFERENCE_LOOP_S, the loop's
# median time on that host.  The unscaled values go to the results file.
REFERENCE_LOOP_S = 1.6e-3
SPEED_BURST_S = 0.01
SPEED_EVERY_S = 0.25
SPEED_SHARE = 0.02


def speed_loop() -> int:
    total = 0
    for i in range(20000):
        total += i * i
    return total


class SpeedProbe:
    """Time of ``speed_loop`` in bursts taken at most every SPEED_EVERY_S.

    A burst stands for the time since the previous one: after a long
    scenario it lasts longer (SPEED_SHARE of that time) and weighs more.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (loop time, weight)
        self.last = float("-inf")

    def sample(self, force: bool = False) -> float:
        """Take one burst if due; return the seconds it took."""
        start = time.perf_counter()
        since = start - self.last
        if not force and since < SPEED_EVERY_S:
            return 0.0
        weight = max(since, SPEED_EVERY_S) if self.samples else SPEED_EVERY_S
        burst = max(SPEED_BURST_S, SPEED_SHARE * weight)
        loops = 0
        while True:
            speed_loop()
            loops += 1
            end = time.perf_counter()
            if end - start >= burst:
                break
        self.samples.append(((end - start) / loops, weight))
        self.last = end
        return end - start

    def slowdown(self) -> float:
        """How much slower than the reference speed the machine ran."""
        total = sum(weight for _, weight in self.samples)
        return sum(t * weight for t, weight in self.samples) / total / REFERENCE_LOOP_S


# ---------------------------------------------------------------------------
# Timed phase and correctness oracle
# ---------------------------------------------------------------------------


def timed_cycles(workload: str, seconds: float) -> int:
    """Whole cycles in a timed phase of about ``seconds`` at the nominal pace.

    The count depends on the workload and ``--seconds`` only, never on the
    measured speed, so every run and both sides of a comparison time the
    same work, including the one cold first cycle of the process.
    """
    return max(1, round(seconds / WORKLOADS[workload]["cycle_s"]))


def run_cycles(cli, plan, workdir: Path, cycles: int, records: list, tracer=None,
               deadline: float | None = None, speed: "SpeedProbe | None" = None) -> list[float]:
    """Run ``cycles`` whole cycles, fewer if ``deadline`` seconds pass; return cycle walls.

    With ``speed``, the machine's speed is sampled between scenarios; the
    time the samples take is left out of the cycle walls.
    """
    walls = []
    cert = workdir / "cert.json"
    phase_start = time.perf_counter()
    while len(walls) < cycles:
        cycle_start = time.perf_counter()
        probing = 0.0
        for index, item in enumerate(plan):
            if speed is not None:
                probing += speed.sample()
            if tracer is not None:
                tracer.scenario = index
            code, latency, data, notes = execute(cli, item, cert)
            records.append((index, code, latency, data, notes))
        walls.append(time.perf_counter() - cycle_start - probing)
        if deadline is not None and time.perf_counter() - phase_start >= deadline:
            break
    return walls


def certificate_problems(reference: dict | None, code: int, data: bytes,
                         earlier: bytes | None) -> list[str]:
    """Every way one execution deviates from the oracle (empty when it passes)."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    if earlier is not None and data != earlier:
        problems.append("certificate bytes differ from an earlier replay")
    try:
        cert = json.loads(data)
    except ValueError:
        return problems + ["no certificate"]
    if cert.get("pass") is not True:
        problems.append("certificate has pass != true")
    if reference is None:
        return problems + ["no reference entry"]
    if cert.get("dims") != reference["dims"]:
        problems.append(f"dims {cert.get('dims')} != reference {reference['dims']}")
    ranks = {name: [r["achieved"], r["required"]] for name, r in cert.get("ranks", {}).items()}
    if ranks != reference["ranks"]:
        problems.append(f"rank decisions {ranks} != reference {reference['ranks']}")
    return problems


def check_records(plan, records, reference: dict) -> tuple[list[bool], list[dict], dict]:
    """Apply the oracle to every execution; replays compare per scenario file."""
    first: dict[str, bytes] = {}
    ok = []
    failures = []
    for index, code, _, data, notes in records:
        item = plan[index]
        problems = certificate_problems(reference.get(item["key"]), code, data,
                                        first.get(item["file"]))
        first.setdefault(item["file"], data)
        ok.append(not problems)
        if problems:
            failures.append({"file": item["file"], "problems": problems, "stderr": notes.strip()})
    scenarios = {
        item["file"]: {"key": item["key"], "seed": item["seed"],
                       "sha256": hashlib.sha256(first[item["file"]]).hexdigest()}
        for item in plan if item["file"] in first
    }
    return ok, failures, scenarios


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

END_TO_END = (
    ("scenarios_per_s", "1/s"),
    ("scenario_p50_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
LAYER_FIELDS = (("calls", "count"), ("self_s", "s"), ("busy_s", "s"),
                ("rss_rise_mb", "MB"), ("errors", "count"))
# Function spans named in the metric table of README.md: (span name, field).
FUNCTION_METRICS = (
    ("stinespring.dilate_module_cp", "self_s"),
    ("stinespring.verify_dilation", "s"),
    ("stinespring.gns_construct", "s"),
    ("hilbmod.check_module_axioms", "s"),
    ("hilbmod.check_dynamical_system", "s"),
    ("crossed.crossed_inner_tensor", "s"),
    ("crossed.structure_constants", "s"),
    ("crossed.check_crossed_algebra", "s"),
    ("crossed.check_crossed_module", "s"),
    ("crossed.build_crossed_module", "s"),
    ("crossed.CrossedModule.inner", "calls"),
    ("crossed.CrossedModule.act", "calls"),
    ("crossed.CrossedAlgebra.multiply", "calls"),
    ("cpmaps.check_covariance", "calls"),
    ("cpmaps.check_module_cp", "calls"),
    ("hilbmod.check_dynamical_system", "calls"),
    ("hilbmod.check_module_axioms", "calls"),
    ("cstar.mult_tensor", "calls"),
    ("cpmaps.random_covariant_cp", "s"),
    ("cli.resolve_scenario", "s"),
    ("cli.emit_certificate", "s"),
)
UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def per_layer_declarations(layers) -> list[tuple[str, str]]:
    out = [(f"{layer}.{field}", unit) for layer in layers for field, unit in LAYER_FIELDS]
    out += [(f"{name}.{field}", UNITS[field]) for name, field in FUNCTION_METRICS]
    out += [("numkernel.spectral_n3", "count"), ("numkernel.spectral_calls", "count"),
            ("trace.overhead_frac", "ratio"), ("trace.main_gap_frac", "ratio")]
    return out


def exact_counts(summary: dict) -> dict:
    """The counts that must repeat exactly between two traced cycles."""
    counts = {f"{name}.calls": f["calls"] for name, f in summary["functions"].items()}
    counts.update({f"{name}.calls": l["calls"] for name, l in summary["layers"].items()})
    counts.update({f"{name}.errors": l["errors"] for name, l in summary["layers"].items()})
    counts["numkernel.spectral_n3"] = summary["spectral_n3"]
    counts["numkernel.spectral_calls"] = summary["spectral_calls"]
    return counts


def layer_metrics(layers, summaries: list[dict], overhead: float, gap: float) -> dict:
    """Per-layer metrics of the two traced cycles.

    ``rss_rise_mb`` comes from the first cycle, the one in which the peak
    grows; everything else from the second, warm one (its counts equal the
    first's, or the run fails).
    """
    cold, warm = summaries
    values = {}
    for layer in layers:
        for field, _ in LAYER_FIELDS:
            source = cold if field == "rss_rise_mb" else warm
            values[f"{layer}.{field}"] = source["layers"][layer][field]
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0}
    for name, field in FUNCTION_METRICS:
        values[f"{name}.{field}"] = warm["functions"].get(name, empty)[field]
    values["numkernel.spectral_n3"] = warm["spectral_n3"]
    values["numkernel.spectral_calls"] = warm["spectral_calls"]
    values["trace.overhead_frac"] = overhead
    values["trace.main_gap_frac"] = gap
    units = dict(per_layer_declarations(layers))
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, read through ctypes."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(args) -> int:
    load_start = os.getloadavg()
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    try:
        setup_samples = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
        cli, plan, own_setup, own_slowdown = setup(args.workload, args.seed, workdir)
        setup_samples.append((own_setup, own_slowdown))
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["scenarios"]

        records: list = []
        summaries = []
        gaps = []
        traced_walls = []
        if args.trace:
            # The traced cycles run first, while ru_maxrss still rises, so
            # that rss_rise_mb shows which layer grows the peak.
            import tracer as tracing

            recorder = tracing.Tracer()
            with recorder:
                for _ in range(2):
                    first = len(recorder.start)
                    traced_walls += run_cycles(cli, plan, workdir, 1, records, recorder)
                    summaries.append(recorder.summary(first))
                    main = summaries[-1]["functions"].get("cli.main", {"s": 0.0})["s"]
                    gaps.append(1.0 - main / traced_walls[-1])
            nesting_violations = recorder.nesting_violations()
            OUT.mkdir(exist_ok=True)
            recorder.save(OUT / f"{args.workload}-seed{args.seed}-spans.npz")
        traced_count = len(records)

        # A much slower program stops early, so that a run still ends in time.
        speed = SpeedProbe()
        walls = run_cycles(cli, plan, workdir, timed_cycles(args.workload, args.seconds),
                           records, deadline=3 * args.seconds, speed=speed)
        speed.sample(force=True)
        slowdown = speed.slowdown()
        timed_wall = sum(walls)
        setup_samples += [probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
        latencies = [r[2] for r in records[traced_count:]]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok, failures, scenarios = check_records(plan, records, reference)
    attempted = len(ok)
    failed = attempted - sum(ok)
    problems = [f"{f['file']}: {'; '.join(f['problems'])}" for f in failures]
    count_mismatch = {}
    if args.trace:
        first, second = exact_counts(summaries[0]), exact_counts(summaries[1])
        count_mismatch = {k: (first.get(k), second.get(k))
                          for k in sorted(set(first) | set(second)) if first.get(k) != second.get(k)}
        problems += [f"count {k} differs between traced cycles: {v}" for k, v in count_mismatch.items()]
        if nesting_violations:
            problems.append(f"{nesting_violations} spans do not lie inside their parent span")

    passed_timed = sum(ok[traced_count:])
    extra = {
        "fail_frac": failed / attempted,
        "scenario_samples": len(latencies),
        "timed_cycle_walls_s": walls,
        "timed_latencies_s": [[r[0], r[2]] for r in records[traced_count:]],
        "timed_wall_s": timed_wall,
        "setup_samples_s": [elapsed for elapsed, _ in setup_samples],
        "setup_slowdowns": [sd for _, sd in setup_samples],
        "timed_slowdown": slowdown,
        "speed_samples": len(speed.samples),
    }
    if len(latencies) >= 100:  # at least ten samples beyond the 90th percentile
        extra["scenario_p90_s"] = statistics.quantiles(latencies, n=10)[-1] / slowdown
    if args.trace:
        # The first traced cycle runs cold (allocator growth, caches); the
        # second and the untraced cycles after it run warm.
        overhead = traced_walls[1] / statistics.median(walls) - 1.0
        metrics = layer_metrics(tracing.LAYERS, summaries, overhead, statistics.mean(gaps))
        extra["traced_cycle_walls_s"] = traced_walls
        extra["spans_per_cycle"] = summaries[0]["spans"]
    else:
        # Every cycle runs the same scenarios, so the rate is taken at the
        # median cycle: a burst of load from a neighbour that slows one
        # cycle moves the rate as little as it moves the median latency.
        # Times are scaled to the reference speed (see SpeedProbe).
        unscaled = {
            "scenarios_per_s": passed_timed / len(walls) / statistics.median(walls),
            "scenario_p50_s": statistics.median(latencies),
            "setup_s": statistics.median(elapsed for elapsed, _ in setup_samples),
        }
        values = {
            "scenarios_per_s": unscaled["scenarios_per_s"] * slowdown,
            "scenario_p50_s": unscaled["scenario_p50_s"] / slowdown,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(elapsed / sd for elapsed, sd in setup_samples),
        }
        extra["unscaled"] = unscaled
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    env = environment()
    env["loadavg_start"] = list(load_start)
    env["loadavg_end"] = list(os.getloadavg())
    correct = not problems
    OUT.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics, "extra": extra, "environment": env, "problems": problems,
        "count_mismatch": count_mismatch, "scenarios": scenarios,
    }
    results = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    for line in problems[:20]:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"environment: {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:44s} {metric['value']!s:>24} {metric['unit']}", file=sys.stderr)
    for name, value in extra.items():
        if name != "timed_latencies_s":
            print(f"{name:44s} {value}", file=sys.stderr)
    print(f"results: {results}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}, sort_keys=True))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            workdir = WORK / f"probe-{os.getpid()}"
            try:
                _, _, elapsed, slowdown = setup(args.workload, args.seed, workdir)
                print(elapsed, slowdown)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            return 0
        return run(args)
    except (SetupError, OSError, subprocess.SubprocessError, ValueError) as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

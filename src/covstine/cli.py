"""Scenario-driven command line harness.

Reads a JSON scenario (explicit objects or a seeded generator spec), runs the
requested construction, re-verifies every invariant and emits a certificate.
Certificates are canonical JSON (sorted keys, fixed separators): identical
scenario, seed and artifact version produce byte-identical output.  Wall
clock time goes to stderr, never into the certificate.

Exit codes: 0 when every check passes, 1 on check failures, 2 on input
errors (parse, validation, bounds, or rejected mathematical preconditions).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__  # noqa: F401 (re-exported as cli.__version__)
from . import cpmaps, crossed, cstar, hilbmod, stinespring
from . import numkernel as nk
from .errors import (
    BoundsError,
    ComputeError,
    CovstineError,
    NotUnitaryError,
    ParseError,
    ValidationError,
)
from .stinespring import Certificate, canonical_bytes

SCHEMA_VERSION = 1
KINDS = ("dilate", "dilate-covariant", "crossed", "uniqueness", "verify")
DEFAULT_TOL = nk.RESIDUAL_TOL
MAX_P, MAX_N = hilbmod.MAX_P, hilbmod.MAX_N
MAX_AMPLIFICATION = 8
# Explicit trivial representations get the bound of the largest space a
# generated scenario has: K of dimension p * amplification plus at most 2.
MAX_SPACE_DIM = MAX_P * MAX_AMPLIFICATION + 2
# exhaustive crossed-axiom checks are only feasible on small crossed bases
CROSSED_AXIOM_LIMIT = 64
# --dump-structure puts one [row, col, slot, re, im] list per nonzero crossed
# structure constant into the certificate, about 0.4 kB a row with its JSON
# text, so at most MAX_STRUCTURE_ROWS of them (about 0.4 GB) are allowed.
MAX_STRUCTURE_ROWS = 1_000_000


# ---------------------------------------------------------------------------
# Scenario parsing and object resolution
# ---------------------------------------------------------------------------


def _parse_int(text: str) -> int:
    """``int`` for ``json.load``: past the interpreter's digit limit, a message naming it."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"an integer of {len(text)} digits exceeds the parser's limit of {limit}")


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, parse_int=_parse_int)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read scenario ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an over-long int, deep nesting
        raise ParseError(f"{path}: cannot decode scenario ({type(exc).__name__}: {exc})") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: scenario root must be an object")
    return data


def _check_fields(payload: dict, where: str, required: tuple, optional: tuple = ()) -> None:
    """Name the first unknown field, else the first missing required one."""
    extra = set(payload) - set(required) - set(optional)
    if extra:
        raise ParseError(f"{where}: unknown field '{sorted(extra)[0]}'")
    for name in required:
        if name not in payload:
            raise ParseError(f"{where}: missing field '{name}'")


def validate_scenario(data: dict) -> None:
    _check_fields(
        data, "scenario", ("schema", "kind"), ("seed", "tolerance", "generate", "objects")
    )
    if data["schema"] != SCHEMA_VERSION:
        raise ParseError(f"scenario: unsupported schema {data['schema']!r}")
    if data["kind"] not in KINDS:
        raise ParseError(f"scenario: unknown kind {data['kind']!r}")
    if ("generate" in data) == ("objects" in data):
        raise ParseError("scenario: exactly one of 'generate' or 'objects' is required")


@dataclass
class ResolvedScenario:
    kind: str
    tolerance: float
    seed: int | None
    phi: cpmaps.ModuleCPMap | None = None
    cov: cpmaps.CovariantCPMap | None = None
    digest: str = ""
    name: str = ""
    scale: float = 0.0  # maxabs of the input images, divided out of phi and cov

    @property
    def covariant(self) -> bool:
        return self.cov is not None


def _scenario_rng(seed: int, key: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(key,)))
    )


def _resolve_generate(data: dict, seed: int | None) -> tuple:
    payload = data["generate"]
    if not isinstance(payload, dict):
        raise ParseError("scenario.generate: must be an object")
    sizes = ("p", "n", "amplification")
    _check_fields(payload, "scenario.generate", sizes, ("group",))
    if seed is None:
        raise ParseError("scenario: generated scenarios need a 'seed'")
    p, n, amplification = (
        nk.json_int(payload[name], f"scenario.generate: '{name}'", 1) for name in sizes
    )
    check_generator_bounds(p, n, amplification)
    if "group" in payload:
        group = hilbmod.group_from_json(payload["group"])
    else:
        group = hilbmod.trivial_group()
    gamma = hilbmod.seeded_rep(group, p, _scenario_rng(seed, 100))
    delta = hilbmod.seeded_rep(group, n, _scenario_rng(seed, 101))
    system = hilbmod.standard_action(group, gamma, delta)
    cov, _ = cpmaps.random_covariant_cp(system, amplification, seed)
    return cov.base, cov


def check_generator_bounds(p: int, n: int, amplification: int) -> None:
    if not 1 <= p <= MAX_P:
        raise BoundsError(f"p = {p} outside [1, {MAX_P}]")
    if not 1 <= n <= MAX_N:
        raise BoundsError(f"n = {n} outside [1, {MAX_N}]")
    if not 1 <= amplification <= MAX_AMPLIFICATION:
        raise BoundsError(f"amplification = {amplification} outside [1, {MAX_AMPLIFICATION}]")


def _standard_dims(module: hilbmod.HilbertModule) -> tuple[int, int]:
    if len(module.algebra.blocks) != 1:
        raise ValidationError("concrete maps need a standard (single block) module")
    n = module.algebra.blocks[0]
    if module.dim % n:
        raise ValidationError("module dimension is not a multiple of the block size")
    p = module.dim // n
    # "concrete" certifies the standard module itself, so nothing near it will do
    reference = hilbmod.standard_module(p, n)
    if not (
        np.array_equal(reference.action, module.action)
        and np.array_equal(reference.inner, module.inner)
    ):
        raise ValidationError("concrete maps need the standard module structure")
    return p, n


def _resolve_cp_map(payload, module: hilbmod.HilbertModule) -> cpmaps.ModuleCPMap:
    if not isinstance(payload, dict):
        raise ParseError("scenario.objects.cp_map: must be an object")
    if set(payload) == {"concrete"}:
        p, n = _standard_dims(module)
        rep = hilbmod.concrete_representation(p, n)
        return cpmaps.cp_from_representation(rep, nk.eye(n), nk.eye(p))
    _check_fields(payload, "scenario.objects.cp_map", ("images", "companion"))
    comp = payload["companion"]
    if not isinstance(comp, dict) or set(comp) != {"space_dim", "images"}:
        raise ParseError("scenario.objects.cp_map.companion: needs space_dim and images")
    for where, images in (("images", payload["images"]), ("companion.images", comp["images"])):
        if not isinstance(images, dict):
            raise ParseError(f"scenario.objects.cp_map.{where}: must be an object")
    rep = cstar.representation_from_json(module.algebra, comp, "scenario.objects.cp_map.companion")
    companion = cpmaps.CPMapAlgebra(module.algebra, rep.space_dim, rep.images)
    keys = [str(i) for i in range(module.dim)]
    extra = set(payload["images"]) - set(keys)
    if extra:
        raise ParseError(f"scenario.objects.cp_map.images: unknown key '{sorted(extra)[0]}'")
    images = []
    for key in keys:
        if key not in payload["images"]:
            raise ParseError(f"cp_map: missing image '{key}'")
        images.append(nk.mat_from_json(payload["images"][key]))
    if len({m.shape for m in images}) > 1:
        raise ParseError("cp_map: images differ in shape")
    return cpmaps.ModuleCPMap(module, np.stack(images), companion)


def _resolve_rep(payload, group: hilbmod.FiniteGroup, name: str) -> hilbmod.UnitaryRep:
    if isinstance(payload, dict) and set(payload) == {"trivial"}:
        dim = nk.json_int(payload["trivial"], f"{name}: 'trivial'")
        if dim > MAX_SPACE_DIM:
            raise BoundsError(f"{name}: 'trivial' dimension {dim} outside [0, {MAX_SPACE_DIM}]")
        return hilbmod.trivial_rep(group, dim)
    if isinstance(payload, dict) and set(payload) == {"regular"}:
        return hilbmod.regular_rep(group)
    return hilbmod.unitary_rep_from_json(group, payload)


def _resolve_system(payload) -> hilbmod.ModuleDynamicalSystem:
    if not isinstance(payload, dict):
        raise ParseError("scenario.objects.system: must be an object")
    if set(payload) == {"standard_action"}:
        inner = payload["standard_action"]
        if not isinstance(inner, dict) or set(inner) != {"group", "gamma", "delta"}:
            raise ParseError(
                "scenario.objects.system.standard_action: needs group, gamma, delta"
            )
        group = hilbmod.group_from_json(inner["group"])
        gamma = _resolve_rep(inner["gamma"], group, "gamma")
        delta = _resolve_rep(inner["delta"], group, "delta")
        return hilbmod.standard_action(group, gamma, delta)
    _check_fields(payload, "scenario.objects.system", ("group", "module", "eta", "alpha"))
    group = hilbmod.group_from_json(payload["group"])
    module = hilbmod.module_from_json(payload["module"])
    eta = hilbmod._tensor_from_json(payload["eta"], 3)
    alpha = hilbmod._tensor_from_json(payload["alpha"], 3)
    return hilbmod.ModuleDynamicalSystem(group, module, eta, alpha)


def _resolve_objects(data: dict, kind: str) -> tuple:
    payload = data["objects"]
    if not isinstance(payload, dict):
        raise ParseError("scenario.objects: must be an object")
    covariant_kinds = {"dilate-covariant", "crossed"}
    wants_covariant = kind in covariant_kinds or "system" in payload
    if wants_covariant:
        _check_fields(payload, "scenario.objects", ("system", "cp_map", "u", "u_prime"))
        system = _resolve_system(payload["system"])
        phi = _resolve_cp_map(payload["cp_map"], system.module)

        def _target(rep_payload, name):
            if rep_payload == "delta":
                if system.delta is None:
                    raise ValidationError(f"{name}: 'delta' needs a standard action")
                return system.delta
            if rep_payload == "gamma":
                if system.gamma is None:
                    raise ValidationError(f"{name}: 'gamma' needs a standard action")
                return system.gamma
            return _resolve_rep(rep_payload, system.group, name)

        u = _target(payload["u"], "u")
        u_prime = _target(payload["u_prime"], "u_prime")
        cov = cpmaps.CovariantCPMap(phi, system, u, u_prime)
        return phi, cov
    _check_fields(payload, "scenario.objects", ("module", "cp_map"))
    module = hilbmod.module_from_json(payload["module"])
    phi = _resolve_cp_map(payload["cp_map"], module)
    return phi, None


def resolve_scenario(
    data: dict,
    name: str,
    tol_override: float | None = None,
    seed_override: int | None = None,
) -> ResolvedScenario:
    validate_scenario(data)
    kind = data["kind"]
    if seed_override is not None:
        seed = nk.json_int(seed_override, "--seed")
    elif data.get("seed") is not None:
        seed = nk.json_int(data["seed"], "scenario: 'seed'")
    else:
        seed = None
    if tol_override is not None:
        tolerance = nk.json_positive(tol_override, "--tol")
    else:
        tolerance = nk.json_positive(data.get("tolerance", DEFAULT_TOL), "scenario: 'tolerance'")
    if "generate" in data:
        phi, cov = _resolve_generate(data, seed)
    else:
        phi, cov = _resolve_objects(data, kind)
    if kind in ("dilate-covariant", "crossed") and cov is None:
        raise ValidationError(f"kind '{kind}' needs covariant objects")
    phi, cov, scale = cpmaps.normalize(phi, cov)
    digest = hashlib.sha256(canonical_bytes(data)).hexdigest()
    return ResolvedScenario(kind, tolerance, seed, phi, cov, digest, name, scale)


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def emit_certificate(cert: Certificate, fmt: str = "json") -> str:
    """Render a certificate as canonical JSON or a human-readable table."""
    if fmt == "json":
        return cert.canonical().decode()
    lines = [
        f"scenario {cert.provenance.get('scenario', '?')}  kind={cert.kind}  "
        f"seed={cert.seed}  tol={cert.tolerance:g}",
        f"dims: {cert.dims}",
        f"{'check':38s} {'value':>12s} {'verdict':>8s}",
    ]
    for name, value in sorted(cert.residuals.items()):
        verdict = "PASS" if value <= cert.tolerance else "FAIL"
        lines.append(f"{name:38s} {value:12.3e} {verdict:>8s}")
    for name, (achieved, required) in sorted(cert.ranks.items()):
        verdict = "PASS" if achieved == required else "FAIL"
        lines.append(f"{name:38s} {f'{achieved}/{required}':>12s} {verdict:>8s}")
    for name, reason in sorted(cert.skipped.items()):
        lines.append(f"{name:38s} {'skipped':>12s}  ({reason})")
    lines.append("PASS" if cert.passed else "FAIL")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------


def _run_dilate(res: ResolvedScenario, provenance: dict, covariant: bool) -> Certificate:
    if covariant:
        dilation = stinespring.dilate_covariant(res.cov)
    else:
        dilation = stinespring.dilate_module_cp(res.phi)
    return stinespring.verify_dilation(
        res.cov if covariant else res.phi, dilation, tol=res.tolerance, provenance=provenance
    )


def _run_verify(res: ResolvedScenario, provenance: dict) -> Certificate:
    """Report-everything mode: axiom residuals plus the dilation certificate.

    A construction rejected on mathematical grounds becomes a failing check
    here instead of an input error, so that broken objects still produce a
    complete report.  The input rows (``stinespring.input_rows``, on both
    paths) come from the cached reports the construction reads; the module
    axiom rows are computed here, and by no other kind.
    """
    try:
        cert = _run_dilate(res, provenance, covariant=res.cov is not None)
        cert.ranks["dilation_constructed"] = (1, 1)
    except ComputeError as exc:
        cert = Certificate(res.tolerance, provenance=provenance)
        cert.residuals.update(stinespring.input_rows(res.phi, res.cov))
        cert.ranks["dilation_constructed"] = (0, 1)
        cert.skipped["dilation"] = f"{type(exc).__name__}: {exc}"
    axioms = res.phi.module.axiom_report
    cert.residuals["module_linearity"] = axioms.linearity_residual
    cert.residuals["module_symmetry"] = axioms.symmetry_residual
    cert.residuals["module_positivity_defect"] = max(0.0, -axioms.positivity_min_eig)
    cert.ranks["module_fullness"] = (axioms.fullness_rank, axioms.fullness_required)
    if res.cov is not None:
        cert.residuals["dynamical_system"] = res.cov.system.action_report.max_residual
    return cert


def _run_crossed(res: ResolvedScenario, provenance: dict, dump_structure: bool) -> Certificate:
    cov = res.cov
    if dump_structure:
        system = cov.system
        calg = crossed.CrossedAlgebra(system.group, system.module.algebra, system.alpha)
        rows = crossed.structure_entry_count(calg)
        if rows > MAX_STRUCTURE_ROWS:
            raise BoundsError(
                f"--dump-structure: {rows} structure constants exceed the limit "
                f"{MAX_STRUCTURE_ROWS}"
            )
    cert = Certificate(res.tolerance, provenance=provenance)
    dilation = stinespring.dilate_covariant(cov)
    induced = crossed.induced_cp(cov, dilation)
    cert.dims.update(dilation.base.dims)
    cert.dims["crossed_algebra"] = induced.crossed.algebra.dim
    cert.dims["crossed_module"] = induced.crossed.dim
    cert.residuals["crossed_identity"] = induced.identity_residual
    cert.residuals["factorization"] = induced.factorization_residual
    base = dilation.base
    cert.ranks["integral_range_density"] = (induced.range_density.rank, base.dim_codomain)
    cert.ranks["integral_corange_density"] = (induced.corange_density.rank, base.gns.dim)

    if induced.crossed.algebra.dim <= CROSSED_AXIOM_LIMIT:
        alg_report = crossed.check_crossed_algebra(induced.crossed.algebra)
        cert.residuals["crossed_algebra_axioms"] = alg_report.max_residual
        mod_report = crossed.check_crossed_module(induced.crossed)
        cert.residuals["crossed_module_axioms"] = mod_report.max_residual
        cert.ranks["crossed_module_fullness"] = (
            mod_report.fullness_rank,
            mod_report.fullness_required,
        )
    else:
        cert.skipped["crossed_axioms"] = (
            f"crossed basis of size {induced.crossed.algebra.dim} exceeds the "
            f"exhaustive-check limit {CROSSED_AXIOM_LIMIT}"
        )
    if dump_structure:
        rows, cols, slots, values = crossed.structure_entries(induced.crossed.algebra)
        provenance["structure_constants"] = [
            [int(i), int(j), int(k), float(v.real), float(v.imag)]
            for i, j, k, v in zip(rows, cols, slots, values)
        ]
    return cert


def _phase_align(u: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first columns of u and reference align."""
    if u.size == 0:
        return u
    overlap = np.vdot(u[:, 0], reference[:, 0])
    if abs(overlap) == 0.0:
        return u
    return u * (overlap / abs(overlap))


def _run_uniqueness(res: ResolvedScenario, provenance: dict) -> Certificate:
    if res.seed is None:
        raise ValidationError("uniqueness scenarios need a seed for the conjugators")
    cert = Certificate(res.tolerance, provenance=provenance)
    if res.cov is not None:
        dilation = stinespring.dilate_covariant(res.cov)
        base = dilation.base
    else:
        dilation = stinespring.dilate_module_cp(res.phi)
        base = dilation
    rng = _scenario_rng(res.seed, 102)
    r1 = nk.haar_unitary(rng, base.gns.dim)
    r2 = nk.haar_unitary(rng, base.dim_codomain)
    alt_images = r2 @ base.images @ nk.adjoint(r1)
    alt = stinespring.AltDilation(
        images=alt_images,
        V=r1 @ base.gns.V,
        W=r2 @ base.W,
        v=hilbmod.conjugate_rep(dilation.v, r1) if res.cov is not None else None,
        w=hilbmod.conjugate_rep(dilation.w, r2) if res.cov is not None else None,
    )
    tol = max(res.tolerance, nk.PRECONDITION_TOL)
    cert.dims.update(base.dims)
    try:
        report = stinespring.uniqueness_intertwiners(dilation, alt, tol=tol)
    except NotUnitaryError as exc:  # the competitor is this run's own conjugate: a failed check
        cert.ranks["intertwiners_unitary"] = (0, 1)
        cert.skipped["uniqueness"] = f"{type(exc).__name__}: {exc}"
        return cert
    # every residual of the report; the two covariant ones only for a covariant run
    rows = report._fields[2:] if res.cov is not None else report._fields[2:-2]
    cert.residuals.update((name, getattr(report, name)) for name in rows)
    cert.residuals["recover_U1"] = nk.maxabs(_phase_align(report.U1, r1) - r1)
    cert.residuals["recover_U2"] = nk.maxabs(_phase_align(report.U2, r2) - r2)
    return cert


def run_scenario(
    path: str,
    expected_kind: str | None = None,
    tol_override: float | None = None,
    seed_override: int | None = None,
    dump_structure: bool = False,
) -> Certificate:
    """Run one scenario file end to end and return its certificate."""
    data = load_scenario(path)
    res = resolve_scenario(data, path, tol_override, seed_override)
    if expected_kind is not None and res.kind != expected_kind:
        raise ValidationError(
            f"{path}: scenario kind '{res.kind}' does not match command '{expected_kind}'"
        )
    started = time.monotonic()
    provenance = dict(scenario=os.path.basename(res.name), seed=res.seed, input_scale=res.scale)
    if res.kind in ("dilate", "dilate-covariant"):
        cert = _run_dilate(res, provenance, covariant=res.kind == "dilate-covariant")
    elif res.kind == "verify":
        cert = _run_verify(res, provenance)
    elif res.kind == "crossed":
        cert = _run_crossed(res, provenance, dump_structure)
    else:
        cert = _run_uniqueness(res, provenance)
    cert.kind, cert.scenario_digest, cert.seed = res.kind, res.digest, res.seed
    cert.duration = time.monotonic() - started
    return cert


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------


def generate_scenario(
    kind: str,
    p: int,
    n: int,
    amplification: int,
    seed: int,
    group: str | None = None,
    tolerance: float = DEFAULT_TOL,
) -> dict:
    """Emit a self-contained scenario that replays identically from its seed."""
    if kind not in KINDS:
        raise BoundsError(f"unknown kind '{kind}'")
    check_generator_bounds(p, n, amplification)
    nk.json_int(seed, "seed")
    nk.json_positive(tolerance, "tolerance")
    generate: dict = {"p": p, "n": n, "amplification": amplification}
    if group is not None:
        group_json = _parse_group_spec(group)
        generate["group"] = group_json
    elif kind in ("dilate-covariant", "crossed"):
        generate["group"] = {"cyclic": 1}
    return {
        "schema": SCHEMA_VERSION,
        "kind": kind,
        "seed": int(seed),
        "tolerance": tolerance,
        "generate": generate,
    }


def _parse_group_spec(spec: str) -> dict:
    family, _, size = spec.partition(":")
    try:
        size = int(size)
    except ValueError as exc:
        raise BoundsError(f"bad group spec '{spec}' (use cyclic:N or symmetric:N)") from exc
    hilbmod.group_order(family, size)
    return {family: size}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _worker(args: tuple) -> tuple[int, str, str]:
    path, kind, tol, seed, dump, fmt = args
    try:
        cert = run_scenario(path, kind, tol, seed, dump)
    except CovstineError as exc:
        return 2, "", f"{path}: {type(exc).__name__}: {exc}"
    output = emit_certificate(cert, fmt)
    note = f"{path}: {'PASS' if cert.passed else 'FAIL'} in {cert.duration:.3f}s"
    return (0 if cert.passed else 1), output, note


def worker_count(requested: int, scenarios: int) -> int:
    """Processes for ``--jobs``: at most one per scenario and per CPU, at least one."""
    return max(1, min(requested, scenarios, os.cpu_count() or 1))


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario", action="append", required=True, metavar="PATH",
        help="scenario file (repeatable)",
    )
    parser.add_argument("--tol", type=float, default=None, help="tolerance override")
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--out", default=None, help="write the certificate to PATH")
    parser.add_argument("--format", choices=("json", "table"), default="json")
    parser.add_argument("--jobs", type=int, default=1, help="run scenarios in parallel")
    parser.add_argument(
        "--dump-structure", action="store_true",
        help="include crossed structure constants in the certificate provenance",
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="covstine",
        description="Construct and verify dilations of CP maps on Hilbert C*-modules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in KINDS:
        _add_run_flags(sub.add_parser(kind, help=f"run {kind} scenarios"))
    gen = sub.add_parser("gen", help="emit a seeded scenario file")
    gen.add_argument("--kind", required=True, choices=KINDS)
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--amplification", type=int, default=1)
    gen.add_argument("--group", default=None, help="cyclic:N or symmetric:N")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--tol", type=float, default=DEFAULT_TOL)
    gen.add_argument("--out", default=None)
    return parser


def _write_out(path: str, text: str) -> int:
    """Write ``text`` to ``--out``: 0, or 2 with a message when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"--out: cannot write {path} ({exc})", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    if args.command == "gen":
        try:
            scenario = generate_scenario(
                args.kind, args.p, args.n, args.amplification, args.seed,
                args.group, args.tol,
            )
        except (BoundsError, ParseError) as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 2
        text = canonical_bytes(scenario).decode()
        if args.out:
            return _write_out(args.out, text)
        sys.stdout.write(text)
        return 0

    jobs = [
        (path, args.command, args.tol, args.seed, args.dump_structure, args.format)
        for path in args.scenario
    ]
    if args.out and len(jobs) > 1:
        print("--out needs a single scenario", file=sys.stderr)
        return 2
    workers = worker_count(args.jobs, len(jobs))
    if workers > 1:
        # imported here: it loads multiprocessing, some milliseconds of every
        # start-up that a single scenario does not need
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_worker, jobs))
    else:
        results = [_worker(job) for job in jobs]

    code = 0
    for (status, output, note), job in zip(results, jobs):
        print(note, file=sys.stderr)
        if output and args.out:
            status = max(status, _write_out(args.out, output))
        elif output:
            sys.stdout.write(output)
        code = max(code, status)
    return code


if __name__ == "__main__":
    sys.exit(main())

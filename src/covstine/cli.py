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
import math
import numbers
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
# Standard modules, p x n matrices over M_n, are bounded before any array of
# a scenario on them (its maps, dilation and crossed blocks) is allocated.
MAX_P = 8
MAX_N = 8
# Algebras are tabulated densely too (``cstar._structure`` builds N x N tables),
# so a payload algebra is bounded by the coefficient algebra M_8 of the largest
# standard module: N = sum of the squared block sizes is at most 64.
MAX_DIM = MAX_N**2
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
# The scenario wire format: every payload reader and its bounds
# ---------------------------------------------------------------------------


def _parse_int(text: str) -> int:
    """``int`` for ``json.load``: past the interpreter's digit limit, a message naming it."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"an integer of {len(text)} digits exceeds the parser's limit of {limit}")


def load_scenario(path: str):
    """The decoded JSON of a scenario file; ``validate_scenario`` checks its fields."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_int=_parse_int)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read scenario ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an over-long int, deep nesting
        raise ParseError(f"{path}: cannot decode scenario ({type(exc).__name__}: {exc})") from exc


def _object(obj, where: str, required, optional=()) -> None:
    """The one field rule of every payload: ``obj`` is a JSON object whose fields
    are ``required`` and some of ``optional``.  Otherwise a ``ParseError`` names
    the first unknown field, else the first missing required one."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: must be an object")
    extra = set(obj) - set(required) - set(optional)
    if extra:
        raise ParseError(f"{where}: unknown field '{sorted(extra)[0]}'")
    for name in required:
        if name not in obj:
            raise ParseError(f"{where}: missing field '{name}'")


def _tag(obj, tags: tuple) -> str | None:
    """The first of ``tags`` that ``obj`` has as a field: the form of a tagged
    payload, whose other fields ``_object`` then names as unknown."""
    return next((tag for tag in tags if isinstance(obj, dict) and tag in obj), None)


def _is_finite_number(x) -> bool:
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an int too large for a float
        return False


def json_int(value, what: str, minimum: int = 0) -> int:
    """A JSON integer of at least ``minimum``; ``ParseError`` naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ParseError(f"{what}: expected an integer >= {minimum}, got {value!r:.60}")
    return int(value)


def json_positive(value, what: str) -> float:
    """A finite positive JSON number; ``ParseError`` naming ``what`` otherwise."""
    if not (_is_finite_number(value) and value > 0):
        raise ParseError(f"{what}: expected a finite positive number, got {value!r:.60}")
    return float(value)


def entries_from_json(entries, what: str) -> np.ndarray:
    """Decode ``[re, im]`` pairs into a flat complex array.

    Every part must be a finite JSON number; strings, booleans, NaN and
    infinities raise ``ParseError`` naming ``what`` and the entry index.
    """
    if not isinstance(entries, list):
        raise ParseError(f"{what}: 'entries' must be a list of [re, im] pairs")
    for index, pair in enumerate(entries):
        if not (
            isinstance(pair, list) and len(pair) == 2 and all(map(_is_finite_number, pair))
        ):
            raise ParseError(
                f"{what}: entries[{index}] must be a pair of finite numbers, got {pair!r:.60}"
            )
    flat = np.array(entries, dtype=np.float64).reshape(-1, 2)
    return flat.view(np.complex128).reshape(-1)


def mat_from_json(obj, where: str = "matrix payload") -> np.ndarray:
    _object(obj, where, ("rows", "cols", "entries"))
    rows = json_int(obj["rows"], f"{where}: 'rows'")
    cols = json_int(obj["cols"], f"{where}: 'cols'")
    flat = entries_from_json(obj["entries"], where)
    if flat.size != rows * cols:
        raise ParseError(f"{where}: {flat.size} entries for shape {rows}x{cols}")
    return flat.reshape(rows, cols)


def _tensor_from_json(obj, expected_rank: int, where: str) -> np.ndarray:
    _object(obj, where, ("shape", "entries"))
    if not isinstance(obj["shape"], list):
        raise ParseError(f"{where}: 'shape' must be a list")
    shape = tuple(json_int(v, f"{where}: 'shape'") for v in obj["shape"])
    if len(shape) != expected_rank:
        raise ParseError(f"{where} has rank {len(shape)}, expected {expected_rank}")
    flat = entries_from_json(obj["entries"], where)
    size = math.prod(shape) if shape else 0
    if flat.size != size:
        raise ParseError(f"{where}: {flat.size} entries for shape {shape}")
    return flat.reshape(shape)


def algebra_from_json(obj) -> cstar.CStarAlgebra:
    _object(obj, "algebra payload", ("blocks",))
    if not isinstance(obj["blocks"], list) or not obj["blocks"]:
        raise ParseError("algebra payload: 'blocks' must be a non-empty list")
    blocks = tuple(json_int(n, "algebra payload: 'blocks'", 1) for n in obj["blocks"])
    dim = sum(n * n for n in blocks)
    if dim > MAX_DIM:
        raise BoundsError(f"algebra payload: dimension {dim} outside [1, {MAX_DIM}]")
    return cstar.CStarAlgebra(blocks)


def representation_from_json(
    algebra: cstar.CStarAlgebra, obj, what: str = "representation payload"
) -> cstar.AlgebraRepresentation:
    """One ``space_dim x space_dim`` image per basis label; ``ParseError`` naming ``what``."""
    _object(obj, what, ("space_dim", "images"))
    labels = algebra.basis_labels()
    _object(obj["images"], f"{what}.images", labels)
    space_dim = json_int(obj["space_dim"], f"{what}: 'space_dim'")
    images = [mat_from_json(obj["images"][label], f'{what}.images."{label}"') for label in labels]
    wrong = [label for label, m in zip(labels, images) if m.shape != (space_dim, space_dim)]
    if wrong:
        raise ParseError(f"{what}: image '{wrong[0]}' is not {space_dim}x{space_dim}")
    return cstar.AlgebraRepresentation(algebra, space_dim, np.stack(images))


def module_from_json(obj) -> hilbmod.HilbertModule:
    if _tag(obj, ("standard_module",)):
        _object(obj, "module payload", ("standard_module",))
        dims = obj["standard_module"]
        if not isinstance(dims, list) or len(dims) != 2:
            raise ParseError("module payload: 'standard_module' must be [p, n]")
        p, n = (json_int(d, "module payload: 'standard_module'", 1) for d in dims)
        if p > MAX_P or n > MAX_N:
            raise BoundsError(
                f"module payload: 'standard_module' [{p}, {n}] outside "
                f"[1, {MAX_P}] x [1, {MAX_N}]"
            )
        return hilbmod.standard_module(p, n)
    _object(obj, "module payload", ("algebra", "dim", "action", "inner"))
    return hilbmod.HilbertModule(
        algebra_from_json(obj["algebra"]),
        json_int(obj["dim"], "module payload: 'dim'", 1),
        _tensor_from_json(obj["action"], 3, "module payload.action"),
        _tensor_from_json(obj["inner"], 3, "module payload.inner"),
    )


def group_order(family: str, size: int) -> int:
    """Order of ``hilbmod.cyclic_group(size)`` or ``hilbmod.symmetric_group(size)``.

    Raises ``BoundsError`` outside ``[1, hilbmod.MAX_GROUP_ORDER]``.  A symmetric
    size above the bound is refused before ``size!`` is formed (n! >= n).
    """
    bound = hilbmod.MAX_GROUP_ORDER
    if family not in ("cyclic", "symmetric"):
        raise BoundsError(f"unknown group family '{family}'")
    if 0 <= size <= bound:
        order = size if family == "cyclic" else math.factorial(size)
        if 1 <= order <= bound:
            return order
    raise BoundsError(f"group {family}:{size} has order outside [1, {bound}]")


def _index_table(value, shape: tuple, name: str) -> np.ndarray:
    try:
        table = np.asarray(value)
    except ValueError:  # ragged nesting
        table = None
    if table is None or table.shape != shape or table.dtype.kind not in "iu":
        raise ParseError(f"group payload: '{name}' must be an integer table of shape {shape}")
    return table.astype(np.int64)


def group_from_json(obj) -> hilbmod.FiniteGroup:
    family = _tag(obj, ("cyclic", "symmetric"))
    if family:
        _object(obj, "group payload", (family,))
        size = json_int(obj[family], f"group payload: '{family}'")
        group_order(family, size)
        return hilbmod.cyclic_group(size) if family == "cyclic" else hilbmod.symmetric_group(size)
    _object(obj, "group payload", ("order", "mult", "inv", "e"))
    order = json_int(obj["order"], "group payload: 'order'", 1)
    if order > hilbmod.MAX_GROUP_ORDER:
        raise BoundsError(f"group order {order} outside [1, {hilbmod.MAX_GROUP_ORDER}]")
    return hilbmod.FiniteGroup(
        order,
        _index_table(obj["mult"], (order, order), "mult"),
        json_int(obj["e"], "group payload: 'e'"),
        _index_table(obj["inv"], (order,), "inv"),
    )


def unitary_rep_from_json(
    group: hilbmod.FiniteGroup, obj, what: str = "unitary representation payload"
) -> hilbmod.UnitaryRep:
    """``{"trivial": dim}``, ``{"regular": true}`` or explicit ``space_dim`` and
    ``mats``, one matrix per group element; ``ParseError`` naming ``what``."""
    form = _tag(obj, ("trivial", "regular"))
    if form == "trivial":
        _object(obj, what, ("trivial",))
        dim = json_int(obj["trivial"], f"{what}: 'trivial'")
        if dim > MAX_SPACE_DIM:
            raise BoundsError(f"{what}: 'trivial' dimension {dim} outside [0, {MAX_SPACE_DIM}]")
        return hilbmod.trivial_rep(group, dim)
    if form == "regular":
        _object(obj, what, ("regular",))
        if obj["regular"] is not True:
            raise ParseError(f"{what}: 'regular' must be true, got {obj['regular']!r:.60}")
        return hilbmod.regular_rep(group)
    _object(obj, what, ("space_dim", "mats"))
    if not isinstance(obj["mats"], list):
        raise ParseError(f"{what}: 'mats' must be a list")
    mats = [mat_from_json(m, f"{what}.mats[{index}]") for index, m in enumerate(obj["mats"])]
    if len(mats) != group.order:
        raise ParseError(f"{what}: {len(mats)} matrices for group of order {group.order}")
    space_dim = json_int(obj["space_dim"], f"{what}: 'space_dim'")
    if any(m.shape != (space_dim, space_dim) for m in mats):
        raise ParseError(f"{what}: 'mats' must be {space_dim}x{space_dim}")
    return hilbmod.UnitaryRep(group, space_dim, np.stack(mats))


def validate_scenario(data: dict) -> None:
    _object(data, "scenario", ("schema", "kind"), ("seed", "tolerance", "generate", "objects"))
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
    sizes = ("p", "n", "amplification")
    _object(payload, "scenario.generate", sizes, ("group",))
    if seed is None:
        raise ParseError("scenario: generated scenarios need a 'seed'")
    p, n, amplification = (
        json_int(payload[name], f"scenario.generate: '{name}'", 1) for name in sizes
    )
    check_generator_bounds(p, n, amplification)
    if "group" in payload:
        group = group_from_json(payload["group"])
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
    if not hilbmod.same_structure(hilbmod.standard_module(p, n), module):
        raise ValidationError("concrete maps need the standard module structure")
    return p, n


def _resolve_cp_map(payload, module: hilbmod.HilbertModule) -> cpmaps.ModuleCPMap:
    where = "scenario.objects.cp_map"
    if _tag(payload, ("concrete",)):
        _object(payload, where, ("concrete",))
        p, n = _standard_dims(module)
        rep = hilbmod.concrete_representation(p, n)
        return cpmaps.cp_from_representation(rep, nk.eye(n), nk.eye(p))
    _object(payload, where, ("images", "companion"))
    rep = representation_from_json(module.algebra, payload["companion"], f"{where}.companion")
    companion = cpmaps.CPMapAlgebra(module.algebra, rep.space_dim, rep.images)
    keys = [str(i) for i in range(module.dim)]
    _object(payload["images"], f"{where}.images", keys)
    images = [mat_from_json(payload["images"][key], f'{where}.images."{key}"') for key in keys]
    if len({m.shape for m in images}) > 1:
        raise ParseError("cp_map: images differ in shape")
    return cpmaps.ModuleCPMap(module, np.stack(images), companion)


def _resolve_system(payload) -> hilbmod.ModuleDynamicalSystem:
    where = "scenario.objects.system"
    if _tag(payload, ("standard_action",)):
        _object(payload, where, ("standard_action",))
        inner = payload["standard_action"]
        _object(inner, f"{where}.standard_action", ("group", "gamma", "delta"))
        group = group_from_json(inner["group"])
        gamma = unitary_rep_from_json(group, inner["gamma"], "gamma")
        delta = unitary_rep_from_json(group, inner["delta"], "delta")
        return hilbmod.standard_action(group, gamma, delta)
    _object(payload, where, ("group", "module", "eta", "alpha"))
    group = group_from_json(payload["group"])
    module = module_from_json(payload["module"])
    eta = _tensor_from_json(payload["eta"], 3, f"{where}.eta")
    alpha = _tensor_from_json(payload["alpha"], 3, f"{where}.alpha")
    return hilbmod.ModuleDynamicalSystem(group, module, eta, alpha)


def _resolve_objects(data: dict, kind: str) -> tuple:
    payload = data["objects"]
    if kind in ("dilate-covariant", "crossed") or _tag(payload, ("system",)):
        _object(payload, "scenario.objects", ("system", "cp_map", "u", "u_prime"))
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
            return unitary_rep_from_json(system.group, rep_payload, name)

        u = _target(payload["u"], "u")
        u_prime = _target(payload["u_prime"], "u_prime")
        cov = cpmaps.CovariantCPMap(phi, system, u, u_prime)
        return phi, cov
    _object(payload, "scenario.objects", ("module", "cp_map"))
    module = module_from_json(payload["module"])
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
        seed = json_int(seed_override, "--seed")
    elif data.get("seed") is not None:
        seed = json_int(data["seed"], "scenario: 'seed'")
    else:
        seed = None
    if tol_override is not None:
        tolerance = json_positive(tol_override, "--tol")
    else:
        tolerance = json_positive(data.get("tolerance", DEFAULT_TOL), "scenario: 'tolerance'")
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
    json_int(seed, "seed")
    json_positive(tolerance, "tolerance")
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
    group_order(family, size)
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

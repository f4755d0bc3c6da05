"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -q -s`` to see the verdict lines.
Every tolerance is fixed here; nothing is calibrated at run time.  The
dimension oracle rebuilds Gram matrices with element arithmetic and plain
eigendecompositions, independently of the construction code.
"""

import json

import numpy as np
import pytest

from covstine import cli, cpmaps, crossed, cstar, hilbmod, stinespring as st
from covstine import numkernel as nk

TOL = 1e-8
RANK_TOL = 1e-10

PLAIN_CONFIGS = [
    (1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 2, 1), (1, 3, 2),
    (3, 1, 2), (3, 2, 1), (2, 3, 1), (2, 2, 2), (4, 2, 1),
]

COVARIANT_CONFIGS = [
    ("cyclic", 2, 1, 2, 1), ("cyclic", 2, 2, 2, 2), ("cyclic", 2, 2, 1, 2),
    ("cyclic", 2, 1, 3, 2), ("cyclic", 4, 1, 2, 1), ("cyclic", 4, 2, 2, 1),
    ("cyclic", 4, 1, 4, 1), ("cyclic", 4, 1, 2, 2), ("symmetric", 3, 1, 2, 1),
    ("symmetric", 3, 1, 3, 2), ("symmetric", 3, 2, 2, 1), ("symmetric", 3, 1, 1, 6),
]

CROSSED_CONFIGS = [
    ("cyclic", 2, 1, 2, 2), ("cyclic", 2, 2, 2, 1), ("cyclic", 4, 1, 2, 1),
    ("cyclic", 4, 2, 1, 2), ("symmetric", 3, 1, 2, 1), ("symmetric", 3, 2, 2, 1),
]


def report(number: int, passed: bool, text: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:2d} [{verdict}] {text}", flush=True)


def make_group(family: str, size: int) -> hilbmod.FiniteGroup:
    return hilbmod.cyclic_group(size) if family == "cyclic" else hilbmod.symmetric_group(size)


def make_system(family, size, p, n, seed) -> hilbmod.ModuleDynamicalSystem:
    group = make_group(family, size)
    gamma = hilbmod.seeded_rep(group, p, np.random.default_rng((seed, 1)))
    delta = hilbmod.seeded_rep(group, n, np.random.default_rng((seed, 2)))
    return hilbmod.standard_action(group, gamma, delta)


def oracle_dims(phi: cpmaps.ModuleCPMap) -> tuple[int, int]:
    """Brute-force Gram ranks via element products and plain eigh."""
    algebra = phi.module.algebra
    n_dim, h = algebra.dim, phi.companion.space_dim
    eye = np.eye(n_dim)
    gram = np.zeros((n_dim * h, n_dim * h), dtype=complex)
    for k in range(n_dim):
        a_star = cstar.AlgebraElement.from_coords(algebra, eye[k]).star()
        for l in range(n_dim):
            b = cstar.AlgebraElement.from_coords(algebra, eye[l])
            gram[k * h : (k + 1) * h, l * h : (l + 1) * h] = phi.companion.apply(
                (a_star * b).coords()
            )

    def lam_rank(matrix):
        if matrix.size == 0:
            return 0
        values = np.linalg.eigvalsh((matrix + matrix.conj().T) / 2.0)[::-1]
        cutoff = max(RANK_TOL * max(float(values[0]), 0.0), 1e-12)
        return int(np.count_nonzero(values > cutoff))

    dim_k = phi.space_dims[1]
    span = phi.images.transpose(1, 0, 2).reshape(dim_k, -1)
    return lam_rank(gram), lam_rank(span @ span.conj().T)


@pytest.fixture(scope="module")
def plain_instances():
    instances = []
    for index in range(200):
        p, n, m = PLAIN_CONFIGS[index % len(PLAIN_CONFIGS)]
        phi, _ = cpmaps.random_module_cp(p, n, m, seed=index)
        dilation = st.dilate_module_cp(phi)
        cert = st.verify_dilation(phi, dilation, tol=TOL)
        instances.append((phi, dilation, cert))
    return instances


@pytest.fixture(scope="module")
def covariant_instances():
    instances = []
    for index in range(100):
        family, size, p, n, m = COVARIANT_CONFIGS[index % len(COVARIANT_CONFIGS)]
        system = make_system(family, size, p, n, seed=index)
        cov, witness = cpmaps.random_covariant_cp(system, m, seed=index)
        dilation = st.dilate_covariant(cov)
        cert = st.verify_dilation(cov, dilation, tol=TOL)
        instances.append((cov, witness, dilation, cert))
    return instances


@pytest.fixture(scope="module")
def crossed_instances():
    instances = []
    for index in range(50):
        family, size, p, n, m = CROSSED_CONFIGS[index % len(CROSSED_CONFIGS)]
        system = make_system(family, size, p, n, seed=1000 + index)
        cov, witness = cpmaps.random_covariant_cp(system, m, seed=1000 + index)
        dilation = st.dilate_covariant(cov)
        instances.append((cov, witness, dilation))
    return instances


def test_criterion_1_reconstruction(plain_instances):
    """Minimal dilations reconstruct the map and satisfy both rank conditions."""
    worst = 0.0
    failures = []
    for index, (phi, dilation, cert) in enumerate(plain_instances):
        residual = max(
            cert.residuals["reconstruction"], cert.residuals["representation_identity"]
        )
        worst = max(worst, residual)
        ranks_ok = (
            cert.ranks["range_density"][0] == cert.ranks["range_density"][1]
            and cert.ranks["corange_density"][0] == cert.ranks["corange_density"][1]
        )
        if residual > TOL or not ranks_ok:
            failures.append(index)
    ok = not failures
    report(1, ok, f"dilation reconstruction on 200 seeded maps: worst residual "
                  f"{worst:.2e} (tol {TOL:.0e}), rank failures {failures}")
    assert ok


def test_criterion_2_dimension_oracle(plain_instances, covariant_instances):
    """Dilation dimensions equal independently eigendecomposed Gram ranks."""
    failures = []
    checked = 0
    for phi, dilation, _ in plain_instances:
        expected = oracle_dims(phi)
        got = (dilation.gns.dim, dilation.dim_codomain)
        checked += 1
        if got != expected:
            failures.append((checked, got, expected))
    for cov, _, dilation, _ in covariant_instances:
        expected = oracle_dims(cov.base)
        got = (dilation.base.gns.dim, dilation.base.dim_codomain)
        checked += 1
        if got != expected:
            failures.append((checked, got, expected))
    ok = not failures
    report(2, ok, f"dimension oracle on {checked} instances: mismatches {failures[:3]}")
    assert ok


def test_criterion_3_uniqueness_roundtrip(plain_instances, covariant_instances):
    """Seeded conjugations are recovered and every intertwining identity holds."""
    worst = 0.0
    failures = []
    cases = [(phi, dil, None) for phi, dil, _ in plain_instances[:50]]
    cases += [(cov, dil, cov) for cov, _, dil, _ in covariant_instances[:50]]
    for index, (_, dilation, cov) in enumerate(cases):
        base = dilation.base if cov is not None else dilation
        rng = np.random.default_rng((index, 77))
        r1 = nk.haar_unitary(rng, base.gns.dim)
        r2 = nk.haar_unitary(rng, base.dim_codomain)
        alt = st.AltDilation(
            np.einsum("ab,ibc,dc->iad", r2, base.images, np.conj(r1)),
            r1 @ base.gns.V,
            r2 @ base.W,
            v=(
                hilbmod.UnitaryRep(
                    cov.system.group, base.gns.dim,
                    np.stack([r1 @ mat @ r1.conj().T for mat in dilation.v.mats]),
                )
                if cov is not None else None
            ),
            w=(
                hilbmod.UnitaryRep(
                    cov.system.group, base.dim_codomain,
                    np.stack([r2 @ mat @ r2.conj().T for mat in dilation.w.mats]),
                )
                if cov is not None else None
            ),
        )
        result = st.uniqueness_intertwiners(dilation, alt, tol=TOL)
        phase1 = result.U1 * np.exp(-1j * np.angle(np.vdot(r1[:, :1], result.U1[:, :1]))) \
            if base.gns.dim else result.U1
        phase2 = result.U2 * np.exp(-1j * np.angle(np.vdot(r2[:, :1], result.U2[:, :1]))) \
            if base.dim_codomain else result.U2
        residual = max(
            result.max_residual,
            nk.maxabs(phase1 - r1),
            nk.maxabs(phase2 - r2),
        )
        worst = max(worst, residual)
        if residual > TOL:
            failures.append(index)
    ok = not failures
    report(3, ok, f"uniqueness round-trip on 100 conjugated dilations: worst "
                  f"residual {worst:.2e} (tol {TOL:.0e}), failures {failures}")
    assert ok


def test_criterion_4_covariant_dilation(covariant_instances):
    """Covariant dilations satisfy all five conditions and the covariant identity."""
    names = (
        "reconstruction", "intertwine_V", "intertwine_W", "covariant_representation",
        "domain_unitaries_group_law", "domain_unitaries_unitarity",
        "codomain_unitaries_group_law", "codomain_unitaries_unitarity",
    )
    worst = 0.0
    failures = []
    for index, (_, _, _, cert) in enumerate(covariant_instances):
        residual = max(cert.residuals[name] for name in names)
        ranks_ok = all(
            cert.ranks[name][0] == cert.ranks[name][1]
            for name in ("range_density", "corange_density")
        )
        worst = max(worst, residual)
        if residual > TOL or not ranks_ok:
            failures.append(index)
    ok = not failures
    report(4, ok, f"covariant dilation on 100 instances over Z2/Z4/S3: worst "
                  f"residual {worst:.2e} (tol {TOL:.0e}), failures {failures}")
    assert ok


def test_criterion_5_companion_covariance(covariant_instances):
    """Companion data passes the algebra-level covariance checks."""
    worst = 0.0
    failures = []
    for index, (_, _, _, cert) in enumerate(covariant_instances):
        residual = max(
            cert.residuals["companion_covariance"],
            cert.residuals["companion_covariant_rep"],
        )
        worst = max(worst, residual)
        if residual > TOL:
            failures.append(index)
    ok = not failures
    report(5, ok, f"companion covariance on 100 instances: worst residual "
                  f"{worst:.2e} (tol {TOL:.0e}), failures {failures}")
    assert ok


def test_criterion_6_induced_crossed_map(crossed_instances):
    """The induced map satisfies its defining identity and factorization."""
    worst = 0.0
    failures = []
    for index, (cov, _, dilation) in enumerate(crossed_instances):
        induced = crossed.induced_cp(cov, dilation)
        residual = max(induced.identity_residual, induced.factorization_residual)
        worst = max(worst, residual)
        if residual > TOL:
            failures.append(index)
    ok = not failures
    report(6, ok, f"induced crossed-product maps on 50 instances: worst residual "
                  f"{worst:.2e} (tol {TOL:.0e}), failures {failures}")
    assert ok


def test_criterion_7_integral_minimality(crossed_instances):
    """The integral form of the dilation is minimal for the induced map."""
    failures = []
    for index, (cov, _, dilation) in enumerate(crossed_instances):
        induced = crossed.induced_cp(cov, dilation)
        if not induced.minimal or induced.factorization_residual > TOL:
            failures.append(index)
    ok = not failures
    report(7, ok, f"integral-form minimality on 50 instances: rank mismatches {failures}")
    assert ok


def test_criterion_8_integral_nondegeneracy(crossed_instances):
    """Integral forms of nondegenerate covariant representations stay nondegenerate."""
    failures = []
    for index, (cov, witness, _) in enumerate(crossed_instances):
        _, result = crossed.integral_form(cov.system, witness.rep, witness.v, witness.w)
        if result.nondegenerate is not True:
            failures.append(index)
    ok = not failures
    report(8, ok, f"integral-form nondegeneracy on 50 representations: failures {failures}")
    assert ok


def test_criterion_9_degenerate_edges():
    """Zero maps, the trivial group, scalar modules and rank-deficient Grams."""
    problems = []

    # zero map over a 2 x 2 module
    module = hilbmod.standard_module(2, 2)
    zero = cpmaps.ModuleCPMap(
        module,
        np.zeros((4, 3, 2)),
        cpmaps.CPMapAlgebra(module.algebra, 2, np.zeros((4, 2, 2))),
    )
    cert = st.verify_dilation(zero, st.dilate_module_cp(zero), tol=TOL)
    if not cert.passed or cert.dims["H_dilation"] != 0 or cert.dims["K_dilation"] != 0:
        problems.append("zero map")

    # scalar module with the trivial group, end to end through the crossed layer
    group = hilbmod.trivial_group()
    sys1 = hilbmod.standard_action(
        group, hilbmod.trivial_rep(group, 1), hilbmod.trivial_rep(group, 1)
    )
    phi1 = cpmaps.cp_from_representation(
        hilbmod.concrete_representation(1, 1), nk.eye(1), nk.eye(1)
    )
    cov1 = cpmaps.CovariantCPMap(
        phi1, sys1, hilbmod.trivial_rep(group, 1), hilbmod.trivial_rep(group, 1)
    )
    dil1 = st.dilate_covariant(cov1)
    if not st.verify_dilation(cov1, dil1, tol=TOL).passed:
        problems.append("scalar trivial-group dilation")
    induced = crossed.induced_cp(cov1, dil1)
    if induced.max_residual > TOL:
        problems.append("trivial-group crossed map")
    if not induced.minimal:
        problems.append("trivial-group integral minimality")

    # rank-deficient Gram: right multiplication by a singular matrix
    module12 = hilbmod.standard_module(1, 2)
    t_mat = np.diag([1.0, 0.0]).astype(complex)
    images = np.stack([b @ t_mat for b in hilbmod.standard_basis_matrices(1, 2)])
    companion = cpmaps.induced_algebra_cp(images, module12, 2)
    deficient = cpmaps.ModuleCPMap(module12, images, companion)
    dil_deficient = st.dilate_module_cp(deficient)
    cert_deficient = st.verify_dilation(deficient, dil_deficient, tol=TOL)
    if not cert_deficient.passed:
        problems.append("rank-deficient Gram")
    if (dil_deficient.gns.dim, dil_deficient.dim_codomain) != oracle_dims(deficient):
        problems.append("rank-deficient dims vs oracle")

    # covariant zero map
    sysz = hilbmod.standard_action(
        hilbmod.cyclic_group(2),
        hilbmod.trivial_rep(hilbmod.cyclic_group(2), 1),
        hilbmod.trivial_rep(hilbmod.cyclic_group(2), 2),
    )
    zero_cov = cpmaps.CovariantCPMap(
        cpmaps.ModuleCPMap(
            sysz.module,
            np.zeros((2, 1, 2)),
            cpmaps.CPMapAlgebra(sysz.module.algebra, 2, np.zeros((4, 2, 2))),
        ),
        sysz,
        hilbmod.trivial_rep(sysz.group, 2),
        hilbmod.trivial_rep(sysz.group, 1),
    )
    dil_zero = st.dilate_covariant(zero_cov)
    if not st.verify_dilation(zero_cov, dil_zero, tol=TOL).passed:
        problems.append("covariant zero map")

    ok = not problems
    report(9, ok, f"degenerate-edge suite: problems {problems}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    """Identical scenario, seed and version give byte-identical certificates."""
    from pathlib import Path

    bundled = Path(cli.__file__).parent / "scenarios"
    paths = [str(bundled / name) for name in
             ("identity.json", "z2_concrete.json", "s3_crossed.json")]
    generated = [
        ("dilate", 2, 2, 2, 1, None),
        ("dilate-covariant", 1, 2, 2, 7, "cyclic:4"),
        ("crossed", 1, 2, 1, 3, "cyclic:2"),
        ("uniqueness", 2, 2, 2, 4, None),
        ("verify", 1, 2, 2, 5, "symmetric:3"),
    ]
    for kind, p, n, m, seed, group in generated:
        scenario = cli.generate_scenario(kind, p, n, m, seed, group)
        path = tmp_path / f"{kind}.json"
        path.write_bytes(cli.canonical_bytes(scenario))
        paths.append(str(path))
    mismatches = []
    for path in paths:
        first = cli.run_scenario(path).canonical()
        second = cli.run_scenario(path).canonical()
        if first != second:
            mismatches.append(path)
        if not json.loads(first)["pass"]:
            mismatches.append(path + " (failed checks)")
    ok = not mismatches
    report(10, ok, f"determinism on {len(paths)} scenarios: mismatches {mismatches}")
    assert ok

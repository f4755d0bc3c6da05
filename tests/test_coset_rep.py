"""The vectorized coset permutation representation against the loop that
labels cosets in order of first appearance, and the candidates cached per
group against the per-call build: both fix the generated representations
and so the certificate bytes."""

import numpy as np
import pytest

from covstine import cli, hilbmod
from covstine import numkernel as nk


def loop_coset_rep(group, t):
    subgroup = set(hilbmod.cyclic_subgroup(group, t))
    coset_of, cosets = {}, 0
    for s in range(group.order):
        members = frozenset(int(group.mult[s, h]) for h in subgroup)
        key = min(members)
        if key not in coset_of:
            coset_of[key] = cosets
            cosets += 1
        for member in members:
            coset_of.setdefault(member, coset_of[key])
    mats = np.zeros((group.order, cosets, cosets), dtype=np.complex128)
    for g in range(group.order):
        for s in range(group.order):
            mats[g, coset_of[int(group.mult[g, s])], coset_of[s]] = 1.0
    return mats


@pytest.mark.parametrize(
    "group",
    [hilbmod.trivial_group(), hilbmod.cyclic_group(6), hilbmod.symmetric_group(3),
     hilbmod.symmetric_group(4)],
    ids=["trivial", "Z6", "S3", "S4"],
)
def test_coset_rep_matches_the_loop_labelling(group):
    for t in range(group.order):
        rep = hilbmod.coset_permutation_rep(group, t)
        expected = loop_coset_rep(group, t)
        assert rep.dim == expected.shape[1]
        np.testing.assert_array_equal(rep.mats, expected)


def old_candidates(group):
    """The summands ``seeded_rep`` drew from when it rebuilt them on every call."""
    candidates = {}
    for t in range(group.order):
        block = hilbmod.coset_permutation_rep(group, t)
        candidates.setdefault(block.dim, block)
    return candidates


def old_seeded_rep(group, dim, rng):
    candidates = old_candidates(group)
    sizes = sorted(candidates)
    rep, remaining = None, dim
    while remaining:
        fitting = [s for s in sizes if s <= remaining]
        if fitting:
            block = candidates[fitting[int(rng.integers(0, len(fitting)))]]
        else:
            block = hilbmod.trivial_rep(group, remaining)
        rep = block if rep is None else hilbmod.direct_sum_rep(rep, block)
        remaining -= block.dim
    return hilbmod.conjugate_rep(rep, nk.haar_unitary(rng, dim))


@pytest.mark.parametrize(
    "group",
    [hilbmod.trivial_group(), hilbmod.cyclic_group(6), hilbmod.symmetric_group(3),
     hilbmod.symmetric_group(4)],
    ids=["trivial", "Z6", "S3", "S4"],
)
def test_cached_coset_candidates_match_the_per_call_build(group):
    expected = old_candidates(group)
    assert list(group.coset_reps) == list(expected)
    for dim, rep in expected.items():
        np.testing.assert_array_equal(group.coset_reps[dim].mats, rep.mats)
    for dim in (1, 2, 5, 8):
        new = hilbmod.seeded_rep(group, dim, np.random.default_rng(dim))
        old = old_seeded_rep(group, dim, np.random.default_rng(dim))
        assert new.mats.tobytes() == old.mats.tobytes()
    assert group.coset_reps is group.coset_reps  # built once per group


def test_candidates_are_built_once_per_scenario(tmp_path, monkeypatch):
    """A generated S4 scenario draws four seeded representations from one group."""
    calls = []
    original = hilbmod.coset_permutation_rep

    def counting(group, t):
        calls.append(t)
        return original(group, t)

    monkeypatch.setattr(hilbmod, "coset_permutation_rep", counting)
    path = tmp_path / "s4.json"
    scenario = cli.generate_scenario("crossed", 1, 2, 1, 11, "symmetric:4")
    path.write_bytes(cli.canonical_bytes(scenario))
    cli.resolve_scenario(cli.load_scenario(str(path)), str(path))
    assert sorted(calls) == list(range(24))

"""The vectorized coset permutation representation against the loop that
labels cosets in order of first appearance, the candidates cached per group
against the per-call build (both fix the generated representations and so
the certificate bytes), and the symmetric group tables against the product
loop."""

import itertools

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
    assert list(group.coset_candidates) == list(expected)
    for dim, rep in expected.items():
        built = hilbmod.coset_rep(group, group.coset_candidates[dim])
        np.testing.assert_array_equal(built.mats, rep.mats)
    for dim in (1, 2, 5, 8):
        new = hilbmod.seeded_rep(group, dim, np.random.default_rng(dim))
        old = old_seeded_rep(group, dim, np.random.default_rng(dim))
        assert new.mats.tobytes() == old.mats.tobytes()
    assert group.coset_candidates is group.coset_candidates  # built once per group


def test_candidates_are_built_once_per_process(tmp_path, monkeypatch):
    """A group labels the cosets of one subgroup per coset count, once: the named
    groups are built when the module loads, so generated S4 scenarios label none."""
    s4 = hilbmod.symmetric_group(4)
    firsts = {}
    for t in range(24):  # the first t of each coset count
        firsts.setdefault(loop_coset_rep(s4, t).shape[1], t)
    calls = []
    original = hilbmod.coset_labels

    def counting(group, t):
        calls.append(t)
        return original(group, t)

    monkeypatch.setattr(hilbmod, "coset_labels", counting)
    for seed in (11, 12):
        path = tmp_path / f"s4-{seed}.json"
        scenario = cli.generate_scenario("crossed", 1, 2, 1, seed, "symmetric:4")
        path.write_bytes(cli.canonical_bytes(scenario))
        cli.resolve_scenario(cli.load_scenario(str(path)), str(path))
    assert calls == []
    fresh = hilbmod.FiniteGroup(24, s4.mult, s4.identity, s4.inv)
    assert list(fresh.coset_candidates) == list(s4.coset_candidates)
    assert sorted(calls) == sorted(firsts.values()) == [0, 1, 3, 9]
    assert hilbmod.symmetric_group(4) is s4 and not s4.mult.flags.writeable


def loop_symmetric_group(n):
    """S_n tabulated one product at a time, elements in lexicographic order."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    mult = [[index[tuple(pa[pb[x]] for x in range(n))] for pb in perms] for pa in perms]
    inv = [index[tuple(sorted(range(n), key=pa.__getitem__))] for pa in perms]
    return mult, inv, index[tuple(range(n))]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_symmetric_group_tables_match_the_product_loop(n):
    group = hilbmod.symmetric_group(n)
    mult, inv, identity = loop_symmetric_group(n)
    assert group.mult.tolist() == mult and group.inv.tolist() == inv
    assert group.identity == identity == 0


def test_every_named_group_is_built_when_the_module_loads():
    """The groups a scenario can name come from the cache with their candidates."""
    for size in range(1, hilbmod.MAX_GROUP_ORDER + 1):
        assert "coset_candidates" in vars(hilbmod.cyclic_group(size))
    for size in range(1, 5):
        assert "coset_candidates" in vars(hilbmod.symmetric_group(size))

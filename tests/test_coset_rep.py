"""The vectorized coset permutation representation against the loop that
labels cosets in order of first appearance, which fixes the generated
representations and so the certificate bytes."""

import numpy as np
import pytest

from covstine import hilbmod


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

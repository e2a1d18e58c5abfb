"""Seed derivation against a ``hashlib`` oracle."""

from hypothesis import given
from hypothesis import strategies as st

from lexforge.seeds import derive_seed
from oracles import derive_seed_oracle


@given(st.integers(-(1 << 70), 1 << 70),
       st.lists(st.one_of(st.integers(), st.text(), st.sampled_from(
           ["shuffle", "eval-queries", "盗窃罪", "q-案件-001", "é́", "\U0001F600"])),
           max_size=4))
def test_equals_the_hashlib_digest(root, labels):
    assert derive_seed(root, *labels) == derive_seed_oracle(root, *labels)


def test_known_values():
    """Every seeded artifact depends on these digests; they never change."""
    assert derive_seed(0) == 4066689987807800415
    assert derive_seed(201, "shuffle", 0) == 6533718901352796028
    assert derive_seed(7, "案件", 3) == 14869377765527725386

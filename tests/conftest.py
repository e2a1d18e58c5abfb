import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from lexforge import testkit


@pytest.fixture(scope="session")
def small_spec():
    """300 valid cases plus documents every filter reason code applies to."""
    return testkit.SyntheticSpec(n_cases=300, n_rulings=12, n_short_facts=9,
                                 n_unextractable=5, seed=20)


@pytest.fixture(scope="session")
def small_build(small_spec):
    return testkit.generate_corpus(small_spec)

"""Every test starts with an empty rank-walk memo, so the factorization
counts a test pins are those of a cold call unless the test warms it."""

import pytest

from ginv import decomp


@pytest.fixture(autouse=True)
def _cold_index_memo():
    decomp._INDEX_MEMO.clear()

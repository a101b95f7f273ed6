"""The floor-sum tests, run again on the NumPy kernel.

floor_sum runs the compiled kernel wherever it loads, so the tests of
test_summatory.py and the frozen-value and thread stress tests of
test_gcd_sum.py check that kernel under their own names.  Imported here,
they are collected a second time, and the autouse fixture below sends
every floor_sum call in them to the NumPy kernel, as on a host where no
compiled kernel loads.
"""

import pytest

from gcdsum import summatory

# the tests, and the fixtures they request
from test_gcd_sum import (
    cold_table,
    table_builds,
    test_identity_at_frozen_values_confirmed_by_lemma1,
    test_identity_threads_on_a_cold_table,
)
from test_summatory import (
    test_divisor_summatory_across_recip_x,
    test_divisor_summatory_across_the_float_route_limit,
    test_divisor_summatory_at_max_x_in_bounded_time,
    test_divisor_summatory_batch_matches_each_row,
    test_divisor_summatory_batch_mixes_every_kind_of_row,
    test_divisor_summatory_examples,
    test_divisor_summatory_returns_python_int,
    test_floor_sum_across_chunk_boundaries,
    test_floor_sum_at_every_chunk_edge,
    test_floor_sum_batch_matches_each_row,
    test_floor_sum_chunks_cannot_wrap,
    test_floor_sum_on_both_sides_of_float_x,
    test_folded_and_blocked_routes_agree_random_large,
    test_ragged_remainders_match_python_floor_sums,
    test_tiles_match_per_call_divisor_summatory,
)


@pytest.fixture(autouse=True)
def numpy_kernel(monkeypatch):
    monkeypatch.setattr(summatory, "_compiled_kernel", lambda: None)

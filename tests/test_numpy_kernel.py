"""The floor-sum and lemma1 tests, run again without the compiled library.

floor_sum, divisor_prefix, s_lemma1 and s_identity's table half run the
compiled library wherever it loads, so the tests of test_summatory.py and
the frozen-value, table, fold, lemma1 and thread stress tests of
test_gcd_sum.py check that library under their own names.  Imported here,
they are collected a second time, and the autouse fixture below sends
every call in them to the NumPy kernel, to s_lemma1's Python sum and to
s_identity's NumPy gather and fold, as on a host where no compiled library
loads.  It also empties s_identity's table cache, so that each test builds
its own divisor table with np.cumsum(sieve_tau(limit)) instead of reading
the one the compiled sieve built.
"""

import pytest

from gcdsum import summatory

# the tests, and the fixtures they request
from test_gcd_sum import (
    cold_memo,
    cold_table,
    table_builds,
    test_batched_halves_start_where_the_gather_needs_two_chunks,
    test_identity_at_frozen_values_confirmed_by_lemma1,
    test_identity_matches_s_upto_where_d0_steps_at_the_table_cap,
    test_identity_table_is_the_sieve_prefix_on_a_cold_cache,
    test_identity_threads_on_a_cold_table,
    test_lattice_count_memo_is_bounded,
    test_lemma1_at_squares_and_cubes,
    test_lemma1_matches_its_python_sum,
    test_lemma1_matches_the_oracle_on_a_cold_and_a_warm_memo,
    test_lemma1_matches_the_oracle_to_20000,
    test_lemma1_next_to_10_to_the_12,
    test_lemma1_threads_on_a_cold_memo,
    traced_identity,
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
    test_floor_sum_refuses_rows_of_unequal_length,
    test_folded_and_blocked_routes_agree_random_large,
    test_ragged_remainders_match_python_floor_sums,
    test_short_row_batches_match_per_call_divisor_summatory,
)


@pytest.fixture(autouse=True)
def numpy_kernel(monkeypatch, cold_table):
    monkeypatch.setattr(summatory, "_compiled_kernel", lambda: None)

import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agq import benchmarks, simulator
from agq.agcode import LinearCode, build_onepoint_code, dual, hermitian_dual
from agq.gf import field, quadratic_tower
from agq.linalg import right_nullspace
from agq.simulator import (
    SimConfig,
    SimRun,
    _column_table,
    _decode_batch,
    _draw_chunk,
    _trial_rng,
    encode,
    run_simulation,
    simulate_transmission,
    write_results_csv,
    write_series_csv,
)
from oracles import TabledField, apply_random_errors, decode_word


@pytest.fixture(scope="module")
def code():
    return benchmarks.benchmark_code_8_3()


@functools.cache
def _tabled(p, e, modulus):
    return TabledField(p, e, modulus)


def reference_decode(code, received):
    """The oracle's single-word decoder on `code`'s parity check."""
    F = code.field
    return decode_word(_tabled(F.p, F.e, F.modulus), code.parity_check.tolist(), received)


# ---------------------------------------------------------------------------
# encode


def test_encode_zero_message(code):
    assert not encode(code, [0, 0, 0]).any()


def test_encode_identity_code():
    sat = benchmarks.saturated_code_4_4()
    # saturated generator is a basis of the full space, not necessarily I;
    # build a literal identity code instead
    ident = LinearCode.from_generator(field(2, 2), np.eye(4, dtype=np.int64))
    msg = np.array([1, 2, 3, 0])
    assert np.array_equal(encode(ident, msg), msg)
    assert encode(sat, [0, 0, 0, 0]).shape == (4,)


def test_encode_length_check(code):
    with pytest.raises(ValueError):
        encode(code, [1, 2])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_encode_is_linear(m1, m2):
    code = benchmarks.benchmark_code_8_3()
    F = code.field
    lhs = encode(code, F.vadd(np.array(m1), np.array(m2)))
    rhs = F.vadd(encode(code, m1), encode(code, m2))
    assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# streams


def numpy_draw(seed, rate_index, trial, k, n, q):
    """One trial's draws from numpy's own Philox Generator."""
    key = np.array([seed, ((rate_index + 1) << 44) | trial], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    message = rng.integers(0, q, size=k) if k else np.zeros(0, dtype=np.int64)
    return message, rng.random(n), rng.integers(0, q - 1, size=n)


def assert_chunk_matches_numpy(seed, rate_index, lo, hi, k, n, q):
    drawn = _draw_chunk(seed, rate_index, lo, hi, k, n, q)
    for row, t in enumerate(range(lo, hi)):
        for got, want in zip(drawn, numpy_draw(seed, rate_index, t, k, n, q)):
            assert got[row].dtype == want.dtype
            assert np.array_equal(got[row], want), (seed, rate_index, t, k, n, q)


# (k, n, q): k = 0, odd and even k, GF(2) with no replacement draws, a
# message range that is not a power of two, one-symbol words with odd k
# (their one replacement draw is the buffered half of the last message
# word, and no replacement word follows), a long Hermitian-sized word
STREAM_SHAPES = [(0, 8, 4), (1, 8, 4), (2, 8, 4), (3, 15, 9), (7, 35, 25),
                 (1, 7, 2), (4, 9, 2), (0, 5, 2), (5, 6, 27), (1, 1, 4), (3, 1, 9),
                 (4, 512, 4096)]


def test_vectorised_draw_matches_numpy_streams():
    # 11 shapes x 5 seeds x 200 trials, plus 5 x 20 + 1000 trials of the
    # long word: 12 100 (key, trial) pairs; the seeds include both sides
    # of 2^63 and the largest 64-bit seed
    seeds = [0, 7, 2**62 + 1, 2**63 + 5, 2**64 - 1]
    for i, (k, n, q) in enumerate(STREAM_SHAPES):
        for j, seed in enumerate(seeds):
            lo = (i * 7919 + j * 104729) % 50_000
            trials = 20 if n > 100 else 200
            assert_chunk_matches_numpy(seed, (i + j) % 5, lo, lo + trials, k, n, q)
    assert_chunk_matches_numpy(2**64 - 1, 3, 0, 1000, 4, 512, 4096)


def test_draw_rows_do_not_depend_on_philox_block_size(monkeypatch):
    whole = _draw_chunk(5, 1, 100, 400, 7, 35, 25)
    monkeypatch.setattr(simulator, "PHILOX_BLOCKS", 7)
    parts = _draw_chunk(5, 1, 100, 400, 7, 35, 25)
    for a, b in zip(whole, parts):
        assert np.array_equal(a, b)


KEY_WORDS = [0, 2**63 - 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("key0", KEY_WORDS, ids=hex)
@pytest.mark.parametrize("key1", KEY_WORDS, ids=hex)
def test_philox_words_equal_numpys_raw_stream(key0, key1):
    # both key words at the edges of the uint64 range, so the Weyl key
    # increments between rounds wrap; one key, and 50 keys counting up
    # from key1 (wrapping past 2^64 - 1)
    keys1 = (key1 + np.arange(50, dtype=object)) % 2**64
    for blocks in range(1, 17):
        for ks in (keys1[:1], keys1):
            got = simulator._philox_words(np.full((1, 1), key0, dtype=np.uint64),
                                          np.array(ks, dtype=np.uint64).reshape(-1, 1), blocks)
            assert got.shape == (len(ks), 4 * blocks)
            for row, k1 in zip(got, ks):
                key = np.array([key0, k1], dtype=np.uint64)
                assert np.array_equal(row, np.random.Philox(key=key).random_raw(4 * blocks))


def test_draw_temporaries_are_bounded():
    # a Hermitian q=8 sized chunk: n = 512 over GF(4096); the outputs are
    # 18 MB, while one unblocked Philox pass would hold ~7 MB per array
    import tracemalloc

    tracemalloc.start()
    try:
        drawn = _draw_chunk(3, 0, 0, 2048, 100, 512, 4096)
        outputs, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(a.nbytes for a in drawn) <= outputs
    assert peak - outputs < 8 << 20


def lemire_rejections(seed, rate_index, trial, k, n, q):
    """Whether numpy rejected one of the trial's bounded uint32 draws.

    Up to the first rejection the stream is read in the plain layout:
    message halves, n uniform words, replacement halves.  Lemire's method
    rejects u for range m when (u * m) mod 2^32 < (2^32 - m) mod m.
    """
    key = np.array([seed, ((rate_index + 1) << 44) | trial], dtype=np.uint64)
    msg_words = (k + 1) // 2
    words = np.random.Philox(key=key).random_raw(msg_words + n + (k + n + 1) // 2)
    halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).reshape(-1)
    repl = halves[2 * (msg_words + n):]
    if k % 2:
        repl = np.concatenate([halves[k:k + 1], repl])
    draws = [(halves[:k], q), (repl[:n], q - 1)]
    return any(((u * m) & 0xFFFFFFFF < (2**32 - m) % m).any() for u, m in draws if m > 1)


def test_lemire_rejections_are_redrawn_from_the_reference(monkeypatch):
    # GF(3^10): ranges near 2^16 make real rejections likely in 10^4 trials
    k, n, q, seed = 3, 200, 3**10, 2024
    rejected = [t for t in range(10_000) if lemire_rejections(seed, 0, t, k, n, q)]
    assert rejected, "no trial exercises the rejection redraw"
    redrawn = []
    reference = simulator._reference_draw

    def spy(master_seed, rate_index, trial, *shape):
        redrawn.append(trial)
        return reference(master_seed, rate_index, trial, *shape)

    monkeypatch.setattr(simulator, "_reference_draw", spy)
    drawn = _draw_chunk(seed, 0, 0, 10_000, k, n, q)
    assert set(rejected) <= set(redrawn)
    for t in rejected + redrawn[:20]:
        for got, want in zip(drawn, numpy_draw(seed, 0, t, k, n, q)):
            assert np.array_equal(got[t], want)


def test_seeds_above_2_63_are_distinct_and_warning_free(code):
    # a key given as a Python list is cast through float64 by numpy, which
    # merges seeds >= 2^63 that differ in their low bits
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        a = simulate_transmission(code, 0.3, 500, master_seed=2**63)
        b = simulate_transmission(code, 0.3, 500, master_seed=2**63 + 5)
        simulate_transmission(code, 0.3, 500, master_seed=2**64 - 1)
        first = [_trial_rng(2**63 + d, 0, 0).integers(0, 2**32, size=4).tolist()
                 for d in (0, 5)]
    assert a != b
    assert first[0] != first[1]


def test_reference_stream_below_2_63_is_numpys_list_keyed_stream():
    for seed in (0, 123456789, 2**63 - 1):
        listed = np.random.Generator(np.random.Philox(key=[seed, (3 << 44) | 17]))
        assert np.array_equal(_trial_rng(seed, 2, 17).random(9), listed.random(9))


def test_stream_key_range_is_checked():
    with pytest.raises(ValueError):
        _trial_rng(0, 0, 1 << 44)
    with pytest.raises(ValueError):
        _draw_chunk(0, (1 << 20) - 1, 0, 1, 2, 8, 4)
    with pytest.raises(ValueError):
        _draw_chunk(0, 0, (1 << 44) - 1, (1 << 44) + 1, 2, 8, 4)


# ---------------------------------------------------------------------------
# channel


def test_apply_errors_rate_zero(code):
    rng = _trial_rng(1, 0, 0)
    word = encode(code, [1, 2, 3])
    received, count = apply_random_errors(code.field.order, word, 0.0, rng)
    assert np.array_equal(received, word) and count == 0


def test_apply_errors_rate_one_changes_every_symbol(code):
    word = encode(code, [1, 2, 3])
    for t in range(50):
        received, count = apply_random_errors(code.field.order, word, 1.0, _trial_rng(2, 0, t))
        received = np.array(received)
        assert count == 8
        assert np.all(received != word)
        assert np.all((received >= 0) & (received < 4))


def test_apply_errors_mean_count_within_binomial_band(code):
    # n * rate = 0.8; sigma of the mean over 10^4 trials
    trials, rate, n = 10_000, 0.1, 8
    word = encode(code, [1, 2, 3])
    total = 0
    for t in range(trials):
        _, count = apply_random_errors(code.field.order, word, rate, _trial_rng(3, 0, t))
        total += count
    mean = total / trials
    sigma = (n * rate * (1 - rate) / trials) ** 0.5
    assert abs(mean - n * rate) < 5 * sigma


def test_apply_errors_rejects_bad_rate(code):
    with pytest.raises(ValueError):
        apply_random_errors(code.field.order, encode(code, [0, 0, 0]), 1.5, _trial_rng(0, 0, 0))


def test_replacement_symbols_uniform_over_others(code):
    # every alternative symbol should appear, none equal to the original
    word = np.zeros(8, dtype=np.int64)
    seen = set()
    for t in range(300):
        received, _ = apply_random_errors(code.field.order, word, 1.0, _trial_rng(4, 0, t))
        seen.update(int(v) for v in received)
    assert seen == {1, 2, 3}


# ---------------------------------------------------------------------------
# decoding


def test_decode_valid_codeword_success(code):
    word = encode(code, [2, 1, 3])
    decoded, status = reference_decode(code, word)
    assert status == "success"
    assert np.array_equal(decoded, word)


def test_decode_single_errors_all_corrected(code):
    # exhaustive spot check on one codeword; the full 64x8x3 sweep is in
    # the acceptance suite
    word = encode(code, [1, 0, 2])
    for i in range(8):
        for c in range(4):
            if c == word[i]:
                continue
            received = word.copy()
            received[i] = c
            decoded, status = reference_decode(code, received)
            assert status == "corrected"
            assert np.array_equal(decoded, word)


def test_single_errors_corrected_for_second_code(se33):
    # [15, 2] over GF(9), d = 13 >= 3: all 81 * 15 * 8 = 9720 single-symbol
    # corruptions must decode back to the transmitted codeword
    code15 = build_onepoint_code(se33, 2)
    F = code15.field
    table = _column_table(code15)
    from agq.agcode import iter_codeword_blocks

    for block in iter_codeword_blocks(code15):
        for word in block:
            variants = []
            for i in range(code15.n):
                for c in range(F.order):
                    if c != word[i]:
                        v = word.copy()
                        v[i] = c
                        variants.append(v)
            decoded, statuses = _decode_batch(code15, np.array(variants), table)
            assert (statuses == 1).all()
            assert np.array_equal(decoded, np.tile(word, (len(variants), 1)))


def test_decode_weight_two_and_three_fail(code):
    # d = 5: any word at distance 2 or 3 from a codeword is at distance
    # >= 2 from every codeword, out of reach of single-substitution search
    word = encode(code, [3, 3, 1])
    for positions, symbols in [((0, 1), (1, 2)), ((2, 5, 7), (1, 1, 2))]:
        received = word.copy()
        for i, s in zip(positions, symbols):
            received[i] = (received[i] + s) % 4
        decoded, status = reference_decode(code, received)
        assert status == "failure" and decoded is None


def test_decode_deterministic_tie_break():
    # repetition [2,1] code over GF(4): received (1, a) is at distance 1
    # from both (1,1) and (a,a); position 1 is scanned first, so the
    # substitution at position 1 wins and yields (a, a)
    F = field(2, 2)
    rep = LinearCode.from_generator(F, [[1, 1]])
    decoded, status = reference_decode(rep, np.array([1, 2]))
    assert status == "corrected"
    assert decoded == [2, 2]


def test_decode_full_space_always_success():
    sat = benchmarks.saturated_code_4_4()
    decoded, status = reference_decode(sat, np.array([1, 2, 3, 0]))
    assert status == "success"


def test_decode_zero_code_corrects_weight_one(se33):
    zero_code = build_onepoint_code(se33, -1)
    received = np.zeros(15, dtype=np.int64)
    received[4] = 7
    decoded, status = reference_decode(zero_code, received)
    assert status == "corrected"
    assert not any(decoded)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_batch_decoder_matches_reference(seed):
    code = benchmarks.benchmark_code_8_3()
    rng = np.random.default_rng(seed)
    words = rng.integers(0, 4, size=(32, 8)).astype(np.int64)
    decoded, statuses = _decode_batch(code, words, _column_table(code))
    names = {0: "success", 1: "corrected", 2: "failure"}
    for word, dec, status in zip(words, decoded, statuses):
        ref_word, ref_status = reference_decode(code, word)
        assert names[int(status)] == ref_status
        if ref_status != "failure":
            assert np.array_equal(dec, ref_word)


def code_with_parity_check(F, H):
    H = np.asarray(H, dtype=np.int64)
    return LinearCode(field=F, generator=right_nullspace(F, H), parity_check=H)


def test_dual_rejects_a_redundant_parity_check():
    # a repeated row: H has 3 rows but the code has n - k = 2, so the rows
    # of H are no basis of the dual and cannot be its generator
    F = field(2, 2)
    code = code_with_parity_check(F, [[1, 2, 0, 1], [1, 2, 0, 1], [0, 1, 3, 2]])
    code = dataclasses.replace(code, tower=quadratic_tower(2))
    assert (code.n, code.k, len(code.parity_check)) == (4, 2, 3)
    for make in (dual, hermitian_dual):
        with pytest.raises(ValueError, match="not a basis"):
            make(code)


def assert_batch_matches_reference(code, words):
    decoded, statuses = _decode_batch(code, words, _column_table(code))
    names = {0: "success", 1: "corrected", 2: "failure"}
    for word, dec, status in zip(words, decoded, statuses):
        ref_word, ref_status = reference_decode(code, word)
        assert names[int(status)] == ref_status
        if ref_status != "failure":
            assert np.array_equal(dec, ref_word)
    return decoded, statuses


def test_batch_decoder_first_of_duplicate_columns_wins():
    # GF(4): column 0 is zero, columns 1, 2 and 4 are parallel (2 = a * 1,
    # 4 = 1), column 3 stands alone; every word of length 5 is decoded
    F = field(2, 2)
    H = [[0, 1, 2, 0, 1],
         [0, 1, 2, 1, 1]]
    code = code_with_parity_check(F, H)
    words = np.array(np.meshgrid(*[range(4)] * 5, indexing="ij")).reshape(5, -1).T
    decoded, statuses = assert_batch_matches_reference(code, words)
    changed = (decoded != words).any(axis=1) & (statuses == 1)
    # the parallel class {1, 2, 4} is always fixed at position 1
    positions = set(np.nonzero(decoded[changed] != words[changed])[1].tolist())
    assert positions == {1, 3}


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (5, 1)]), st.integers(0, 2**32 - 1))
def test_batch_decoder_matches_reference_with_repeated_columns(fe, seed):
    F = field(*fe)
    rng = np.random.default_rng(seed)
    r = int(rng.integers(1, 4))
    base = rng.integers(0, F.order, size=(r, 3))
    # columns: random, scaled repeats of earlier ones, and zero columns
    cols = [base[:, 0], np.zeros(r, dtype=np.int64), base[:, 1]]
    for _ in range(4):
        src = cols[int(rng.integers(0, len(cols)))]
        cols.append(F.vmul(int(rng.integers(1, F.order)), src))
    cols.append(base[:, 2])
    H = np.stack(cols, axis=1)
    code = code_with_parity_check(F, H)
    words = rng.integers(0, F.order, size=(24, H.shape[1]))
    assert_batch_matches_reference(code, words)


# ---------------------------------------------------------------------------
# transmission statistics


@pytest.mark.parametrize("rate_index,rate", [(0, 0.1), (3, 0.3)])
def test_transmission_matches_literal_trials(code, rate_index, rate):
    # each trial read literally from its own numpy stream: message, then the
    # oracle channel, then the oracle decoder
    trials, seed, q = 300, 31, code.field.order
    successes = miscorrected = total_errors = 0
    for t in range(trials):
        rng = _trial_rng(seed, rate_index, t)
        sent = encode(code, rng.integers(0, q, size=code.k))
        received, count = apply_random_errors(q, sent, rate, rng)
        decoded, status = reference_decode(code, received)
        total_errors += count
        if status != "failure":
            successes += 1
            miscorrected += decoded != sent.tolist()
    res = simulate_transmission(code, rate, trials, master_seed=seed, rate_index=rate_index,
                                chunk_size=128)
    assert (res.successes, res.miscorrected, res.total_errors) == (
        successes, miscorrected, total_errors)
    assert res.uncorrectable == trials - successes


def test_rate_zero_exact(code):
    res = simulate_transmission(code, 0.0, 500, master_seed=11)
    assert res.success_rate == 1.0
    assert res.avg_errors == 0.0
    assert res.miscorrected == 0


def test_counts_partition_trials(code):
    res = simulate_transmission(code, 0.3, 2000, master_seed=12, rate_index=1)
    assert res.successes + res.uncorrectable == res.trials
    assert res.success_rate + res.uncorrectable_rate == 1.0
    assert 0 <= res.avg_errors <= code.n


def test_seeded_determinism_and_chunk_invariance(code):
    a = simulate_transmission(code, 0.1, 3000, master_seed=13, rate_index=2, chunk_size=2048)
    b = simulate_transmission(code, 0.1, 3000, master_seed=13, rate_index=2, chunk_size=137)
    c = simulate_transmission(code, 0.1, 3000, master_seed=13, rate_index=2, chunk_size=3000)
    assert a == b == c
    d = simulate_transmission(code, 0.1, 3000, master_seed=14, rate_index=2)
    assert d != a


def test_success_rate_lower_bound_at_low_rate(code):
    # single errors are always corrected, so success probability is at
    # least P(0 or 1 errors); check within 5 sigma at rate 0.01
    trials, p, n = 100_000, 0.01, 8
    res = simulate_transmission(code, p, trials, master_seed=15, rate_index=3)
    floor = (1 - p) ** n + n * p * (1 - p) ** (n - 1)
    sigma = (floor * (1 - floor) / trials) ** 0.5
    assert res.success_rate >= floor - 5 * sigma


def test_chunk_size_must_be_positive(code):
    for chunk in (0, -5):
        with pytest.raises(ValueError, match="chunk_size must be >= 1"):
            simulate_transmission(code, 0.1, 100, master_seed=1, chunk_size=chunk)


def test_run_simulation_orders_rates(code):
    config = SimConfig(code=code, error_rates=(0.0, 0.05, 0.2), num_transmissions=400,
                       master_seed=16)
    result = run_simulation(config)
    assert [row.rate for row in result.rows] == [0.0, 0.05, 0.2]
    assert result.rows[0].success_rate == 1.0


def test_sim_config_validation(code):
    with pytest.raises(ValueError):
        SimConfig(code=code, error_rates=(1.5,), num_transmissions=10, master_seed=0)
    with pytest.raises(ValueError):
        SimConfig(code=code, error_rates=(0.1,), num_transmissions=0, master_seed=0)
    with pytest.raises(ValueError):
        SimConfig(code=code, error_rates=(0.1,), num_transmissions=10, master_seed=-1)
    with pytest.raises(ValueError, match="at least one rate"):
        SimConfig(code=code, error_rates=(), num_transmissions=10, master_seed=0)


# ---------------------------------------------------------------------------
# CSV emission


def test_csv_outputs_are_deterministic(tmp_path, code):
    config = SimConfig(code=code, error_rates=(0.0, 0.1), num_transmissions=500, master_seed=21)

    def emit(tag, chunk):
        result = run_simulation(config, chunk_size=chunk)
        run = SimRun(code_name=code.name, n=code.n, k=code.k, d=5, result=result)
        out = tmp_path / f"res_{tag}.csv"
        series = tmp_path / f"series_{tag}.csv"
        write_results_csv([run], out)
        write_series_csv([run], series)
        return out.read_bytes(), series.read_bytes()

    first = emit("a", 2048)
    second = emit("b", 173)
    assert first == second


def test_csv_headers_and_shape(tmp_path, code):
    result = run_simulation(SimConfig(code=code, error_rates=(0.0,), num_transmissions=50,
                                      master_seed=5))
    run = SimRun(code_name="x", n=code.n, k=code.k, d=5, result=result)
    out = tmp_path / "r.csv"
    series = tmp_path / "s.csv"
    write_results_csv([run], out)
    write_series_csv([run], series)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "code,n,k,d,rate,trials,success_rate,uncorrectable_rate,avg_errors,seed"
    assert lines[1] == "x,8,3,5,0.0,50,1.0,0.0,0.0,5"
    slines = series.read_text().strip().splitlines()
    assert slines[0] == "code,rate,success_rate,uncorrectable_rate,avg_errors"
    assert len(slines) == 2


def test_miscorrection_counter_is_tracked(code):
    # at a high error rate some decodes land on the wrong codeword but
    # still count as decode successes, mirrored in the extra counter
    res = simulate_transmission(code, 0.35, 4000, master_seed=23, rate_index=4)
    assert res.miscorrected > 0
    assert res.successes >= res.miscorrected

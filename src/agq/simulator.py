"""Monte-Carlo transmission and syndrome decoding over the q-ary
symmetric channel.

Channel model: each symbol of the codeword is independently replaced,
with probability `rate`, by a uniformly random *different* field
element.  Decoding checks the syndrome; on a nonzero syndrome it scans
positions 1..n and, per position, the q-1 alternative symbols in
canonical field order, accepting the first substitution with zero
syndrome ("corrected"), else reporting "failure".  Both "success" and
"corrected" count toward the decode success rate; a separate
`miscorrected` counter records decodes that returned a codeword other
than the transmitted one (possible once errors exceed the search
radius), without changing the two headline metrics.

Every trial sends the zero word.  That is exact for any codeword c: c
H^T = 0, so c + e has the syndrome of e, and the decoder's change to a
word is a function of its syndrome, so it decodes c + e to c plus its
result on e, with the same status.  Success, failure and miscorrection
thus depend on the error pattern e alone.  On the zero word the channel
puts o + 1, the o-th element other than 0, at a hit position with
replacement offset o, and a nonzero decoded word is a miscorrection.
`_decoder_table` certifies G H^T = 0, the premise of the reduction,
once per code.

Randomness: trial t at rate index i reads its own Philox4x64-10 stream
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
keyed by (master_seed, ((i + 1) << 44) | t), so results are bit-identical
for a given seed however the trials are blocked.  The stream is numpy's
`Generator(Philox(key))` (`_trial_rng`), which draws n uniforms with
`random`, then n replacement offsets with `integers(0, q - 1)`.  Every
simulation goes through `run_sweep`, which runs each rate in chunks of
`CHUNK_TRIALS` trials; `_draw_shared` draws a chunk at once, with Philox
on uint64 arrays over the block counters of each key, in row blocks of
at most `PHILOX_BLOCKS` blocks.  The key does not name the code, and
Philox is counter-based, so codes simulated together read one stream
per trial: each row block's uniform words are computed once, for the
code with the most symbols, and each code reads its own prefix; the
determinism check of `agq reproduce` reruns the first sweep code alone,
so it compares the shared path with the single-code one.  At rate 0
nothing is drawn: no uniform in [0, 1) is below 0, so every trial
arrives intact.  `_draw_shared` states the word layout of a stream.

A trial is its error pattern: 0 where its uniform is >= rate and o + 1
where it is below, o the replacement offset there.  A uniform is
(word >> 11) * 2^-53, so the test is word < T << 11 with T = ceil(rate *
2^53), made on each of a block's four counter words straight into the
hit columns that word fills.  Every trial's uniforms are drawn, into one bool
hit matrix per code, but only a row heavy enough to be decoded needs its
replacement offsets: its floor, max(2, d_lb - 1) below, is passed to the
draw, and only the rows that reach it get replacement words, Lemire
checks and an int64 pattern.  The replacement words of a shorter code
lie in the uniform words of the longest; where a code's run past them,
only the tail blocks are computed, and only for its heavy rows.  A floor
of 1 draws the pattern of every row with an error.

Only an error heavy enough to reach another codeword needs a syndrome.
`_decoder_table` gives each code a proven lower bound d_lb on its
distance, with no enumeration, and `_decode_errors` sorts the rows by
their weight w, which the draw counted once to find the heavy rows.  A
row with w = 0 is a success.  With w = 1 it is a success whose outcome
depends only on its position: it decodes back to zero, or it is a
miscorrection.  With 2 <= w <= d_lb - 2 it is a failure: a zero
syndrome, or one that a substitution at position j kills, would make e,
or e minus that substitution, a nonzero codeword of weight at most
w + 1 < d.  Only the rows with w >= max(2, d_lb - 1) are
decoded, and any of them that decodes is a miscorrection.

Every block starts from the counter (j + 1, 0, 0, 0) under a seed that
all trials share, so `_philox_words` runs round 0 once per block on one
row and round 1's first product once from the seed: of a block's 20
64x64-bit products, 17 run on (trials, blocks) arrays.  The rounds run in
place on arrays allocated once per call, and the high word of each
product comes from three 32-bit partial products (the `mulhu` identity of
Hacker's Delight, section 8-2).  The kernel returns one array per counter
word; only the heavy rows' replacement words are interleaved into stream
order.

Lemire's method rejects u when the low half of u * range falls below
(2^32 - range) mod range, which is less than range.  A trial with any
replacement draw whose low half is below range gets its offsets again
from `_trial_rng` itself, by `_reference_draw`; its uniforms come before
them, so its error positions stand, and every trial matches numpy
exactly, not just with high probability.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .agcode import LinearCode, distance_lower_bound
from .linalg import _column_table, _row_bytes, matmul, normalize_rows

SUCCESS, CORRECTED, FAILURE = 0, 1, 2


@dataclass(frozen=True)
class RateResult:
    """Exact trial counts for one error rate (rates are derived views)."""

    rate: float
    trials: int
    successes: int
    uncorrectable: int
    miscorrected: int
    total_errors: int

    @property
    def success_rate(self) -> float:
        return self.successes / self.trials

    @property
    def uncorrectable_rate(self) -> float:
        return self.uncorrectable / self.trials

    @property
    def avg_errors(self) -> float:
        return self.total_errors / self.trials


def encode(code: LinearCode, message) -> np.ndarray:
    """message @ generator; message is a length-k vector of element indices."""
    msg = np.asarray(message, dtype=np.int64).reshape(-1)
    if msg.shape[0] != code.k:
        raise ValueError(f"message length {msg.shape[0]} != k = {code.k}")
    if code.k == 0:
        return np.zeros(code.n, dtype=np.int64)
    return matmul(code.field, msg.reshape(1, -1), code.generator)[0]


def _trial_rng(master_seed: int, rate_index: int, trial: int) -> np.random.Generator:
    """The reference stream of one trial, a numpy Generator over Philox."""
    _check_stream_range(rate_index, trial + 1)
    key = np.array([master_seed, ((rate_index + 1) << 44) | trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_stream_range(rate_index: int, trial_stop: int) -> None:
    if trial_stop > 1 << 44 or not 0 <= rate_index < (1 << 20) - 1:
        raise ValueError("trial or rate index out of stream-key range")


def _reference_draw(master_seed: int, rate_index: int, trial: int, n: int, q: int):
    """(uniforms, replacement offsets) of one trial, read literally from
    `_trial_rng`; `_draw_shared` reproduces these values."""
    rng = _trial_rng(master_seed, rate_index, trial)
    return rng.random(n), rng.integers(0, q - 1, size=n)


# Philox4x64-10 multipliers, each with its 32-bit halves, and Weyl key
# increments, as in Random123 and numpy; uint64 scalars, so that no round
# converts a Python int
_PHILOX_M = tuple((np.uint64(m), np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32))
                  for m in (0xD2E7470EE14C6C93, 0xCA5A826395121157))
_PHILOX_W = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBB67AE8584CAA73B))
_PHILOX_ROUNDS = 10
_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)
# Philox blocks (four uint64 words each) computed at once: the round
# temporaries stay at 128 KB per array for any code length.
PHILOX_BLOCKS = 1 << 14
# Trials drawn and decoded at once: a chunk holds one bool hit matrix per
# code and the int64 patterns of its heavy rows.  Each chunk is split
# again into Philox row blocks of `PHILOX_BLOCKS` // blocks per trial.
CHUNK_TRIALS = 2048


def _mulhilo(a: np.ndarray, m: tuple, hi: np.ndarray, lo: np.ndarray,
             s: np.ndarray, s2: np.ndarray) -> None:
    """Write the high and low words of the 128-bit products a * m into hi
    and lo, overwriting a and the scratch arrays s and s2; m is one
    `_PHILOX_M` entry, (m, m_lo, m_hi).

    The low word is a * m, which wraps mod 2^64.  The high word is the
    three-product mulhu of Hacker's Delight (section 8-2): with a_lo, a_hi
    and m_lo, m_hi the 32-bit halves,
        t  = a_lo * m_hi + (a_lo * m_lo >> 32)
        w  = (t & 0xFFFFFFFF) + a_hi * m_lo
        hi = a_hi * m_hi + (t >> 32) + (w >> 32),
    and neither t nor w exceeds 2^64 - 2^32, so no sum wraps.
    """
    m, m_lo, m_hi = m
    np.multiply(a, m, out=lo)
    np.right_shift(a, _SHIFT32, out=s)             # a_hi
    a &= _LOW32                                    # a_lo
    np.multiply(a, m_lo, out=hi)
    hi >>= _SHIFT32
    a *= m_hi
    a += hi                                        # t
    np.bitwise_and(a, _LOW32, out=hi)
    a >>= _SHIFT32                                 # t >> 32
    np.multiply(s, m_lo, out=s2)
    hi += s2                                       # w
    hi >>= _SHIFT32
    hi += a
    s *= m_hi
    hi += s


def _philox_words(key0: np.ndarray, key1: np.ndarray, blocks: int,
                  first: int = 0) -> tuple[np.ndarray, ...]:
    """The words of blocks first..first + blocks - 1 of the Philox4x64-10
    stream of each key, as four (b, blocks) arrays: the i-th holds word i
    of each block, so that row t of the stream reads, in order, the [t, j]
    entries of arrays 0..3 for each block j.

    key0 is a (1, 1) uint64 array and key1 one of shape (b, 1).  Block j
    is the cipher of the counter (j + 1, 0, 0, 0), the order in which
    numpy's Philox increments its counter before each block.  A round
    maps (c0, c1, c2, c3) under the key (k0, k1) to

        (hi(M1 c2) ^ c1 ^ k0, lo(M1 c2), hi(M0 c0) ^ c3 ^ k1, lo(M0 c0)),

    and the key takes its Weyl increments before each later round.  On
    that counter the first two rounds need little of the (b, blocks)
    work.  Round 0's M1 product is zero and its M0 product depends on the
    block alone: it is computed once, on a (1, blocks) row, and the round
    gives (k0, 0, hi ^ k1, lo).  Round 1's M0 product is then that of k0,
    one (1, 1) product, and only its M1 product runs on full arrays.  So
    a block takes 17 full-width products, not 20.  key0 stays a (1, 1)
    array, not a numpy scalar, so that its sums wrap without a warning.

    The rounds from round 2 on run in place on eight (b, blocks) arrays,
    one allocation: the four counter words and the four products that
    become the next round's counter words.  The M0 product takes the M1
    product's output arrays as scratch, and the M1 product takes the
    spent c0 and, once it is xored in, c3.  After a round the spent
    counter words are renamed to hold the next round's products.
    """
    m0, m1 = _PHILOX_M
    row = np.arange(first + 1, first + blocks + 1, dtype=np.uint64).reshape(1, -1)
    row_hi, row_lo = np.empty_like(row), np.empty_like(row)
    _mulhilo(row, m0, row_hi, row_lo, np.empty_like(row), np.empty_like(row))
    seed_hi, seed_lo = np.empty_like(key0), np.empty_like(key0)
    _mulhilo(key0.copy(), m0, seed_hi, seed_lo, np.empty_like(key0), np.empty_like(key0))
    c0, c1, c2, c3, *spare = np.empty((8, key1.shape[0], blocks), dtype=np.uint64)
    np.bitwise_xor(row_hi, key1, out=c2)  # round 0 leaves (k0, 0, c2, row_lo)
    key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
    _mulhilo(c2, m1, c0, c1, *spare[:2])
    c0 ^= key0
    np.bitwise_xor(row_lo, seed_hi ^ key1, out=c2)
    c3[:] = seed_lo
    for _ in range(2, _PHILOX_ROUNDS):
        key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
        hi0, lo0, hi1, lo1 = spare
        _mulhilo(c0, m0, hi0, lo0, hi1, lo1)
        hi0 ^= c3
        hi0 ^= key1
        _mulhilo(c2, m1, hi1, lo1, c0, c3)
        hi1 ^= c1
        hi1 ^= key0
        c0, c1, c2, c3, spare = hi1, lo1, hi0, lo0, [c0, c1, c2, c3]
    return c0, c1, c2, c3


def _stream_words(words: tuple[np.ndarray, ...], rows: np.ndarray, start: int,
                  stop: int) -> np.ndarray:
    """Words start..stop - 1 of the given rows' streams, in stream order,
    from the four word arrays of `_philox_words`."""
    j0, j1 = start // 4, -(-stop // 4)
    out = np.empty((len(rows), j1 - j0, 4), dtype=np.uint64)
    for i, word in enumerate(words):
        out[:, :, i] = word[rows, j0:j1]
    return out.reshape(len(rows), 4 * (j1 - j0))[:, start - 4 * j0:stop - 4 * j0]


def _lemire(u: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw in [0, bound) from the uint32 values of the
    uint64 array u, which it overwrites, and a mask of the draws that
    Lemire's method might have rejected."""
    u *= np.uint64(bound)
    bad = (u & _LOW32) < bound
    u >>= _SHIFT32
    return u.view(np.int64), bad


class Drawn(NamedTuple):
    """One code's draw over a chunk of trials, from `_draw_shared`."""

    hit: np.ndarray  # (trials, n) bool: the symbols whose uniform is below the rate
    weights: np.ndarray  # (trials,): the weight of each row of hit
    rows: np.ndarray  # the rows whose weight reaches the floor, ascending
    errors: np.ndarray  # (len(rows), n) int64: their patterns, 0 or offset + 1


def _draw_shared(master_seed: int, rate_index: int, lo: int, hi: int,
                 shapes: Sequence[tuple[int, int]], rate: float,
                 floors: Sequence[int]) -> list[Drawn]:
    """For each (n, q) of `shapes`, with its floor, the `Drawn` of the
    trials lo..hi-1 at `rate`, from one Philox pass.

    With the uniforms and replacement offsets of `_reference_draw`, row t
    of the hit matrix is True where trial lo + t's uniform is below the
    rate.  The rows of weight at least the floor get their error pattern:
    0 where not hit and o + 1 where hit, o the replacement offset.  Only
    they read their replacement draws; a floor of 1 gives every row with
    an error.  Each `Drawn` carries every row's weight, counted once here.

    Each row block's uniform words are computed once, for the longest
    shape, one array per counter word; each array is tested against the
    rate straight into the hit columns it fills, every fourth one, and
    every shape reads its own prefix of the hit matrix.  Only the heavy
    rows' replacement words are interleaved into stream order.  A shape
    whose replacement words run past the uniform blocks reads the rest
    from tail blocks, computed only for the union of the rows that need
    them.  Every shape makes its own Lemire checks and redraws.
    """
    _check_stream_range(rate_index, hi)
    b = hi - lo
    # the word layout of a trial's stream, four words to a block: n uniform
    # words, (word >> 11) * 2^-53 each, then the replacement draws, Lemire-
    # bounded uint32s (u * (q - 1)) >> 32 from the low then the high half
    # of each word; over GF(2) their range is 1 and they take no words
    ends = [n + ((n + 1) // 2 if q > 2 else 0) for n, q in shapes]
    # every trial gets the head blocks, the cut words that hold the longest
    # shape's uniforms; a heavy row whose replacement words run past them
    # gets the tail blocks too
    longest = max(n for n, _ in shapes)
    head = -(-longest // 4)
    cut = 4 * head
    tail = -(-max(ends) // 4) - head
    key0 = np.full((1, 1), master_seed, dtype=np.uint64)
    key1 = np.arange(lo, hi, dtype=np.uint64).reshape(-1, 1) | np.uint64((rate_index + 1) << 44)
    # (w >> 11) * 2^-53 < rate holds for the integer w >> 11 exactly when
    # w >> 11 < T = ceil(rate * 2^53), as rate * 2^53 is exact, that is when
    # w < T << 11; at rate 1, T << 11 = 2^64 does not fit a uint64, and
    # every word is at most 2^64 - 1
    threshold = math.ceil(rate * 2.0**53)
    test, bound = ((np.less, np.uint64(threshold << 11)) if threshold < 1 << 53
                   else (np.less_equal, np.uint64(2**64 - 1)))
    hit = np.empty((b, longest), dtype=bool)
    weights = np.empty((len(shapes), b), dtype=np.intp)
    # per shape, each row block's heavy rows and their replacement words:
    # half the bytes of their int64 patterns
    picks = [[] for _ in shapes]
    step = max(1, PHILOX_BLOCKS // max(head, 1))
    for r0 in range(0, b, step):
        words = _philox_words(key0, key1[r0:r0 + step], head)
        block = hit[r0:r0 + step]
        for i, word in enumerate(words):
            out = block[:, i::4]
            test(word[:, :out.shape[1]], bound, out=out)
        picked = []
        for (n, _), floor, row_weights in zip(shapes, floors, weights):
            row_weights[r0:r0 + step] = np.count_nonzero(block[:, :n], axis=1)
            picked.append(np.flatnonzero(row_weights[r0:r0 + step] >= floor))
        need = np.unique(np.concatenate([at for at, end in zip(picked, ends) if end > cut]
                                        or [np.empty(0, dtype=np.intp)]))
        past = (_philox_words(key0, key1[r0 + need], tail, first=head) if len(need)
                else (np.empty((0, tail), dtype=np.uint64),) * 4)
        for (n, _), end, at, parts in zip(shapes, ends, picked, picks):
            own = _stream_words(words, at, n, min(end, cut))
            if end > cut:
                own = np.hstack([own, _stream_words(past, np.searchsorted(need, at), 0, end - cut)])
            parts.append((r0 + at, own))
        del words, past  # not held while the next row block's words are computed
    drawn = []
    for (n, q), row_weights, parts in zip(shapes, weights, picks):
        rows = np.concatenate([at for at, _ in parts])
        errors = hit[rows, :n].astype(np.int64)  # over GF(2) every offset is 0
        if q > 2:
            start = 0
            for at, own in parts:
                halves = own.astype("<u8", copy=False).view("<u4")[:, :n]
                # uint64 before the bound, as a uint32 product u * (q - 1) would wrap
                offsets, bad = _lemire(halves.astype(np.uint64), q - 1)
                for i in np.flatnonzero(bad.any(axis=1)):
                    _, offsets[i] = _reference_draw(master_seed, rate_index,
                                                    lo + int(at[i]), n, q)
                offsets += 1
                errors[start:start + len(at)] *= offsets
                start += len(at)
        drawn.append(Drawn(hit[:, :n], row_weights, rows, errors))
    return drawn


def _decode_batch(code: LinearCode, received: np.ndarray, table):
    """Vectorized syndrome decoder of the position-then-symbol scan.

    A substitution at position i changes the syndrome by a nonzero
    multiple of column H[:, i], so a nonzero syndrome s is killable at
    position i iff -s is parallel to that column; the scalar, and hence
    the substituted symbol, is then unique.  The earliest such position
    is exactly the first hit of the position-then-symbol scan.  `table`
    is the `_column_table` of the parity check: its normalized nonzero
    columns sorted stably as byte strings, so a left `searchsorted` lands
    on the first position among equal columns.  It depends only on the
    code, so `_decoder_table` builds it once for all rates and chunks.

    Returns (decoded, statuses); rows with status FAILURE hold the
    received word unchanged in `decoded` and must be ignored there.
    """
    F = code.field
    H = code.parity_check
    B = received.shape[0]
    decoded = received.copy()
    statuses = np.full(B, FAILURE, dtype=np.int64)
    if H.shape[0] == 0:
        statuses[:] = SUCCESS
        return decoded, statuses
    syndromes = matmul(F, received, H.T)
    zero = ~syndromes.any(axis=1)
    statuses[zero] = SUCCESS

    todo = np.nonzero(~zero)[0]
    keys, positions = table
    if len(todo) == 0 or len(positions) == 0:
        return decoded, statuses
    targets = F.vneg(syndromes[todo])
    queries = _row_bytes(normalize_rows(F, targets).astype(np.uint16))
    slot = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    hit = keys[slot] == queries
    rows, cols, targets = todo[hit], positions[slot[hit]], targets[hit]
    leads = (targets != 0).argmax(axis=1)
    lam = F.vmul(targets[np.arange(len(rows)), leads], F.vinv(H[leads, cols]))
    decoded[rows, cols] = F.vadd(received[rows, cols], lam)
    statuses[rows] = CORRECTED
    return decoded, statuses


def _check_inputs(rates: Sequence[float], trials: int, master_seed: int) -> None:
    if not rates:
        raise ValueError("rates must name at least one rate")
    if not all(0.0 <= rate <= 1.0 for rate in rates):  # NaN fails this too
        raise ValueError("error rates must lie in [0, 1]")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= master_seed < 1 << 64:
        raise ValueError("master_seed must be a 64-bit unsigned integer")


class DecoderTable(NamedTuple):
    """What `_decode_errors` reads of one code, built once by `_decoder_table`."""

    columns: tuple | None  # the `_column_table` of the parity check
    exact: np.ndarray  # exact[i]: a weight-1 error at i decodes back to zero
    d_lb: int  # a proven lower bound on d, `agcode.distance_lower_bound`

    @property
    def floor(self) -> int:
        """The least error weight that needs a syndrome, max(2, d_lb - 1)."""
        return max(2, self.d_lb - 1)


def _decoder_table(code: LinearCode) -> DecoderTable:
    """The code's `DecoderTable`, once G H^T = 0 is certified.

    Every trial sends the zero word in place of a codeword c = m G.  That
    is exact because c H^T = m G H^T = 0: c + e has the syndrome of e, so
    the decoder returns c plus its result on e, with the same status.  One
    k x n x (n - k) product certifies G H^T = 0, and a code that fails
    raises ValueError.

    The other two entries read the one column table.  A weight-1 error
    at i decodes back to zero exactly when column i is nonzero and the
    first of its parallel class: the decoder substitutes at the first
    position whose column is parallel to the syndrome.  d_lb needs no
    enumeration: it is the designed distance when that is at least 3, else
    1, 2 or 3 from the zero and parallel columns.
    """
    F = code.field
    if matmul(F, code.generator, code.parity_check.T).any():
        raise ValueError("the parity check does not annihilate the generator")
    columns = _column_table(F, code.parity_check)
    exact = np.zeros(code.n, dtype=bool)
    if columns is not None and len(columns[1]):
        keys, positions = columns
        exact[positions[np.r_[True, keys[1:] != keys[:-1]]]] = True
    return DecoderTable(columns, exact, distance_lower_bound(code, columns))


def _transmit(codes: Sequence[LinearCode], tables: Sequence[DecoderTable], rate: float,
              trials: int, master_seed: int, rate_index: int) -> tuple[RateResult, ...]:
    """One `RateResult` per code at one rate, on checked inputs with each
    code's `_decoder_table`; the codes share each chunk's streams, and
    each draws the error patterns of the rows its decoder reads."""
    _check_stream_range(rate_index, trials)
    if math.ceil(rate * 2.0**53) == 0:
        # no uniform in [0, 1) is below 0: every trial arrives intact
        return tuple(RateResult(rate, trials, trials, 0, 0, 0) for _ in codes)
    shapes = [(code.n, code.field.order) for code in codes]
    floors = [table.floor for table in tables]
    counts = np.zeros((len(codes), 4), dtype=np.int64)
    for lo in range(0, trials, CHUNK_TRIALS):
        hi = min(lo + CHUNK_TRIALS, trials)
        drawn = _draw_shared(master_seed, rate_index, lo, hi, shapes, rate, floors)
        for i, (code, table, (hit, weights, _, heavy)) in enumerate(zip(codes, tables, drawn)):
            counts[i] += _decode_errors(code, table, hit, weights, heavy)
    return tuple(RateResult(rate, trials, *map(int, count)) for count in counts)


def _decode_errors(code: LinearCode, decoder: DecoderTable, hit: np.ndarray,
                   weights: np.ndarray, heavy: np.ndarray):
    """(successes, uncorrectable, miscorrected, total errors) of the trials
    sending the zero word whose hit positions are the rows of the bool
    matrix `hit`, sorted by their weight w, read from `weights`:

    - w = 0 is a success;
    - w = 1 at position i is a success, and a miscorrection unless
      `decoder.exact[i]`;
    - 2 <= w <= d_lb - 2 is a failure: a zero syndrome, or one that a
      substitution kills, would make e, or e minus that substitution, a
      nonzero codeword of weight at most w + 1 < d;
    - only rows with w >= `decoder.floor` are decoded, by `_decode_batch`,
      and each of its successes is a miscorrection: the word it returns,
      e or e with one symbol changed, is nonzero as w >= 2.

    `heavy` holds the int64 error patterns of the rows with w >= the
    floor, in any order, as `_draw_shared` draws them at that floor.
    """
    ones = weights == 1
    single = int(ones.sum())
    exact = int(decoder.exact[hit[ones].argmax(axis=1)].sum())
    _, statuses = _decode_batch(code, heavy, decoder.columns)
    decoded = int((statuses != FAILURE).sum())
    successes = int((weights == 0).sum()) + single + decoded
    return successes, len(hit) - successes, single - exact + decoded, int(weights.sum())


def run_sweep(codes: Sequence[LinearCode], rates: Sequence[float], trials: int,
              master_seed: int) -> tuple[tuple[RateResult, ...], ...]:
    """Each code's `run_simulation` rows, one tuple per code in order.

    Trial t at rate index i reads the stream keyed by (master_seed,
    ((i + 1) << 44) | t) whatever the code, so the codes read one stream
    per trial: each row block's uniform words are computed once, for the
    code with the most symbols, and the others read its prefix.  Every
    input, and every code, is checked before the first draw.
    """
    codes = list(codes)
    if not codes:
        raise ValueError("run_sweep needs at least one code")
    _check_inputs(rates, trials, master_seed)
    tables = [_decoder_table(code) for code in codes]
    per_rate = [_transmit(codes, tables, rate, trials, master_seed, i)
                for i, rate in enumerate(rates)]
    return tuple(zip(*per_rate))


def run_simulation(code: LinearCode, rates: Sequence[float], trials: int,
                   master_seed: int) -> tuple[RateResult, ...]:
    """`trials` independent transmissions of `code` at each rate in order,
    rate i reading the streams of rate index i: `run_sweep([code], ...)[0]`.
    Every input, and the code, is checked before the first draw."""
    return run_sweep([code], rates, trials, master_seed)[0]


# ---------------------------------------------------------------------------
# CSV emission


@dataclass(frozen=True)
class SimRun:
    """One simulated code, the distance value to print in the CSV, and
    its rows from `run_simulation`."""

    code_name: str
    n: int
    k: int
    d: int | None
    master_seed: int
    rows: tuple[RateResult, ...]


RESULTS_HEADER = ["code", "n", "k", "d", "rate", "trials", "success_rate",
                  "uncorrectable_rate", "avg_errors", "seed"]
SERIES_HEADER = ["code", "rate", "success_rate", "uncorrectable_rate", "avg_errors"]


def _fmt(x: float) -> str:
    return repr(float(x))


def write_results_csv(runs: Sequence[SimRun], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RESULTS_HEADER)
        for run in runs:
            for row in run.rows:
                writer.writerow([
                    run.code_name, run.n, run.k, "" if run.d is None else run.d,
                    _fmt(row.rate), row.trials, _fmt(row.success_rate),
                    _fmt(row.uncorrectable_rate), _fmt(row.avg_errors),
                    run.master_seed,
                ])


def write_series_csv(runs: Sequence[SimRun], path) -> None:
    """Per-rate series with exactly the plotted quantities."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_HEADER)
        for run in runs:
            for row in run.rows:
                writer.writerow([
                    run.code_name, _fmt(row.rate), _fmt(row.success_rate),
                    _fmt(row.uncorrectable_rate), _fmt(row.avg_errors),
                ])

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

Randomness: trial t at rate index i reads its own Philox4x64-10 stream
(Salmon et al., "Parallel random numbers: as easy as 1, 2, 3", SC'11),
keyed by (master_seed, ((i + 1) << 44) | t), so results are bit-identical
for a given seed regardless of chunking or execution order.  The stream
is numpy's `Generator(Philox(key))` (`_trial_rng`), which draws k message
symbols with `integers(0, q)`, n uniforms with `random`, and n
replacement offsets with `integers(0, q - 1)`.  `_draw_chunk` computes
the same values for a whole chunk of trials at once, with Philox on
uint64 arrays over the block counters 1, 2, ... of each key:

* message and replacement draws are Lemire-bounded uint32s,
  (u * range) >> 32, taken from the low then the high half of each
  word; the n uniforms, (word >> 11) * 2^-53, sit between them, and
  when k is odd the first replacement draw is the buffered high half
  of the last message word;
* over GF(2) the replacement range is 1 and consumes no words.

The ten Philox rounds run in place on arrays allocated once per call,
and the high word of each 64x64-bit product comes from three 32-bit
partial products (the `mulhu` identity of Hacker's Delight, section 8-2).

Lemire's method rejects u when the low half of u * range falls below
(2^32 - range) mod range, which is less than range.  A trial with any
low half below range is drawn again from `_trial_rng` itself, so every
trial matches numpy exactly, not just with high probability.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .agcode import LinearCode
from .linalg import matmul, normalize_rows

SUCCESS, CORRECTED, FAILURE = 0, 1, 2


@dataclass(frozen=True)
class SimConfig:
    """Inputs of one simulation run over a list of symbol error rates."""

    code: LinearCode
    error_rates: tuple[float, ...]
    num_transmissions: int
    master_seed: int

    def __post_init__(self):
        if not self.error_rates:
            raise ValueError("error_rates must name at least one rate")
        if any(not 0.0 <= r <= 1.0 for r in self.error_rates):
            raise ValueError("error rates must lie in [0, 1]")
        if self.num_transmissions < 1:
            raise ValueError("num_transmissions must be >= 1")
        if not 0 <= self.master_seed < 1 << 64:
            raise ValueError("master_seed must be a 64-bit unsigned integer")


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


@dataclass(frozen=True)
class SimResult:
    master_seed: int
    rows: tuple[RateResult, ...]


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


def _reference_draw(master_seed: int, rate_index: int, trial: int, k: int, n: int, q: int):
    """(message, uniforms, replacement offsets) of one trial, read literally
    from `_trial_rng`; `_draw_chunk` reproduces these values."""
    rng = _trial_rng(master_seed, rate_index, trial)
    message = rng.integers(0, q, size=k) if k else np.zeros(0, dtype=np.int64)
    return message, rng.random(n), rng.integers(0, q - 1, size=n)


# Philox4x64-10 multipliers and Weyl key increments, as in Random123 and numpy.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_PHILOX_ROUNDS = 10
_LOW32 = 0xFFFFFFFF
# Philox blocks (four uint64 words each) that `_draw_chunk` computes at
# once: its round temporaries stay at 128 KB per array for any code length.
PHILOX_BLOCKS = 1 << 14


def _mulhilo(a: np.ndarray, m: int, hi: np.ndarray, lo: np.ndarray,
             s: np.ndarray, s2: np.ndarray) -> None:
    """Write the high and low words of the 128-bit products a * m into hi
    and lo, overwriting a and the scratch arrays s and s2.

    The low word is a * m, which wraps mod 2^64.  The high word is the
    three-product mulhu of Hacker's Delight (section 8-2): with a_lo, a_hi
    and m_lo, m_hi the 32-bit halves,
        t  = a_lo * m_hi + (a_lo * m_lo >> 32)
        w  = (t & 0xFFFFFFFF) + a_hi * m_lo
        hi = a_hi * m_hi + (t >> 32) + (w >> 32),
    and neither t nor w exceeds 2^64 - 2^32, so no sum wraps.
    """
    m_lo, m_hi = np.uint64(m & _LOW32), np.uint64(m >> 32)
    np.multiply(a, np.uint64(m), out=lo)
    np.right_shift(a, 32, out=s)                   # a_hi
    a &= _LOW32                                    # a_lo
    np.multiply(a, m_lo, out=hi)
    hi >>= 32
    a *= m_hi
    a += hi                                        # t
    np.bitwise_and(a, _LOW32, out=hi)
    a >>= 32                                       # t >> 32
    np.multiply(s, m_lo, out=s2)
    hi += s2                                       # w
    hi >>= 32
    hi += a
    s *= m_hi
    hi += s


def _philox_words(key0: np.ndarray, key1: np.ndarray, blocks: int) -> np.ndarray:
    """The first 4 * blocks words of the Philox4x64-10 stream of each key.

    key0 and key1 are uint64 arrays of shape (b, 1) or (1, 1); the result
    is (b, 4 * blocks).  Block j is the cipher of the counter (j + 1, 0,
    0, 0), the order in which numpy's Philox increments its counter
    before each block.

    The rounds run in place on ten (b, blocks) arrays allocated once: the
    four counter words, the four products that become the next round's
    counter words, and two scratch arrays.  After a round the spent
    counter words are renamed to hold the next round's products.
    """
    shape = (key1.shape[0], blocks)
    c0 = np.empty(shape, dtype=np.uint64)
    c0[:] = np.arange(1, blocks + 1, dtype=np.uint64)
    c1, c2, c3 = (np.zeros(shape, dtype=np.uint64) for _ in range(3))
    hi0, lo0, hi1, lo1, s, s2 = (np.empty(shape, dtype=np.uint64) for _ in range(6))
    for r in range(_PHILOX_ROUNDS):
        if r:
            key0, key1 = key0 + _PHILOX_W[0], key1 + _PHILOX_W[1]
        _mulhilo(c0, _PHILOX_M[0], hi0, lo0, s, s2)
        _mulhilo(c2, _PHILOX_M[1], hi1, lo1, s, s2)
        hi1 ^= c1
        hi1 ^= key0
        hi0 ^= c3
        hi0 ^= key1
        c0, c1, c2, c3, hi0, lo0, hi1, lo1 = hi1, lo1, hi0, lo0, c0, c1, c2, c3
    return np.stack([c0, c1, c2, c3], axis=-1).reshape(-1, 4 * blocks)


def _lemire(u32: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """numpy's bounded draw in [0, bound) from uint32s, and a mask of the
    draws that Lemire's method might have rejected."""
    product = u32 * bound
    return (product >> 32).astype(np.int64), (product & _LOW32) < bound


def _draw_chunk(master_seed: int, rate_index: int, lo: int, hi: int, k: int, n: int, q: int):
    """Messages (b, k), uniforms (b, n) and replacement offsets (b, n) of
    trials lo..hi-1, equal to `_reference_draw` for every trial."""
    _check_stream_range(rate_index, hi)
    b = hi - lo
    messages = np.empty((b, k), dtype=np.int64)
    uniforms = np.empty((b, n))
    repl = np.zeros((b, n), dtype=np.int64)
    suspect = np.zeros(b, dtype=bool)
    # word layout of one trial: message words, uniform words, replacement words
    msg_words = (k + 1) // 2
    repl_words = (k + n + 1) // 2 - msg_words if q > 2 else 0
    blocks = -(-(msg_words + n + repl_words) // 4)
    key0 = np.full((1, 1), master_seed, dtype=np.uint64)
    key1 = np.arange(lo, hi, dtype=np.uint64).reshape(-1, 1) | np.uint64((rate_index + 1) << 44)
    # the 32-bit halves the draws read, low half first: k message halves,
    # then n replacement halves from the words after the uniforms, the
    # first of which is the buffered high half of the last message word
    # when k is odd
    first = 2 * (msg_words + n)
    repl_at = np.arange(first, first + n) - (k & 1)
    if k & 1:
        repl_at[:1] = k
    halves = np.concatenate([np.arange(k), repl_at]) if q > 2 else np.arange(k)
    rows = max(1, PHILOX_BLOCKS // max(blocks, 1))
    for r0 in range(0, b, rows):
        part = slice(r0, r0 + rows)
        words = _philox_words(key0, key1[part], blocks)
        uniforms[part] = (words[:, msg_words:msg_words + n] >> 11) * 2.0**-53
        # uint64 before the bound: a uint32 product u * bound would wrap
        u32 = words.astype("<u8", copy=False).view("<u4").take(halves, axis=1).astype(np.uint64)
        messages[part], bad = _lemire(u32[:, :k], q)
        suspect[part] = bad.any(axis=1)
        if q > 2:
            repl[part], bad = _lemire(u32[:, k:], q - 1)
            suspect[part] |= bad.any(axis=1)
    for row in np.nonzero(suspect)[0]:
        messages[row], uniforms[row], repl[row] = _reference_draw(
            master_seed, rate_index, lo + int(row), k, n, q)
    return messages, uniforms, repl


def _column_table(code: LinearCode):
    """(keys, positions): the normalized nonzero columns of the parity
    check as byte strings, sorted stably, and the position of each.

    It depends only on the code, so `simulate_transmission` builds it
    once for all its chunks.  None when the parity check has no rows, so
    that every syndrome is zero.
    """
    H = code.parity_check
    if H.shape[0] == 0:
        return None
    columns = normalize_rows(code.field, H.T).astype(np.uint16)
    positions = np.nonzero(columns.any(axis=1))[0]
    keys = _row_bytes(columns[positions])
    order = np.argsort(keys, kind="stable")
    return keys[order], positions[order]


def _decode_batch(code: LinearCode, received: np.ndarray, table):
    """Vectorized syndrome decoder of the position-then-symbol scan.

    A substitution at position i changes the syndrome by a nonzero
    multiple of column H[:, i], so a nonzero syndrome s is killable at
    position i iff -s is parallel to that column; the scalar, and hence
    the substituted symbol, is then unique.  The earliest such position
    is exactly the first hit of the position-then-symbol scan.  `table`
    is the code's `_column_table`: its normalized nonzero columns sorted
    stably as byte strings, so a left `searchsorted` lands on the first
    position among equal columns.

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


def _row_bytes(rows: np.ndarray) -> np.ndarray:
    """Each row of a 2-D array as one opaque byte string, for sorting and lookup."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))[:, 0]


def simulate_transmission(code: LinearCode, rate: float, trials: int, master_seed: int,
                          rate_index: int = 0, chunk_size: int = 2048) -> RateResult:
    """Run `trials` independent transmissions at one error rate.

    Every trial draws (message, uniforms, replacements) from its own
    keyed stream, so the result does not depend on `chunk_size`; each
    chunk's streams are computed at once by `_draw_chunk`.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    F = code.field
    n, k, q = code.n, code.k, F.order
    successes = uncorrectable = miscorrected = 0
    total_errors = 0
    table = _column_table(code)
    for lo in range(0, trials, chunk_size):
        hi = min(lo + chunk_size, trials)
        messages, uniforms, repl = _draw_chunk(master_seed, rate_index, lo, hi, k, n, q)
        codewords = matmul(F, messages, code.generator)
        mask = uniforms < rate
        alts = repl + (repl >= codewords)
        received = np.where(mask, alts, codewords)
        total_errors += int(mask.sum())
        decoded, statuses = _decode_batch(code, received, table)
        ok = statuses != FAILURE
        successes += int(ok.sum())
        uncorrectable += int((~ok).sum())
        miscorrected += int((ok & (decoded != codewords).any(axis=1)).sum())
    return RateResult(
        rate=rate,
        trials=trials,
        successes=successes,
        uncorrectable=uncorrectable,
        miscorrected=miscorrected,
        total_errors=total_errors,
    )


def run_simulation(config: SimConfig, chunk_size: int = 2048) -> SimResult:
    """Algorithm loop over all configured rates, in order."""
    rows = tuple(
        simulate_transmission(
            config.code, rate, config.num_transmissions, config.master_seed,
            rate_index=i, chunk_size=chunk_size,
        )
        for i, rate in enumerate(config.error_rates)
    )
    return SimResult(master_seed=config.master_seed, rows=rows)


# ---------------------------------------------------------------------------
# CSV emission


@dataclass(frozen=True)
class SimRun:
    """One simulated code plus the distance value to print in the CSV."""

    code_name: str
    n: int
    k: int
    d: int | None
    result: SimResult


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
            for row in run.result.rows:
                writer.writerow([
                    run.code_name, run.n, run.k, "" if run.d is None else run.d,
                    _fmt(row.rate), row.trials, _fmt(row.success_rate),
                    _fmt(row.uncorrectable_rate), _fmt(row.avg_errors),
                    run.result.master_seed,
                ])


def write_series_csv(runs: Sequence[SimRun], path) -> None:
    """Per-rate series with exactly the plotted quantities."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SERIES_HEADER)
        for run in runs:
            for row in run.result.rows:
                writer.writerow([
                    run.code_name, _fmt(row.rate), _fmt(row.success_rate),
                    _fmt(row.uncorrectable_rate), _fmt(row.avg_errors),
                ])

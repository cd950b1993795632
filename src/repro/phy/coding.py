"""Convolutional coding for the 802.11 OFDM PHY.

Implements the standard's rate-1/2 K=7 code with generators (133, 171)
octal, puncturing to rates 2/3 and 3/4, and a hard-decision Viterbi decoder.

Punctured (stolen) bits are depunctured as erasures: both branch hypotheses
get zero metric for that position.

Performance
-----------
The receiver decodes only short blocks with this code (the SIG and the
A-HDR), so both directions are plain NumPy:

* :func:`conv_encode` is fully vectorised: the code is linear, so each
  mother-code output bit is the XOR of a fixed set of shifted copies of
  the input — no per-bit Python loop.
* :func:`viterbi_decode` precomputes *all* branch metrics for the whole
  frame in one vectorised pass (``(n_bits, 64)`` arrays), leaving only the
  add-compare-select recurrence sequential.
* Depuncture keep-masks are cached per ``(rate, n_bits)``.

The tests keep per-bit table-walk implementations of both directions as
oracles and assert bit-exact agreement (including the tie-breaking
behaviour: on equal path metrics the first predecessor wins, and the
untied traceback starts from the first minimum-metric state).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "CodeRate",
    "RATE_1_2",
    "RATE_2_3",
    "RATE_3_4",
    "conv_encode",
    "viterbi_decode",
    "CONSTRAINT_LENGTH",
]

CONSTRAINT_LENGTH = 7
_NUM_STATES = 1 << (CONSTRAINT_LENGTH - 1)  # 64
_G0 = 0o133
_G1 = 0o171


def _parity(value: int) -> int:
    return bin(value).count("1") & 1


def _build_tables():
    """Per (state, input-bit): next state and the two output bits."""
    next_state = np.empty((_NUM_STATES, 2), dtype=np.int64)
    outputs = np.empty((_NUM_STATES, 2, 2), dtype=np.uint8)
    for state in range(_NUM_STATES):
        for bit in range(2):
            # Shift register holds [newest ... oldest]; full register value
            # for the generator dot products is bit followed by state bits.
            register = (bit << (CONSTRAINT_LENGTH - 1)) | state
            out0 = _parity(register & _G0)
            out1 = _parity(register & _G1)
            next_state[state, bit] = register >> 1
            outputs[state, bit, 0] = out0
            outputs[state, bit, 1] = out1
    return next_state, outputs


_NEXT_STATE, _OUTPUTS = _build_tables()

# Predecessor tables for the vectorised Viterbi: for each state s, the two
# (previous-state, input-bit) pairs that can reach s.
_PREV_STATE = np.empty((_NUM_STATES, 2), dtype=np.int64)
_PREV_BIT = np.empty((_NUM_STATES, 2), dtype=np.int64)
for _s in range(_NUM_STATES):
    _found = 0
    for _p in range(_NUM_STATES):
        for _b in range(2):
            if _NEXT_STATE[_p, _b] == _s:
                _PREV_STATE[_s, _found] = _p
                _PREV_BIT[_s, _found] = _b
                _found += 1
    assert _found == 2

# Output pair value (2·out0 + out1) along each predecessor branch, and the
# four possible received pairs — the whole frame's branch metrics reduce to
# a (n_bits, 4) pair-cost table gathered through these indices.
_EDGE_PAIR = (
    2 * _OUTPUTS[_PREV_STATE, _PREV_BIT, 0] + _OUTPUTS[_PREV_STATE, _PREV_BIT, 1]
).astype(np.uint8)  # (64, 2)
_PAIR_PATTERNS = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)

# Plain-int copies for the traceback loop (scalar indexing of Python lists
# is several times faster than scalar indexing of numpy arrays).
_PREV_STATE_LIST = [tuple(int(x) for x in row) for row in _PREV_STATE]
_PREV_BIT_LIST = [tuple(int(x) for x in row) for row in _PREV_BIT]

# Mother-code generator taps as shift offsets into a zero-padded input:
# output bit i of generator g is the XOR of padded[p : p + n] over the set
# bit positions p of g (position 6 = the newest input bit).
_GENERATOR_TAPS = tuple(
    tuple(p for p in range(CONSTRAINT_LENGTH) if (g >> p) & 1) for g in (_G0, _G1)
)


@dataclass(frozen=True)
class CodeRate:
    """A puncturing pattern over the mother rate-1/2 code.

    ``pattern`` marks which of the mother-code output bits are transmitted
    within one puncturing period (row 0: first output, row 1: second).
    """

    name: str
    numerator: int
    denominator: int
    pattern: np.ndarray

    @property
    def ratio(self) -> float:
        """Information bits per coded bit (e.g. 0.75 for rate 3/4)."""
        return self.numerator / self.denominator

    def coded_bits(self, data_bits: int) -> int:
        """Number of transmitted coded bits for ``data_bits`` input bits.

        Only defined when ``data_bits`` is a multiple of the puncturing
        period (always true for whole OFDM symbols).
        """
        period = self.pattern.shape[1]
        if data_bits % period != 0:
            raise ValueError(
                f"data length {data_bits} not a multiple of puncture period {period}"
            )
        kept_per_period = int(self.pattern.sum())
        return (data_bits // period) * kept_per_period


RATE_1_2 = CodeRate("1/2", 1, 2, np.array([[1], [1]], dtype=np.uint8))
RATE_2_3 = CodeRate("2/3", 2, 3, np.array([[1, 1], [1, 0]], dtype=np.uint8))
RATE_3_4 = CodeRate("3/4", 3, 4, np.array([[1, 1, 0], [1, 0, 1]], dtype=np.uint8))


@lru_cache(maxsize=None)
def _keep_tables(pattern_bytes: bytes, period: int, data_bits: int):
    """Cached depuncture tables for one ``(rate, n_bits)`` combination.

    Returns ``(kept_flat_indices, mask)`` where ``kept_flat_indices`` are
    the positions of transmitted bits within the flattened (data_bits, 2)
    mother grid and ``mask`` is the (read-only) non-erasure boolean grid.
    """
    pattern = np.frombuffer(pattern_bytes, dtype=np.uint8).reshape(2, period)
    keep = np.tile(pattern.T, (data_bits // period, 1)).astype(bool)
    mask = keep.reshape(data_bits, 2)
    mask.setflags(write=False)
    kept = np.nonzero(mask.reshape(-1))[0]
    kept.setflags(write=False)
    return kept, mask


def _keep(rate: CodeRate, data_bits: int):
    return _keep_tables(rate.pattern.tobytes(), rate.pattern.shape[1], data_bits)


# ---------------------------------------------------------------------------
# Encoder
# ---------------------------------------------------------------------------

def conv_encode(bits: np.ndarray, rate: CodeRate = RATE_1_2) -> np.ndarray:
    """Encode ``bits`` with the K=7 (133,171) code, then puncture to ``rate``.

    The caller is responsible for appending tail bits (six zeros) if trellis
    termination is desired; the SIG/A-HDR builders in this package do so.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    n = bits.size
    period = rate.pattern.shape[1]
    if n % period != 0:
        raise ValueError(
            f"input length {n} not a multiple of puncture period {period}"
        )
    # The code is linear over GF(2) with zero initial state, so each output
    # stream is the XOR of shifted copies of the (zero-padded) input.
    padded = np.zeros(n + CONSTRAINT_LENGTH - 1, dtype=np.uint8)
    padded[CONSTRAINT_LENGTH - 1 :] = bits
    mother = np.empty((n, 2), dtype=np.uint8)
    for column, taps in enumerate(_GENERATOR_TAPS):
        acc = padded[taps[0] : taps[0] + n].copy()
        for p in taps[1:]:
            acc ^= padded[p : p + n]
        mother[:, column] = acc
    kept, _mask = _keep(rate, n)
    return mother.reshape(-1)[kept]


# ---------------------------------------------------------------------------
# Decoder
# ---------------------------------------------------------------------------

def _depuncture(coded: np.ndarray, rate: CodeRate, data_bits: int):
    """Expand punctured bits back to the mother-code grid with an erasure mask."""
    kept, mask = _keep(rate, data_bits)
    grid = np.zeros(data_bits * 2, dtype=np.uint8)
    grid[kept] = coded
    return grid.reshape(data_bits, 2), mask


def viterbi_decode(
    coded: np.ndarray,
    data_bits: int,
    rate: CodeRate = RATE_1_2,
    terminated: bool = True,
) -> np.ndarray:
    """Hard-decision Viterbi decode of ``coded`` back to ``data_bits`` bits.

    Args:
        coded: Received (possibly punctured) coded bits, 0/1.
        data_bits: Number of information bits to recover (including any tail
            bits the transmitter appended).
        rate: Puncturing pattern used at the transmitter.
        terminated: If True, assume the encoder ended in state 0 (tail bits
            present) and force the traceback to start there.

    All branch metrics are precomputed in one vectorised pass, so the only
    sequential work is the add-compare-select recurrence (five small NumPy
    calls per bit) and the integer traceback.
    """
    coded = np.asarray(coded, dtype=np.uint8)
    expected = rate.coded_bits(data_bits)
    if coded.size != expected:
        raise ValueError(f"expected {expected} coded bits, got {coded.size}")
    grid, mask = _depuncture(coded, rate, data_bits)
    # Pair costs: for every bit time, the hamming distance of the received
    # (possibly erased) pair against each of the four candidate outputs.
    cost = ((grid[:, None, :] != _PAIR_PATTERNS[None, :, :]) & mask[:, None, :]).sum(
        axis=2, dtype=np.uint8
    )
    # Branch metrics along each state's two predecessor edges: (n_bits, 64).
    # uint8 keeps the tables small; the per-step add upcasts to float64,
    # matching the reference decoder's metric arithmetic exactly.
    bm0 = cost[:, _EDGE_PAIR[:, 0]]
    bm1 = cost[:, _EDGE_PAIR[:, 1]]

    prev0 = _PREV_STATE[:, 0]
    prev1 = _PREV_STATE[:, 1]
    metrics = np.full(_NUM_STATES, np.float64(1e18))
    metrics[0] = 0.0
    survivors = np.empty((data_bits, _NUM_STATES), dtype=np.uint8)

    for i in range(data_bits):
        cand0 = metrics[prev0] + bm0[i]
        cand1 = metrics[prev1] + bm1[i]
        choose1 = cand1 < cand0
        metrics = np.where(choose1, cand1, cand0)
        survivors[i] = choose1

    state = 0 if terminated else int(np.argmin(metrics))
    decoded = np.empty(data_bits, dtype=np.uint8)
    for i in range(data_bits - 1, -1, -1):
        which = survivors[i, state]
        decoded[i] = _PREV_BIT_LIST[state][which]
        state = _PREV_STATE_LIST[state][which]
    return decoded

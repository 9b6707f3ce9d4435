"""Turbo coding stage.

The paper omits turbo decoding from the benchmark ("commonly executed on
dedicated hardware ... the call to perform turbo decoding simply passes the
data through"), so the default stage here is :class:`PassThroughTurbo`,
which is exactly that: LLRs in, hard bits out, no redundancy.

As an extension (DESIGN.md §5) the module also provides a working LTE-style
rate-1/3 parallel-concatenated convolutional codec (:class:`TurboCodec`):
two 8-state RSC constituent encoders (generators 13/15 octal, as in
TS 36.212) around a quadratic permutation polynomial (QPP) interleaver,
decoded with iterative max-log-MAP (BCJR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PassThroughTurbo", "TurboCodec", "QppInterleaver", "RscEncoder"]

# LTE constituent code: constraint length 4, feedback 13 (octal), parity 15
# (octal); 8 trellis states.
_NUM_STATES = 8
_FEEDBACK = 0b011  # taps on the two delay elements feeding back (13 oct, minus MSB)
_PARITY = 0b101  # feedforward taps (15 oct, minus MSB)


class PassThroughTurbo:
    """The paper's default decoder stub: hard-decide the LLRs, rate 1.

    Transmit side performs no encoding; receive side maps LLR < 0 to bit 1.
    """

    rate_denominator = 1

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Identity encoding (no redundancy added)."""
        return np.asarray(bits, dtype=np.int64).reshape(-1).copy()

    def decode(self, llrs: np.ndarray, num_info_bits: int) -> np.ndarray:
        """Hard decision on the systematic LLRs: one ``uint8`` 0/1 per bit."""
        llrs = np.asarray(llrs, dtype=np.float64).reshape(-1)
        if llrs.size != num_info_bits:
            raise ValueError(
                f"pass-through decoder expected {num_info_bits} LLRs, got {llrs.size}"
            )
        return (llrs < 0).view(np.uint8)


class QppInterleaver:
    """Quadratic permutation polynomial interleaver, π(i) = (f1·i + f2·i²) mod K.

    Parameters are chosen by Takeshita's sufficient conditions (f1 coprime
    with K; f2 sharing every prime factor of K) and verified to be a
    bijection at construction, rather than read from the TS 36.212 table —
    contention-free properties are preserved, exact table values are not.
    """

    def __init__(self, length: int) -> None:
        if length < 8:
            raise ValueError("interleaver length must be >= 8")
        self.length = length
        self.f1, self.f2 = self._choose_parameters(length)
        i = np.arange(length, dtype=np.int64)
        self.permutation = (self.f1 * i + self.f2 * i * i) % length
        inverse = np.empty(length, dtype=np.int64)
        inverse[self.permutation] = i
        self.inverse = inverse

    @staticmethod
    def _choose_parameters(length: int) -> tuple[int, int]:
        radical = 1
        n = length
        for p in range(2, n + 1):
            if p * p > n:
                break
            if n % p == 0:
                radical *= p
                while n % p == 0:
                    n //= p
        if n > 1:
            radical *= n
        i = np.arange(length, dtype=np.int64)
        # Candidate f2 values: multiples of the radical (Takeshita's
        # condition), ending with 0 — a squarefree length admits no
        # genuinely quadratic permutation, so the polynomial degenerates to
        # the linear f1·i there. Each candidate is verified to produce a
        # bijection before being accepted.
        f2_candidates = [
            (radical * m) % length for m in range(1, 9)
        ] + [0]
        for f2 in f2_candidates:
            for f1 in range(3, 3 + 2 * 64, 2):
                if math.gcd(f1, length) != 1:
                    continue
                perm = (f1 * i + f2 * i * i) % length
                if np.unique(perm).size == length:
                    return f1, f2
        raise ValueError(f"no QPP parameters found for length {length}")

    def interleave(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values).reshape(-1)
        if values.size != self.length:
            raise ValueError("length mismatch")
        return values[self.permutation]

    def deinterleave(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values).reshape(-1)
        if values.size != self.length:
            raise ValueError("length mismatch")
        return values[self.inverse]


class RscEncoder:
    """8-state recursive systematic convolutional encoder (13/15 octal)."""

    def __init__(self) -> None:
        # Precompute per-state transition tables.
        self.next_state = np.zeros((_NUM_STATES, 2), dtype=np.int64)
        self.parity_out = np.zeros((_NUM_STATES, 2), dtype=np.int64)
        for state in range(_NUM_STATES):
            for bit in range(2):
                feedback = bit ^ _parity_bits(state & _FEEDBACK)
                parity = feedback ^ _parity_bits(state & _PARITY)
                self.next_state[state, bit] = ((state >> 1) | (feedback << 2)) & 0b111
                self.parity_out[state, bit] = parity

    def encode(self, bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Encode ``bits``; returns (parity bits, tail systematic+parity).

        The trellis is driven back to state 0 with three tail bit pairs,
        returned separately.
        """
        bits = np.asarray(bits, dtype=np.int64).reshape(-1)
        parity = np.empty(bits.size, dtype=np.int64)
        state = 0
        for idx, bit in enumerate(bits):
            parity[idx] = self.parity_out[state, bit]
            state = self.next_state[state, bit]
        tail = []
        for _ in range(3):
            # Input that forces the feedback to zero drains the register.
            drain_bit = _parity_bits(state & _FEEDBACK)
            tail.append(drain_bit)
            tail.append(self.parity_out[state, drain_bit])
            state = self.next_state[state, drain_bit]
        return parity, np.array(tail, dtype=np.int64)


def _parity_bits(value: int) -> int:
    return bin(value).count("1") & 1


@dataclass
class TurboCodec:
    """LTE-style rate-1/3 PCCC turbo codec with max-log-MAP decoding.

    Parameters
    ----------
    iterations:
        Decoder iterations (each iteration runs both constituent decoders).
    """

    iterations: int = 6

    rate_denominator = 3

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode to [systematic | parity1 | parity2 | tails] bit stream."""
        bits = np.asarray(bits, dtype=np.int64).reshape(-1)
        interleaver = QppInterleaver(bits.size)
        enc = RscEncoder()
        parity1, tail1 = enc.encode(bits)
        parity2, tail2 = enc.encode(interleaver.interleave(bits))
        return np.concatenate([bits, parity1, parity2, tail1, tail2])

    def encoded_length(self, num_info_bits: int) -> int:
        """Total coded bits for ``num_info_bits`` information bits."""
        return 3 * num_info_bits + 12

    def decode(self, llrs: np.ndarray, num_info_bits: int) -> np.ndarray:
        """Iterative max-log-MAP decoding.

        ``llrs`` follow the encoder's output layout and the LLR convention
        positive-means-zero used by :func:`repro.phy.modulation.soft_demap`.
        Returns one ``uint8`` 0/1 per information bit.
        """
        llrs = np.asarray(llrs, dtype=np.float64).reshape(-1)
        k = num_info_bits
        if llrs.size != self.encoded_length(k):
            raise ValueError(
                f"expected {self.encoded_length(k)} LLRs, got {llrs.size}"
            )
        interleaver = QppInterleaver(k)
        sys_llr = llrs[:k]
        par1_llr = llrs[k : 2 * k]
        par2_llr = llrs[2 * k : 3 * k]
        sys_llr_int = interleaver.interleave(sys_llr)
        extrinsic = np.zeros(k)
        decoder = _MaxLogMap()
        for _ in range(self.iterations):
            apriori1 = extrinsic
            post1 = decoder.run(sys_llr + apriori1, par1_llr)
            extrinsic1 = post1 - sys_llr - apriori1
            apriori2 = interleaver.interleave(extrinsic1)
            post2 = decoder.run(sys_llr_int + apriori2, par2_llr)
            extrinsic2 = post2 - sys_llr_int - apriori2
            extrinsic = interleaver.deinterleave(extrinsic2)
            final_posterior = sys_llr + extrinsic1 + extrinsic
        return (final_posterior < 0).view(np.uint8)


class _MaxLogMap:
    """Max-log-MAP (BCJR with max instead of log-sum-exp) for the 8-state RSC."""

    def __init__(self) -> None:
        enc = RscEncoder()
        self.next_state = enc.next_state
        self.parity_out = enc.parity_out
        # Reverse transitions: for backward recursion.
        self.prev = [[] for _ in range(_NUM_STATES)]
        for state in range(_NUM_STATES):
            for bit in range(2):
                self.prev[enc.next_state[state, bit]].append((state, bit))

    def run(self, sys_llr: np.ndarray, par_llr: np.ndarray) -> np.ndarray:
        """Return per-bit posterior LLRs (positive-means-zero convention)."""
        k = sys_llr.size
        neg_inf = -1e30
        # Branch metric for (state, input bit) at step t:
        #   0.5 * (sign(sys) + sign(par)) with LLR convention b=0 -> +llr/2.
        gamma = np.empty((k, _NUM_STATES, 2))
        for bit in range(2):
            bit_sign = 1.0 if bit == 0 else -1.0
            for state in range(_NUM_STATES):
                par_sign = 1.0 if self.parity_out[state, bit] == 0 else -1.0
                gamma[:, state, bit] = 0.5 * (bit_sign * sys_llr + par_sign * par_llr)
        alpha = np.full((k + 1, _NUM_STATES), neg_inf)
        alpha[0, 0] = 0.0
        for t in range(k):
            nxt = np.full(_NUM_STATES, neg_inf)
            for state in range(_NUM_STATES):
                if alpha[t, state] <= neg_inf / 2:
                    continue
                for bit in range(2):
                    ns = self.next_state[state, bit]
                    cand = alpha[t, state] + gamma[t, state, bit]
                    if cand > nxt[ns]:
                        nxt[ns] = cand
            alpha[t + 1] = nxt
        beta = np.zeros((k + 1, _NUM_STATES))
        # Unterminated trellis within the iteration: uniform final beta.
        for t in range(k - 1, -1, -1):
            cur = np.full(_NUM_STATES, neg_inf)
            for state in range(_NUM_STATES):
                for bit in range(2):
                    ns = self.next_state[state, bit]
                    cand = gamma[t, state, bit] + beta[t + 1, ns]
                    if cand > cur[state]:
                        cur[state] = cand
            beta[t] = cur
        posterior = np.empty(k)
        for t in range(k):
            best0 = neg_inf
            best1 = neg_inf
            for state in range(_NUM_STATES):
                a = alpha[t, state]
                if a <= neg_inf / 2:
                    continue
                m0 = a + gamma[t, state, 0] + beta[t + 1, self.next_state[state, 0]]
                m1 = a + gamma[t, state, 1] + beta[t + 1, self.next_state[state, 1]]
                if m0 > best0:
                    best0 = m0
                if m1 > best1:
                    best1 = m1
            posterior[t] = best0 - best1
        return posterior

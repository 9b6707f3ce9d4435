"""Batched vectorized backend: whole subframes through stacked kernels.

The serial backend (:mod:`repro.uplink.serial`) walks the Fig. 5 task
graph one small NumPy call at a time. This backend keeps the *chain*
identical but fuses the task axes: for every group of users that share an
allocation shape ``(subcarriers, layers, modulation)``, all of the
group's (user, slot, antenna, layer) channel-estimation tasks run as one
:func:`repro.phy.batched.batched_chest` call, every per-subcarrier MMSE
system of the whole group is eliminated in one
:func:`repro.phy.equalizer.mmse_combiner` call (the serial chain's own
function, element-wise along the subcarriers), all (user, symbol, layer)
combining tasks run as one einsum + one IFFT, and the groups' soft demaps
run as one stacked call.

Results are **bit-exact** with the serial reference (the batched NumPy
kernels process rows independently with the same primitives), which the
differential suite in ``tests/differential`` enforces across the full
seeded scenario matrix. A user whose combiner system is singular gets NaN
weights and fails its CRC; the rest of its group is unaffected.

Because rows are independent, a group need not stop at one subframe:
:func:`process_subframes` is the one implementation of both single-thread
backends and stacks same-shape users of *every* subframe it is given, so a
caller with several subframes in hand (the inline runtime under backlog)
pays a group's fixed cost once per call. ``process_subframe`` and
:func:`process_subframe_vectorized` are that function over a list of one;
``tests/uplink/test_process_subframes.py`` pins that how subframes are
partitioned into calls never changes a bit of any result.

The module is deterministic-scope clean: it never reads the host clock.
Callers that want per-kernel wall-clock attribution (``repro bench``)
pass a ``stage_timer`` context-manager factory instead.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache

import numpy as np

from ..phy.batched import (
    batched_chest,
    batched_combine_symbols,
    batched_combiner_weights,
    batched_soft_demap,
)
from ..phy.chain import UserResult
from ..phy.chest import ChestConfig
from ..phy.crc import CRC24A, crc_check, crc_check_rows
from ..phy.dtypes import REAL_DTYPE, ensure_complex
from ..phy.interleaver import deinterleave_indices
from ..phy.params import (
    DATA_SYMBOLS_PER_SLOT,
    DATA_SYMBOLS_PER_SUBFRAME,
    REFERENCE_SYMBOL_INDEX,
    SLOTS_PER_SUBFRAME,
    SYMBOLS_PER_SLOT,
)
from ..phy.scrambling import descramble_llrs
from ..phy.transmitter import UserAllocation, data_symbol_indices
from ..phy.turbo import PassThroughTurbo
from .serial import FUNCTIONAL_BACKENDS, SubframeResult, process_subframe_serial
from .subframe import SubframeInput, UserSlice

__all__ = [
    "group_slices_by_shape",
    "process_group",
    "process_user_vectorized",
    "process_subframes",
    "process_subframe_vectorized",
]

_REF_SYMBOLS = tuple(
    slot * SYMBOLS_PER_SLOT + REFERENCE_SYMBOL_INDEX
    for slot in range(SLOTS_PER_SUBFRAME)
)


def _shape_key(user_slice: UserSlice) -> tuple[int, int, str]:
    """The one definition of "same batchable shape": users agreeing on it
    stack into one :func:`process_group` call."""
    user = user_slice.user
    return (user.num_subcarriers, user.layers, user.modulation.value)


def group_slices_by_shape(
    slices: list[UserSlice],
) -> list[list[tuple[int, UserSlice]]]:
    """Group a subframe's user slices by batchable allocation shape.

    Users sharing ``(num_subcarriers, layers, modulation)`` stack into one
    batch; each entry keeps its original position so results can be
    emitted in dispatch order. Group order follows first appearance, so
    the grouping itself is deterministic.
    """
    groups: dict[tuple[int, int, str], list[tuple[int, UserSlice]]] = {}
    for position, user_slice in enumerate(slices):
        groups.setdefault(_shape_key(user_slice), []).append(
            (position, user_slice)
        )
    return list(groups.values())


def _null_timer(kernel: str, batch: int):
    return nullcontext()


@lru_cache(maxsize=256)
def _tail_gather(layers: int, num_sc: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices of the serial tail for one allocation shape.

    ``symbols``: position ``k`` of a user's deinterleaved stream comes
    from flat index ``symbols[k]`` of its ``(layers, 12, subcarriers)``
    despread block — the layer demapping (stream position ``m`` holds layer
    ``m % layers``, sample ``m // layers``) composed with the
    deinterleaver, so the data moves once. ``noise``: the same position's
    index into the user's flat ``(layers, slots)`` noise table. Both are
    kept in the narrowest dtype that holds them: the paper's mix has a
    couple of hundred shapes, and ``np.take`` widening an index per call
    costs less time than 8-byte entries would cost memory.
    """
    per_layer = DATA_SYMBOLS_PER_SUBFRAME * num_sc
    stream = deinterleave_indices(layers * per_layer)
    flat = (stream % layers) * per_layer + stream // layers
    symbols = flat.astype(np.int32)
    # Layer l, slot s owns flat samples [(2l+s)·per_slot, (2l+s+1)·per_slot).
    noise = (flat // (DATA_SYMBOLS_PER_SLOT * num_sc)).astype(np.uint8)
    symbols.setflags(write=False)
    noise.setflags(write=False)
    return symbols, noise


def _finalize_group(
    allocation: UserAllocation,
    layer_symbols: np.ndarray,
    noise_per_layer_slot: np.ndarray,
    user_ids: list[int],
    codec,
    trace,
    scrambling_c_inits: list[int | None] | None = None,
) -> list[UserResult]:
    """Batched serial tail for one shape group: deinterleave → demap → CRC.

    ``layer_symbols`` is ``(users, layers, 12, subcarriers)``;
    ``noise_per_layer_slot`` is ``(users, layers, 2)``.
    """
    codec = codec or PassThroughTurbo()
    num_users = layer_symbols.shape[0]
    layers = allocation.layers
    num_sc = allocation.num_subcarriers
    layer_symbols = ensure_complex(layer_symbols)
    if layer_symbols.shape != (
        num_users,
        layers,
        DATA_SYMBOLS_PER_SLOT * SLOTS_PER_SUBFRAME,
        num_sc,
    ):
        raise ValueError("layer_symbols shape mismatch")

    # Invert the transmitter's layer mapping and interleaver in one gather
    # per user row; the per-symbol noise follows the data through the same
    # reordering, read straight from the small clamped table.
    symbol_index, noise_index = _tail_gather(layers, num_sc)
    if trace is not None:
        trace.record("deinterleave", symbols=symbol_index.size, batch=num_users)
    symbols = np.take(layer_symbols.reshape(num_users, -1), symbol_index, axis=1)
    noise_table = np.maximum(
        np.asarray(noise_per_layer_slot, dtype=REAL_DTYPE), 1e-12
    ).reshape(num_users, -1)
    noise = np.take(noise_table, noise_index, axis=1)

    llrs_rows = batched_soft_demap(
        symbols, allocation.modulation, noise, trace=trace
    )

    if codec.rate_denominator == 1:
        num_info_with_crc = useful_bits = llrs_rows.shape[1]
    else:
        num_info_with_crc = (llrs_rows.shape[1] - 12) // 3
        useful_bits = 3 * num_info_with_crc + 12
    # A NaN LLR hard-decides to bit 0 and the all-zero block passes CRC24A,
    # so a user with a non-finite soft bit fails outright (one reduction a
    # group: a row's sum is non-finite exactly when some LLR in it is).
    finite_rows = np.isfinite(llrs_rows.sum(axis=1))
    c_inits = scrambling_c_inits or [None] * num_users
    if type(codec) is PassThroughTurbo and all(c is None for c in c_inits):
        # The pass-through decoder is a hard decision on every LLR, so the
        # whole group decodes and checks as one array each.
        hard = llrs_rows < 0
        decoded_rows = hard.astype(np.int64)
        ok_rows = crc_check_rows(hard, CRC24A)
    else:
        llrs_rows = [
            llrs if c_init is None else descramble_llrs(llrs, c_init)
            for llrs, c_init in zip(llrs_rows, c_inits)
        ]
        decoded_rows = [
            codec.decode(llrs[:useful_bits], num_info_with_crc)
            for llrs in llrs_rows
        ]
        ok_rows = [crc_check(decoded, CRC24A) for decoded in decoded_rows]

    results: list[UserResult] = []
    for row, user_id in enumerate(user_ids):
        decoded = decoded_rows[row]
        if trace is not None:
            trace.record("turbo_decode", bits=useful_bits)
            trace.record("crc_check", bits=decoded.size)
        results.append(
            UserResult(
                user_id=user_id,
                payload=decoded[: -CRC24A.width],
                crc_ok=bool(ok_rows[row] and finite_rows[row]),
                llrs=llrs_rows[row],
            )
        )
    return results


def _process_group(
    grids: np.ndarray,
    allocation: UserAllocation,
    user_ids: list[int],
    config: ChestConfig | None,
    codec,
    trace,
    stage_timer,
    scrambling_c_inits: list[int | None] | None = None,
) -> list[UserResult]:
    """Run the batched chain over one shape group.

    ``grids`` is the stacked received data, shape ``(users, antennas, 14,
    subcarriers)``.
    """
    num_users = grids.shape[0]
    layers = allocation.layers

    # --- stage 1: channel estimation over (users, slots, antennas, layers)
    refs = grids[:, :, _REF_SYMBOLS, :].transpose(0, 2, 1, 3)
    with stage_timer("chest", num_users):
        channel, noise = batched_chest(refs, layers, config, trace=trace)
        # Per-(user, slot) noise estimate: mean over the (antenna, layer)
        # task grid, matching the serial join's np.mean over its list.
        noise_variance = noise.reshape(num_users, SLOTS_PER_SUBFRAME, -1).mean(
            axis=-1
        )

    # --- stage 2: combiner weights for every (user, slot, subcarrier)
    with stage_timer("combiner", num_users):
        weights, noise_after = batched_combiner_weights(
            channel, noise_variance, trace=trace
        )

    # --- stage 3: antenna combining + SC-FDMA IFFT for all data symbols
    with stage_timer("symbol", num_users):
        data_idx = data_symbol_indices()
        data = grids[:, :, data_idx, :]  # (users, antennas, 12, sc)
        per_slot_symbols = []
        for slot in range(SLOTS_PER_SUBFRAME):
            sym_lo = slot * DATA_SYMBOLS_PER_SLOT
            per_slot_symbols.append(
                batched_combine_symbols(
                    data[:, :, sym_lo : sym_lo + DATA_SYMBOLS_PER_SLOT, :],
                    weights[:, slot],
                    trace=trace,
                )
            )
        # (users, layers, 12, sc) in data-symbol order.
        layer_symbols = np.concatenate(per_slot_symbols, axis=2)
        if layer_symbols.shape[2] != DATA_SYMBOLS_PER_SUBFRAME:
            raise AssertionError("data symbol concatenation mismatch")

    # --- stage 4: serial tail, batched across the group
    with stage_timer("finalize", num_users):
        # (users, slots, layers) -> (users, layers, slots).
        noise_per_layer_slot = noise_after.mean(axis=-1).transpose(0, 2, 1)
        return _finalize_group(
            allocation,
            layer_symbols,
            noise_per_layer_slot,
            user_ids,
            codec,
            trace,
            scrambling_c_inits,
        )


#: Public name for the shape-group chain: the multiprocess runtime's
#: workers execute exactly this per dispatched group, so the parallel
#: backends share one batched code path (and its bit-exactness proofs).
process_group = _process_group


def process_user_vectorized(
    allocation: UserAllocation,
    received: np.ndarray,
    user_id: int = 0,
    config: ChestConfig | None = None,
    codec=None,
    trace=None,
    scrambling_c_init: int | None = None,
) -> UserResult:
    """Batched twin of :func:`repro.phy.chain.process_user` (one user).

    Accepts the same ``(antennas, 14 symbols, subcarriers)`` grid and
    returns a bit-exact :class:`UserResult`; all of the user's tasks run
    as stacked kernels.
    """
    received = ensure_complex(received)
    if received.ndim != 3:
        raise ValueError("received grid must be (antennas, symbols, subcarriers)")
    if received.shape[1] != SLOTS_PER_SUBFRAME * SYMBOLS_PER_SLOT:
        raise ValueError("received grid must hold 14 SC-FDMA symbols")
    if received.shape[2] != allocation.num_subcarriers:
        raise ValueError("received grid subcarrier width mismatch")
    results = _process_group(
        received[None],
        allocation,
        [user_id],
        config,
        codec,
        trace,
        _null_timer,
        [scrambling_c_init],
    )
    return results[0]


def process_subframes(
    subframes: list[SubframeInput],
    config: ChestConfig | None = None,
    codec=None,
    backend: str = "serial",
    trace=None,
    stage_timer=None,
) -> list[SubframeResult]:
    """Process ``subframes`` on a single-thread backend, one result each.

    ``backend="serial"`` walks the per-task reference chain one subframe
    after another. ``backend="vectorized"`` stacks the users of *all* the
    given subframes that share an allocation shape and runs the batched
    chain once per shape, so the fixed cost of a group is paid per call
    rather than per subframe. Either way every result is bit-exact with
    processing its subframe alone (the batched kernels treat rows
    independently), with ``user_results`` in slice order.

    ``stage_timer(kernel, batch)`` is an optional context-manager factory
    for per-kernel wall-clock attribution (``kernel`` is one of
    :data:`repro.uplink.tasks.KERNEL_KINDS`); the default is a no-op,
    keeping this module free of host-clock reads. ``trace`` and
    ``stage_timer`` apply to the vectorized backend only.
    """
    if backend == "serial":
        return [process_subframe_serial(s, config, codec) for s in subframes]
    if backend != "vectorized":
        raise ValueError(
            f"unknown backend {backend!r} (choose from {FUNCTIONAL_BACKENDS})"
        )
    timer = stage_timer or _null_timer
    # Per shape, in order of first appearance: where each member's result
    # goes (subframe number, slice position), its slice and its view of its
    # own subframe's grid. Subframes of different cells may differ in
    # antenna count, which a stacked grid cannot, so it joins the key.
    groups: dict[tuple, tuple[list, list[UserSlice], list[np.ndarray]]] = {}
    for number, subframe in enumerate(subframes):
        grid = subframe.grid
        for position, user_slice in enumerate(subframe.slices):
            where, slices, views = groups.setdefault(
                (grid.shape[0], *_shape_key(user_slice)), ([], [], [])
            )
            where.append((number, position))
            slices.append(user_slice)
            views.append(user_slice.view(grid))
    ordered: list[list] = [[None] * len(s.slices) for s in subframes]
    for where, slices, views in groups.values():
        results = _process_group(
            np.stack(views),
            slices[0].user.allocation,
            [s.user.user_id for s in slices],
            config,
            codec,
            trace,
            timer,
        )
        for (number, position), result in zip(where, results):
            ordered[number][position] = result
    return [
        SubframeResult(subframe_index=s.subframe_index, user_results=users)
        for s, users in zip(subframes, ordered)
    ]


def process_subframe_vectorized(
    subframe: SubframeInput,
    config: ChestConfig | None = None,
    codec=None,
    trace=None,
    stage_timer=None,
) -> SubframeResult:
    """One subframe on the batched vectorized backend:
    ``process_subframes([subframe], backend="vectorized")[0]``."""
    return process_subframes(
        [subframe], config, codec, "vectorized", trace, stage_timer
    )[0]

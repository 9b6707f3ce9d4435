"""Batched vectorized backend: whole calls through stage-major kernels.

The serial backend (:mod:`repro.uplink.serial`) walks the Fig. 5 task
graph one small NumPy call at a time. This backend keeps the *chain*
identical but runs it **stage-major**: :func:`process_subframes` collects
the users of every subframe it is given once, then runs each stage over
all of them, batching along whichever axis that stage's kernel is
element-wise in. Only the FFTs need users to agree on a width:

* **chest** — one call per *front group* ``(antennas, subcarriers,
  layers)``, users along a leading axis (matched filter, IFFT, window, FFT);
* **combiner** — one call per ``(antennas, layers)``: the users' channels
  laid end to end along the subcarrier axis, ``(slots, antennas, layers,
  ΣK)``, with a noise variance per subcarrier;
* **symbol** — one call per front group, leading ``(users, slots)`` axes:
  both slots in one einsum + one IFFT;
* **finalize** — one call per modulation: the users' deinterleaved symbol
  streams laid end to end through one soft demap and one hard decision.

So the paper's traffic, where almost every user has its own PRB count,
pays the combiner's and the demapper's fixed cost once per layer count and
once per modulation, not once per user.

Results are **bit-exact** with the serial reference *by construction*, not
by tolerance: :func:`repro.phy.equalizer.mmse_combiner` (the serial chain's
own function) is element-wise along the subcarriers, so a column is the
same wherever it sits in the run; the demap stream was already flat; the
fused einsum still sums antennas in index order per output element; the
noise means still reduce a user's contiguous last axis
(``tests/differential``, ``tests/uplink/test_ragged_batching.py``). A user
whose combiner system is singular gets NaN weights in its own columns and
fails its CRC; nobody else in its call is affected.

No stage writes to what it was given: the chest and symbol kernels
overwrite only arrays they build themselves (:mod:`repro.phy.batched`,
"What is overwritten"), and grids are sliced, transposed and gathered but
never assigned to — so a caller may pass read-only grids, as the
multiprocess workers do with their views of shared memory. The noise means
are ``np.add.reduce(x, axis=-1) / n``: ``ndarray.mean`` without its wrapper.

Users are independent in every stage, so a call need not stop at one
subframe: :func:`process_subframes` is the one implementation of both
single-thread backends and of the multiprocess workers, and
``process_subframe`` and :func:`process_subframe_vectorized` are the same
staged chain over one subframe;
``tests/uplink/test_process_subframes.py`` pins that how users are
partitioned into calls never changes a bit of any result.

This backend runs the paper's receiver and nothing else: the pass-through
turbo decoder (§IV-C2), no scrambling. Its tail is therefore one hard
decision over every LLR of a modulation. A real turbo codec or a
scrambling seed is link-level work, for
:func:`repro.phy.chain.process_user`.

The module is deterministic-scope clean: it never reads the host clock.
Callers that want per-kernel wall-clock attribution (``perf/``) pass a
``stage_timer`` context-manager factory instead.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..phy.batched import batched_chest, batched_combine_symbols
from ..phy.chain import UserResult
from ..phy.crc import CRC24A, crc_check_rows
from ..phy.equalizer import mmse_combiner
from ..phy.interleaver import deinterleave_indices
from ..phy.modulation import soft_demap
from ..phy.params import (
    DATA_SYMBOLS_PER_SLOT,
    DATA_SYMBOLS_PER_SUBFRAME,
    MAX_LAYERS,
    MAX_PRB_PER_SLOT,
    REFERENCE_SYMBOL_INDEX,
    SLOTS_PER_SUBFRAME,
    SYMBOLS_PER_SLOT,
    Modulation,
)
from .serial import FUNCTIONAL_BACKENDS, SubframeResult, process_subframe_serial
from .subframe import SubframeInput

__all__ = ["process_subframes", "process_subframe_vectorized"]

#: A slot's data symbols: every symbol but the DMRS in the middle.
_DATA_IN_SLOT = np.array(
    [s for s in range(SYMBOLS_PER_SLOT) if s != REFERENCE_SYMBOL_INDEX]
)


def _null_timer(kernel: str, batch: int):
    return nullcontext()


@lru_cache(maxsize=MAX_LAYERS * MAX_PRB_PER_SLOT)
def _tail_gather(layers: int, num_sc: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices of the serial tail for one allocation shape.

    ``symbols``: position ``k`` of a user's deinterleaved stream comes
    from flat index ``symbols[k]`` of its ``(slots, layers, 6,
    subcarriers)`` despread block, exactly as the symbol stage leaves it —
    the layer demapping (stream position ``m`` holds layer ``m % layers``,
    sample ``m // layers`` of that layer's 12 data symbols) composed with
    the deinterleaver, so the data moves once. ``noise``: the same
    position's index into the user's flat ``(slots, layers)`` noise table.
    Both are kept in the narrowest dtype that holds them: ``np.take``
    widening an index per call costs less time than 8-byte entries would
    cost memory. The cache is sized to the shape space it serves, 4 layer
    counts x 100 widths — a 1 200-subframe paper ramp visits 320-330 of
    the 400, and a table costs 0.05-3.4 ms to rebuild — which at 5 bytes
    for each of a shape's ``layers * 144 * PRBs`` symbols is 36.4 MB once
    every shape has been seen (26 MB after that ramp, 9.5 MB after the
    189 shapes of a 120-subframe one).
    """
    per_slot = DATA_SYMBOLS_PER_SLOT * num_sc
    stream = deinterleave_indices(layers * DATA_SYMBOLS_PER_SUBFRAME * num_sc)
    slot, within = np.divmod(stream // layers, per_slot)
    noise = slot * layers + stream % layers
    symbols = (noise * per_slot + within).astype(np.int32)
    noise = noise.astype(np.uint8)
    symbols.setflags(write=False)
    noise.setflags(write=False)
    return symbols, noise


class _Row(NamedTuple):
    """One user of a front group: where its result goes, and what the tail
    needs to know about it."""

    out: list
    position: int
    user_id: int
    modulation: Modulation


class _FrontGroup:
    """The users of one call that share ``(antennas, subcarriers, layers)``
    — all the FFT stages need to stack them."""

    def __init__(self, num_sc: int, layers: int) -> None:
        self.num_sc = num_sc
        self.layers = layers
        #: ``(users, antennas, 14, subcarriers)``; a list of per-user views
        #: of their subframes' grids until the chest stage stacks it.
        self.grids: list | np.ndarray = []
        self.rows: list[_Row] = []
        #: What the last stage left for the next one. Replaced, not added
        #: to, so a call holds one stage's arrays at a time.
        self.carry: tuple = ()


def _end_to_end(rows: list[np.ndarray]) -> np.ndarray:
    """``rows`` flattened into one stream (a lone array is not copied)."""
    return rows[0].reshape(-1) if len(rows) == 1 else np.concatenate(rows, axis=None)


def _combine_bundle(bundle: list[_FrontGroup]) -> None:
    """Combiner stage for the front groups sharing ``(antennas, layers)``.

    The elimination is element-wise along the subcarriers, so the bundle's
    channels go through **one** :func:`mmse_combiner` call laid end to end
    along that axis, ``(slots, antennas, layers, ΣK)``, each user's columns
    carrying its own per-slot noise. A bundle of one front group passes its
    ``(users, slots, ...)`` arrays as they are, without that copy.
    """
    if len(bundle) == 1:
        [group] = bundle
        weights, noise_after = mmse_combiner(*group.carry)
        num_sc = noise_after.shape[-1]
        group.carry = (weights, np.add.reduce(noise_after, axis=-1) / num_sc)
        return
    weights, noise_after = mmse_combiner(
        np.concatenate(
            [user for group in bundle for user in group.carry[0]], axis=-1
        ),
        np.concatenate(
            [
                np.repeat(noise.T, channel.shape[-1], axis=1)
                for channel, noise in (group.carry for group in bundle)
            ],
            axis=1,
        ),
    )
    slots, layers, antennas, _ = weights.shape
    lo = 0
    for group in bundle:
        num_sc = group.carry[0].shape[-1]
        hi = lo + len(group.rows) * num_sc
        # Splitting a run of columns into (users, K) stays a view; the
        # noise mean reduces each user's contiguous K as it would alone.
        user_weights = weights[..., lo:hi].reshape(slots, layers, antennas, -1, num_sc)
        user_noise = noise_after[..., lo:hi].reshape(slots, layers, -1, num_sc)
        group.carry = (
            user_weights.transpose(3, 0, 1, 2, 4),
            (np.add.reduce(user_noise, axis=-1) / num_sc).transpose(2, 0, 1),
        )
        lo = hi


def _finalize_stream(
    modulation: Modulation, blocks: list[tuple[_FrontGroup, list[int]]]
) -> None:
    """Batched serial tail for every user of one modulation.

    ``blocks`` are ``(front group, its rows of this modulation)``. Each
    block is deinterleaved through its shape's gather table; the gathered
    streams then run end to end through **one** soft demap (element-wise per
    symbol) and one hard decision, the pass-through decoder over the whole
    stream, and each block's equal-length rows are CRC-checked together.
    """
    bits_per_symbol = modulation.bits_per_symbol
    gathered, noises, shapes = [], [], []
    for group, rows in blocks:
        symbols, noise_table = group.carry  # (users, slots, layers[, 6, K])
        symbol_index, noise_index = _tail_gather(group.layers, symbols.shape[-1])
        # Invert the transmitter's layer mapping and interleaver in one
        # gather per user row; the per-symbol noise follows the data
        # through the same reordering, read from the small clamped table.
        symbols = symbols.reshape(len(symbols), -1)
        noise_table = np.maximum(noise_table.reshape(len(symbols), -1), 1e-12)
        if len(rows) == len(symbols):
            group.carry = ()
        else:
            symbols, noise_table = symbols[rows], noise_table[rows]
        gathered.append(np.take(symbols, symbol_index, axis=1))
        noises.append(np.take(noise_table, noise_index, axis=1))
        shapes.append((len(rows), symbol_index.size * bits_per_symbol))
    llrs = soft_demap(_end_to_end(gathered), modulation, _end_to_end(noises))
    del symbols, noise_table, gathered, noises  # before the bit arrays exist

    # The pass-through decoder is a hard decision on every LLR, so the
    # stream decodes as one array; its bytes are the decoded bits.
    hard = llrs < 0
    decoded = hard.view(np.uint8)
    lo = 0
    for (group, rows), shape in zip(blocks, shapes):
        hi = lo + shape[0] * shape[1]
        llrs_rows = llrs[lo:hi].reshape(shape)
        # A NaN LLR hard-decides to bit 0 and the all-zero block passes
        # CRC24A, so a user with a non-finite soft bit fails outright (one
        # reduction a block: a row's sum is non-finite exactly when some
        # LLR in it is).
        finite_rows = np.isfinite(llrs_rows.sum(axis=1))
        decoded_rows = decoded[lo:hi].reshape(shape)
        ok_rows = crc_check_rows(hard[lo:hi].reshape(shape), CRC24A)
        for index, row in enumerate(rows):
            user = group.rows[row]
            user.out[user.position] = UserResult(
                user_id=user.user_id,
                payload=decoded_rows[index][: -CRC24A.width],
                crc_ok=bool(ok_rows[index] and finite_rows[index]),
                llrs=llrs_rows[index],
            )
        lo = hi


def _chest_group(group: _FrontGroup) -> None:
    """Chest stage: all (user, slot, antenna, layer) estimates of one front
    group as one matched filter + IFFT + window + FFT."""
    views = group.grids  # one view is not copied
    group.grids = views[0][None] if len(views) == 1 else np.stack(views)
    if group.grids.shape[2:] != (SLOTS_PER_SUBFRAME * SYMBOLS_PER_SLOT, group.num_sc):
        raise ValueError(
            "received grids must hold 14 SC-FDMA symbols of the allocation's "
            "subcarrier width"
        )
    refs = group.grids[:, :, REFERENCE_SYMBOL_INDEX::SYMBOLS_PER_SLOT, :]
    channel, noise = batched_chest(refs.transpose(0, 2, 1, 3), group.layers)
    # Per-(user, slot) noise estimate: mean over the (antenna, layer) task
    # grid, matching the serial join's np.mean over its list.
    noise = noise.reshape(len(noise), SLOTS_PER_SUBFRAME, -1)
    noise = np.add.reduce(noise, axis=-1) / noise.shape[-1]
    group.carry = (channel, noise)


def _symbol_group(group: _FrontGroup) -> None:
    """Symbol stage: antenna combining + SC-FDMA IFFT of one front group's
    data symbols, both slots in one einsum and one IFFT."""
    users, antennas, _, num_sc = group.grids.shape
    data = group.grids.reshape(
        users, antennas, SLOTS_PER_SUBFRAME, SYMBOLS_PER_SLOT, num_sc
    )[:, :, :, _DATA_IN_SLOT]
    weights, noise_table = group.carry
    # (users, slots, layers, 6, K): the layout _tail_gather indexes.
    symbols = batched_combine_symbols(data.transpose(0, 2, 1, 3, 4), weights)
    group.carry = (symbols, noise_table)
    group.grids = None


def _run_stages(groups: list[_FrontGroup], stage_timer) -> None:
    """The batched chain over all of a call's front groups, stage-major:
    each stage batches along whichever axis its kernel is element-wise in
    (module docstring). Every user's result lands where its row says."""
    for group in groups:
        with stage_timer("chest", len(group.rows)):
            _chest_group(group)

    bundles: dict[tuple[int, int], list[_FrontGroup]] = {}
    for group in groups:
        bundles.setdefault((group.grids.shape[1], group.layers), []).append(group)
    for bundle in bundles.values():
        with stage_timer("combiner", sum(len(group.rows) for group in bundle)):
            _combine_bundle(bundle)

    for group in groups:
        with stage_timer("symbol", len(group.rows)):
            _symbol_group(group)

    streams: dict[Modulation, list[tuple[_FrontGroup, list[int]]]] = {}
    for group in groups:
        rows_of: dict[Modulation, list[int]] = {}
        for row, user in enumerate(group.rows):
            rows_of.setdefault(user.modulation, []).append(row)
        for modulation, rows in rows_of.items():
            streams.setdefault(modulation, []).append((group, rows))
    for modulation, blocks in streams.items():
        with stage_timer("finalize", sum(len(rows) for _, rows in blocks)):
            _finalize_stream(modulation, blocks)


def process_subframes(
    subframes: list[SubframeInput],
    backend: str = "serial",
    stage_timer=None,
) -> list[SubframeResult]:
    """Process ``subframes`` on a single-thread backend, one result each.

    ``backend="serial"`` runs :func:`repro.phy.chain.process_user` on
    each user, one subframe after another. ``backend="vectorized"``
    collects the users of *all* the given subframes once and runs the
    batched chain stage by stage over them (module docstring), so a
    stage's fixed cost is paid per call and per batching key rather than
    per subframe and per shape. Either way
    every result is bit-exact with processing its subframe alone (the
    batched kernels treat rows and subcarriers independently), with
    ``user_results`` in slice order.

    ``stage_timer(kernel, batch)`` is an optional context-manager factory
    for per-kernel wall-clock attribution (``kernel`` is one of
    :data:`repro.uplink.tasks.KERNEL_KINDS`, ``batch`` the users in that
    stage call); the default is a no-op, keeping this module free of
    host-clock reads. ``stage_timer`` applies to the vectorized backend
    only.
    """
    if backend == "serial":
        return [process_subframe_serial(s) for s in subframes]
    if backend != "vectorized":
        raise ValueError(
            f"unknown backend {backend!r} (choose from {FUNCTIONAL_BACKENDS})"
        )
    # Front groups in order of first appearance. Subframes of different
    # cells may differ in antenna count, which a stacked grid cannot, so it
    # joins the key.
    ordered: list[list] = [[None] * len(s.slices) for s in subframes]
    groups: dict[tuple, _FrontGroup] = {}
    for subframe, results in zip(subframes, ordered):
        grid = subframe.grid
        for position, user_slice in enumerate(subframe.slices):
            user = user_slice.user
            key = (grid.shape[0], user.num_subcarriers, user.layers)
            group = groups.get(key)
            if group is None:
                group = groups[key] = _FrontGroup(*key[1:])
            group.grids.append(user_slice.view(grid))
            group.rows.append(
                _Row(results, position, user.user_id, user.modulation)
            )
    _run_stages(list(groups.values()), stage_timer or _null_timer)
    return [
        SubframeResult(subframe_index=s.subframe_index, user_results=users)
        for s, users in zip(subframes, ordered)
    ]


def process_subframe_vectorized(
    subframe: SubframeInput, stage_timer=None
) -> SubframeResult:
    """One subframe on the batched vectorized backend:
    ``process_subframes([subframe], backend="vectorized")[0]``."""
    return process_subframes([subframe], "vectorized", stage_timer)[0]

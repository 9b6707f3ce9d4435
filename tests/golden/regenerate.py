"""Regenerate the golden kernel vectors in ``tests/golden/vectors/``.

One compressed ``.npz`` per Fig. 5 kernel (chest, combiner, symbol,
finalize), each self-contained: it stores the kernel's *inputs* alongside
the expected *outputs*, all produced by the serial reference chain from a
pinned-seed synthesized subframe. The golden tests replay both the serial
and the batched kernels against these inputs and demand bit-exact
outputs, so any numerical drift — a NumPy upgrade, a kernel rewrite, a
dtype regression — fails loudly against a committed artifact instead of
only against a same-process re-run.

Run from the repo root after an *intentional* numerical change:

    PYTHONPATH=src python tests/golden/regenerate.py

and commit the updated ``.npz`` files together with the change that
justified them.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.phy.chain import combiner_stage, finalize_user, symbol_task
from repro.phy.chest import chest_task
from repro.phy.params import (
    REFERENCE_SYMBOL_INDEX,
    SLOTS_PER_SUBFRAME,
    SYMBOLS_PER_SLOT,
    Modulation,
)
from repro.phy.transmitter import data_symbol_indices
from repro.uplink.subframe import SubframeFactory
from repro.uplink.user import UserParameters

#: Everything below is pinned: changing any of these constants invalidates
#: the committed vectors and requires regeneration.
GOLDEN_SEED = 2012  # the paper's publication year, for memorability
GOLDEN_USER = dict(num_prb=8, layers=2, modulation=Modulation.QAM16)
VECTOR_DIR = Path(__file__).resolve().parent / "vectors"


def build_golden_vectors() -> dict[str, dict[str, np.ndarray]]:
    """Run the serial chain stage by stage, capturing kernel I/O."""
    user = UserParameters(user_id=0, **GOLDEN_USER)
    subframe = SubframeFactory(seed=GOLDEN_SEED).synthesize([user], 0)
    received = subframe.slices[0].view(subframe.grid)
    antennas = received.shape[0]
    layers = user.layers
    num_sc = received.shape[2]

    # --- chest: all (slot, antenna, layer) estimation tasks ------------
    refs = np.stack(
        [
            received[:, slot * SYMBOLS_PER_SLOT + REFERENCE_SYMBOL_INDEX, :]
            for slot in range(SLOTS_PER_SUBFRAME)
        ]
    )  # (slots, antennas, sc)
    channel = np.empty(
        (SLOTS_PER_SUBFRAME, antennas, layers, num_sc), dtype=np.complex128
    )
    noise = np.empty((SLOTS_PER_SUBFRAME, antennas, layers))
    for slot in range(SLOTS_PER_SUBFRAME):
        for antenna in range(antennas):
            for layer in range(layers):
                estimate, task_noise = chest_task(refs[slot, antenna], layer)
                channel[slot, antenna, layer, :] = estimate
                noise[slot, antenna, layer] = task_noise

    # --- combiner: the per-slot join --------------------------------------
    noise_variance = noise.reshape(SLOTS_PER_SUBFRAME, -1).mean(axis=-1)
    weights = np.empty(
        (SLOTS_PER_SUBFRAME, layers, antennas, num_sc), dtype=np.complex128
    )
    noise_after = np.empty((SLOTS_PER_SUBFRAME, layers, num_sc))
    for slot in range(SLOTS_PER_SUBFRAME):
        estimate = combiner_stage(channel[slot], float(noise_variance[slot]))
        weights[slot] = estimate.weights
        noise_after[slot] = estimate.noise_after_combining

    # --- symbol: all (data symbol, layer) combining tasks ------------------
    data_idx = data_symbol_indices()
    data = received[:, data_idx, :]  # (antennas, 12, sc)
    layer_symbols = np.empty(
        (layers, len(data_idx), num_sc), dtype=np.complex128
    )
    for row, sym in enumerate(data_idx):
        slot = sym // SYMBOLS_PER_SLOT
        for layer in range(layers):
            layer_symbols[layer, row, :] = symbol_task(
                received[:, sym, :], weights[slot], layer
            )

    # --- finalize: deinterleave -> demap -> CRC ----------------------------
    noise_per_layer_slot = noise_after.mean(axis=-1).T  # (layers, slots)
    result = finalize_user(
        user.allocation, layer_symbols, noise_per_layer_slot, user_id=0
    )

    return {
        "chest": {
            "refs": refs,
            "layers": np.int64(layers),
            "channel": channel,
            "noise": noise,
        },
        "combiner": {
            "channel": channel,
            "noise_variance": noise_variance,
            "weights": weights,
            "noise_after": noise_after,
        },
        "symbol": {
            "data": data,
            "weights": weights,
            "layer_symbols": layer_symbols,
        },
        "finalize": {
            "layer_symbols": layer_symbols,
            "noise_per_layer_slot": noise_per_layer_slot,
            "llrs": result.llrs,
            "payload": result.payload,
            "crc_ok": np.bool_(result.crc_ok),
        },
    }


def main() -> None:
    VECTOR_DIR.mkdir(parents=True, exist_ok=True)
    for kernel, arrays in build_golden_vectors().items():
        path = VECTOR_DIR / f"{kernel}.npz"
        np.savez_compressed(path, **arrays)
        size_kib = path.stat().st_size / 1024
        print(f"wrote {path} ({size_kib:.1f} KiB)")


if __name__ == "__main__":
    main()

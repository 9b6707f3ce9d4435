"""Golden-vector regression tests for every Fig. 5 kernel (tier-1).

Each ``tests/golden/vectors/*.npz`` fixture stores a kernel's inputs and
the serial reference chain's outputs at the pinned seed (see
``regenerate.py``). Both the serial kernel and its batched twin must
reproduce the stored outputs **bit-exactly** — this is the only tier
that compares against a committed artifact rather than a same-process
re-run, so it catches numerical drift between NumPy versions, kernel
rewrites, and dtype regressions that differential tests (which re-run
both sides) are blind to. A mismatch names the kernel and the largest
relative deviation, so last-digit drift (~1e-15) and breakage (~1) read
differently.

After an intentional numerical change, regenerate with
``PYTHONPATH=src python tests/golden/regenerate.py`` and commit the
updated fixtures alongside the change.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.phy.batched import (
    batched_chest,
    batched_combine_symbols,
    batched_combiner_weights,
)
from repro.phy.chain import combiner_stage, finalize_user, symbol_task
from repro.phy.chest import chest_task
from repro.phy.params import (
    DATA_SYMBOLS_PER_SLOT,
    REFERENCE_SYMBOL_INDEX,
    SLOTS_PER_SUBFRAME,
    SYMBOLS_PER_SLOT,
)
from repro.phy.transmitter import data_symbol_indices
from repro.uplink.subframe import SubframeFactory
from repro.uplink.user import UserParameters
from repro.uplink.vectorized import process_subframes

# tests/ is not a package; load the regeneration script by path so the
# pinned seed/user/fixture-dir constants have exactly one home.
_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).with_name("regenerate.py")
)
_regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_regenerate)
GOLDEN_SEED = _regenerate.GOLDEN_SEED
GOLDEN_USER = _regenerate.GOLDEN_USER
VECTOR_DIR = _regenerate.VECTOR_DIR


def _load(kernel: str) -> dict[str, np.ndarray]:
    path = VECTOR_DIR / f"{kernel}.npz"
    if not path.exists():
        pytest.fail(
            f"missing golden fixture {path}; run "
            "`PYTHONPATH=src python tests/golden/regenerate.py`"
        )
    with np.load(path) as data:
        return {name: data[name] for name in data.files}


def _assert_golden(kernel: str, name: str, got, want) -> None:
    """``array_equal``, failing with the kernel and the max relative deviation."""
    got, want = np.asarray(got), np.asarray(want)
    if np.array_equal(got, want):
        return
    if got.shape != want.shape:
        pytest.fail(f"{kernel}.{name}: shape {got.shape}, golden {want.shape}")
    with np.errstate(all="ignore"):
        deviation = np.max(np.abs(got - want)) / np.max(np.abs(want))
    pytest.fail(
        f"{kernel}.{name} differs from the golden vector in "
        f"{np.count_nonzero(got != want)} of {want.size} values, max relative "
        f"deviation {deviation:.3e} (|got - golden| over max |golden|)"
    )


@pytest.fixture(scope="module")
def golden_user():
    return UserParameters(user_id=0, **GOLDEN_USER)


@pytest.fixture(scope="module")
def golden_subframe(golden_user):
    return SubframeFactory(seed=GOLDEN_SEED).synthesize([golden_user], 0)


@pytest.fixture(scope="module")
def golden_received(golden_subframe):
    return golden_subframe.slices[0].view(golden_subframe.grid)


class TestFixtureProvenance:
    def test_stored_inputs_match_pinned_seed(self, golden_received):
        """The committed inputs really are the pinned-seed subframe."""
        chest = _load("chest")
        refs = np.stack(
            [
                golden_received[
                    :, slot * SYMBOLS_PER_SLOT + REFERENCE_SYMBOL_INDEX, :
                ]
                for slot in range(SLOTS_PER_SUBFRAME)
            ]
        )
        assert np.array_equal(chest["refs"], refs)
        symbol = _load("symbol")
        assert np.array_equal(
            symbol["data"], golden_received[:, data_symbol_indices(), :]
        )


class TestChestGolden:
    def test_serial_kernel(self):
        g = _load("chest")
        layers = int(g["layers"])
        slots, antennas, _ = g["refs"].shape
        for slot in range(slots):
            for antenna in range(antennas):
                for layer in range(layers):
                    estimate, noise = chest_task(g["refs"][slot, antenna], layer)
                    where = f"[slot {slot}, antenna {antenna}, layer {layer}]"
                    _assert_golden(
                        "chest_task", "channel" + where,
                        estimate, g["channel"][slot, antenna, layer],
                    )
                    _assert_golden(
                        "chest_task", "noise" + where,
                        noise, g["noise"][slot, antenna, layer],
                    )

    def test_batched_kernel(self):
        g = _load("chest")
        channel, noise = batched_chest(g["refs"], int(g["layers"]))
        _assert_golden("batched_chest", "channel", channel, g["channel"])
        _assert_golden("batched_chest", "noise", noise, g["noise"])


class TestCombinerGolden:
    def test_serial_kernel(self):
        g = _load("combiner")
        for slot in range(g["channel"].shape[0]):
            estimate = combiner_stage(
                g["channel"][slot], float(g["noise_variance"][slot])
            )
            _assert_golden(
                "combiner_stage", f"weights[slot {slot}]",
                estimate.weights, g["weights"][slot],
            )
            _assert_golden(
                "combiner_stage", f"noise_after[slot {slot}]",
                estimate.noise_after_combining, g["noise_after"][slot],
            )

    def test_batched_kernel(self):
        g = _load("combiner")
        weights, noise_after = batched_combiner_weights(
            g["channel"], g["noise_variance"]
        )
        _assert_golden("batched_combiner_weights", "weights", weights, g["weights"])
        _assert_golden(
            "batched_combiner_weights", "noise_after", noise_after, g["noise_after"]
        )


class TestSymbolGolden:
    def test_serial_kernel(self):
        g = _load("symbol")
        layers = g["layer_symbols"].shape[0]
        for row, sym in enumerate(data_symbol_indices()):
            slot = sym // SYMBOLS_PER_SLOT
            for layer in range(layers):
                got = symbol_task(g["data"][:, row, :], g["weights"][slot], layer)
                _assert_golden(
                    "symbol_task", f"layer_symbols[layer {layer}, row {row}]",
                    got, g["layer_symbols"][layer, row],
                )

    def test_batched_kernel(self):
        g = _load("symbol")
        per_slot = []
        for slot in range(SLOTS_PER_SUBFRAME):
            lo = slot * DATA_SYMBOLS_PER_SLOT
            per_slot.append(
                batched_combine_symbols(
                    g["data"][:, lo : lo + DATA_SYMBOLS_PER_SLOT, :],
                    g["weights"][slot],
                )
            )
        _assert_golden(
            "batched_combine_symbols", "layer_symbols",
            np.concatenate(per_slot, axis=1), g["layer_symbols"],
        )


class TestFinalizeGolden:
    def test_serial_kernel(self, golden_user):
        g = _load("finalize")
        result = finalize_user(
            golden_user.allocation,
            g["layer_symbols"],
            g["noise_per_layer_slot"],
            user_id=0,
        )
        _assert_golden("finalize_user", "llrs", result.llrs, g["llrs"])
        _assert_golden("finalize_user", "payload", result.payload, g["payload"])
        assert result.crc_ok == bool(g["crc_ok"])
        assert result.crc_ok


class TestFullChainGolden:
    def test_vectorized_chain_hits_golden_tail(self, golden_subframe):
        """End to end: the batched backend reproduces the stored outputs."""
        g = _load("finalize")
        [subframe] = process_subframes([golden_subframe], backend="vectorized")
        [result] = subframe.user_results
        _assert_golden("process_subframes", "llrs", result.llrs, g["llrs"])
        _assert_golden("process_subframes", "payload", result.payload, g["payload"])
        assert result.crc_ok

"""Serve-vs-batch differential (ISSUE 9 satellite 2).

A single-cell constant-rate serve run must be *bit-exact* with the
equivalent batch driver at the same seed: cell 0's global subframe ids
equal its ticks, ``make_arrivals("constant")`` *is* the batch parameter
model, and the synthesis RNG is keyed on ``(seed, 1, id)``
— so every numeric output of the pipeline must match, not just the CRC
verdicts. Admission shedding is disabled (``max_activity`` huge) and
backpressure set to ``block`` because the batch driver has neither.
"""

import pytest

from repro.serve import ServeConfig, serve
from repro.uplink.parameter_model import RandomizedParameterModel
from repro.uplink.serial import process_subframe
from repro.uplink.subframe import SubframeFactory

SEED = 7
SUBFRAMES = 8
MAX_USERS = 4


def _serve_results(backend):
    result = serve(
        ServeConfig(
            cells=1,
            subframes=SUBFRAMES,
            arrival="constant",
            max_users=MAX_USERS,
            backend=backend,
            pace=False,
            synthesize=True,
            backpressure="block",
            max_activity=100.0,
            queue_depth=4,
            seed=SEED,
            keep_results=True,
        )
    )
    assert result.ok, result.errors
    return result


def _batch_result(factory, model, index, backend):
    users = model.uplink_parameters(index)
    subframe = factory.synthesize(users, index)
    # The threaded runtime runs the serial reference's per-task kernels.
    if backend == "threaded":
        backend = "serial"
    return process_subframe(subframe, backend=backend)


@pytest.mark.parametrize("backend", ["serial", "vectorized", "threaded"])
def test_single_cell_serve_is_bit_exact_with_batch(backend):
    served = _serve_results(backend)
    model = RandomizedParameterModel(
        total_subframes=max(2, SUBFRAMES), seed=SEED, max_users=MAX_USERS
    )
    factory = SubframeFactory(seed=SEED)
    assert sorted(served.results) == list(range(SUBFRAMES))
    for index in range(SUBFRAMES):
        batch = _batch_result(factory, model, index, backend)
        assert served.results[index].equals(batch), (
            f"subframe {index} diverged from batch on {backend}"
        )


def test_synthesized_constant_stream_decodes_cleanly():
    """The well-served-cell channel gives all-ok terminals, as batch does."""
    served = _serve_results("vectorized")
    counts = served.report["terminal_counts"]
    assert counts["ok"] == SUBFRAMES
    assert counts["crc_failed"] == counts["shed"] == counts["aborted"] == 0
    assert served.report["crc_ok_users"] == served.report["served_users"]
    assert served.report["shed_users"] == 0


@pytest.mark.parametrize("synthesize", [True, False])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_flood_that_batches_equals_one_that_cannot(seed, synthesize):
    """Under backlog the inline runtime runs what is queued as one call.
    With ``queue_depth=1`` no batch can ever form, with 8 one forms
    whenever the producer gets ahead (all the time on pool input, now and
    then behind the slower synthesis): the two floods must agree subframe
    by subframe on every payload and CRC verdict, not just on the counts."""

    def flood(queue_depth):
        result = serve(
            ServeConfig(
                cells=2,
                subframes=40,
                arrival="poisson",
                rate=2.0,
                mix="mmtc",
                max_users=10,
                backend="vectorized",
                pace=False,
                synthesize=synthesize,
                backpressure="block",
                queue_depth=queue_depth,
                seed=seed,
                keep_results=True,
            )
        )
        assert result.ok, result.errors
        return result

    deep, single = flood(8), flood(1)
    # Whether a backlog builds up at depth 8 is the host's business (the
    # contract test forces one); at depth 1 none can.
    assert max(c["max_queue_depth"] for c in single.report["per_cell"]) == 1
    for key in (
        "dispatched", "terminal_counts", "served_users", "crc_ok_users",
        "ledger_ok",
    ):
        assert deep.report[key] == single.report[key], key
    assert sorted(deep.results) == sorted(single.results)
    assert len(deep.results) == deep.report["dispatched"] > 40
    if synthesize:
        assert deep.report["crc_ok_users"] == deep.report["served_users"] > 0
    for gid, batched in deep.results.items():
        alone = single.results[gid]
        assert batched.equals(alone), f"subframe {gid} (seed {seed})"
        for a, b in zip(batched.user_results, alone.user_results):
            assert a.user_id == b.user_id and a.crc_ok == b.crc_ok

"""Serve soak tests (ISSUE 9 satellite 3).

Tier-1: a bounded headless run — a few hundred subframes across
multiple cells — asserting the three survival invariants end to end:
zero lost subframes in the shared ledger, monotone per-cell subframe
ids, and a ``--json``-shape report that passes schema validation.

Slow tier: the same soak under chaos on the multiprocess backend, where
injected worker deaths (SIGKILL via the fault plan) and overload bursts
must degrade into shed/aborted terminals — never into unaccounted work.
"""

import json

import pytest

from repro.serve import ServeConfig, make_arrivals, serve, validate_serve_report

CELLS = 3
SUBFRAMES = 120  # 360 subframe slots across the run
SEED = 11
STRIDE = 1_000_003  # ServeConfig.cell_seed_stride default


def _expected_nonempty(cell_id):
    """Replay the cell's seeded arrival stream: ticks that offer users.

    Empty subframes are skipped by the serve loop (no grant, nothing to
    decode), so the expected dispatch count is arrival-process data — and
    recomputing it here also pins seed determinism end to end.
    """
    arrivals = make_arrivals(
        "poisson", seed=SEED + STRIDE * cell_id, rate=3.0, max_users=4
    )
    return [t for t in range(SUBFRAMES) if arrivals.uplink_parameters(t)]


@pytest.fixture(scope="module")
def soak_result():
    return serve(
        ServeConfig(
            cells=CELLS,
            subframes=SUBFRAMES,
            arrival="poisson",
            rate=3.0,
            backend="vectorized",
            pace=False,
            queue_depth=8,
            seed=SEED,
            keep_results=False,
        )
    )


class TestHeadlessSoak:
    def test_run_survives(self, soak_result):
        assert soak_result.errors == []
        assert soak_result.ok

    def test_zero_lost_subframes(self, soak_result):
        """Every arrival reached exactly one terminal state."""
        soak_result.ledger.check()  # raises LedgerError on any imbalance
        report = soak_result.report
        expected = sum(len(_expected_nonempty(c)) for c in range(CELLS))
        assert report["ledger_ok"] is True
        assert report["dispatched"] == expected
        assert sum(report["terminal_counts"].values()) == expected

    def test_per_cell_ids_are_monotone(self, soak_result):
        per_cell = soak_result.report["per_cell"]
        assert len(per_cell) == CELLS
        for cell in per_cell:
            nonempty = _expected_nonempty(cell["cell"])
            assert cell["monotone_ids"] is True
            assert cell["last_tick"] == nonempty[-1]
            assert cell["dispatched"] == len(nonempty)

    def test_report_validates_and_serializes(self, soak_result):
        assert validate_serve_report(soak_result.report) == []
        round_tripped = json.loads(json.dumps(soak_result.report))
        assert round_tripped["schema"] == "repro-serve/2"

    def test_user_accounting_balances(self, soak_result):
        report = soak_result.report
        # Every offered user is either admitted or shed, exactly once.
        assert (
            report["admitted_users"] + report["shed_users"]
            == report["offered_users"]
        )
        assert report["served_users"] <= report["admitted_users"]
        assert report["crc_ok_users"] <= report["served_users"]


@pytest.mark.slow
class TestChaosSoak:
    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_chaos_soak_degrades_via_shedding_not_loss(self, backend):
        result = serve(
            ServeConfig(
                cells=2,
                subframes=80,
                arrival="poisson",
                rate=3.0,
                backend=backend,
                workers=2,
                pace=False,
                queue_depth=4,
                seed=23,
                faults=True,
                keep_results=False,
            )
        )
        report = result.report
        # Chaos may abort subframes, but the ledger must stay balanced:
        # every dispatched subframe holds exactly one terminal state.
        result.ledger.check()  # raises LedgerError on any imbalance
        assert report["ledger_ok"] is True
        assert report["dispatched"] == sum(report["terminal_counts"].values())
        assert report["dispatched"] > 0
        assert report["config"]["faults"] is True
        assert validate_serve_report(report) == []

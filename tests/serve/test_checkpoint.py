"""Crash-safe checkpoint/resume: the checkpoint is the ``repro-serve/2`` report.

The acceptance criterion is *differential*: kill a run midway, resume
from its last record — a periodic cut, the final checkpoint or a
``--json-out`` report — and the per-subframe terminal-state map must
equal an uninterrupted run at the same seed.
That only holds for configs where every decision is a pure function of
(seed, tick): backpressure sheds depend on inflight timing relative to
the checkpoint cut, so the canonical differential config disables
pacing and sizes the queue so backpressure can never engage
(``queue_depth >= subframes``). The remaining tests pin the record as a
checkpoint: atomic writes (no torn file is ever visible), the
config-signature guard, and corrupt-file and unknown-schema rejection.
"""

import json

import pytest

from repro.cli import main
from repro.serve import (
    ServeConfig,
    load_checkpoint,
    serve,
    validate_checkpoint,
    validate_serve_report,
)

BASE = dict(
    cells=2,
    subframes=120,
    backend="serial",
    pace=False,
    arrival="poisson",
    rate=2.0,
    seed=7,
    queue_depth=200,  # >= subframes: backpressure provably never engages
    keep_results=False,
)


def _serve(**overrides):
    return serve(ServeConfig(**{**BASE, **overrides}))


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "full.json"
    result = _serve(checkpoint_path=str(path))
    assert result.ok, result.errors
    return result


#: ``BASE`` as ``repro serve`` flags.
CLI = [
    "serve", "--cells", "2", "--subframes", "120", "--backend", "serial",
    "--no-pace", "--arrival", "poisson", "--rate", "2.0", "--seed", "7",
    "--queue-depth", "200",
]


class TestResumeDifferential:
    def test_the_final_checkpoint_is_the_report(self, uninterrupted):
        record = load_checkpoint(uninterrupted.report["config"]["checkpoint_path"])
        assert record == json.loads(json.dumps(uninterrupted.report))

    def test_a_json_out_cut_resumes_through_the_cli(
        self, tmp_path, uninterrupted, capsys
    ):
        """No ``--checkpoint`` anywhere: the report of a ``--max-wall`` cut
        is itself the resume point."""
        cut, resumed = str(tmp_path / "cut.json"), str(tmp_path / "resumed.json")
        assert main(CLI + ["--max-wall", "0.005", "--json-out", cut]) == 124
        assert main(CLI + ["--resume", cut, "--json-out", resumed]) == 0
        capsys.readouterr()
        first, second = (json.loads(open(p).read()) for p in (cut, resumed))
        assert validate_serve_report(first) == validate_serve_report(second) == []
        full = uninterrupted.report["terminal_states"]
        assert 0 < len(first["terminal_states"]) < len(full)
        assert second["terminal_states"] == full
        assert second["checkpoint"]["segments"] == 2

    def test_cut_and_resume_matches_uninterrupted(
        self, tmp_path, uninterrupted
    ):
        full = uninterrupted.report
        assert validate_serve_report(full) == []
        assert full["backpressure_hits"] == 0  # precondition for equality
        assert full["checkpoint"]["completed"]
        full_map = full["terminal_states"]
        assert len(full_map) == full["dispatched"]

        ckpt = str(tmp_path / "cut.json")
        # The budget is checked where ticks are submitted, and unpaced
        # submission of both cells' 120 ticks takes ~20-25 ms on a 2-CPU
        # Xeon once the process's input pool exists: cut well inside that.
        cut = _serve(
            checkpoint_path=ckpt, checkpoint_every_s=0.02, max_wall_s=0.005
        )
        report = cut.report
        assert report["max_wall_hit"] is True
        assert report["ledger_ok"]  # the running segment resolved cleanly
        assert not report["checkpoint"]["completed"]
        cut_map = report["terminal_states"]
        assert 0 < len(cut_map) < len(full_map)
        snapshot = load_checkpoint(ckpt)
        assert snapshot["schema"] == "repro-serve/2"
        assert snapshot["checkpoint"]["completed"] is False
        assert validate_checkpoint(snapshot, ServeConfig(**BASE)) == []

        resumed = _serve(resume_path=ckpt, checkpoint_path=ckpt)
        assert resumed.ok, resumed.errors
        report = resumed.report
        assert validate_serve_report(report) == []
        assert report["checkpoint"]["segments"] == 2
        assert report["config"]["resume_path"] == ckpt
        # Exactly-once terminal accounting across the cut: the combined
        # map is the uninterrupted map, entry for entry.
        assert report["terminal_states"] == full_map
        for key in (
            "offered_users",
            "served_users",
            "shed_users",
            "crc_ok_users",
            "dispatched",
            "terminal_counts",
        ):
            assert report[key] == full[key], key
        assert load_checkpoint(ckpt)["checkpoint"]["completed"] is True

    def test_a_record_without_shed_reasons_still_resumes(self, tmp_path):
        """A record written before ``shed_reasons`` existed resumes, and
        its shed ticks count as ``unrecorded``."""
        ckpt = tmp_path / "done.json"
        assert _serve(queue_depth=1, checkpoint_path=str(ckpt)).ok
        record = load_checkpoint(ckpt)
        shed = record["terminal_counts"]["shed"]
        assert shed > 0  # a queue of one sheds under ``shed``
        del record["shed_reasons"]
        for row in record["per_cell"]:
            del row["shed_reasons"]
        ckpt.write_text(json.dumps(record))
        resumed = _serve(queue_depth=1, resume_path=str(ckpt))
        assert resumed.ok, resumed.errors
        report = resumed.report
        assert validate_serve_report(report) == []
        assert report["terminal_counts"] == record["terminal_counts"]
        assert report["shed_reasons"] == {
            "admission": 0, "backpressure": 0, "surge": 0, "unrecorded": shed,
        }

    def test_resume_from_completed_run_is_a_noop_segment(
        self, tmp_path, uninterrupted
    ):
        full = uninterrupted.report
        ckpt = str(tmp_path / "done.json")
        done = _serve(checkpoint_path=ckpt)
        assert done.ok
        resumed = _serve(resume_path=ckpt)
        assert resumed.ok, resumed.errors
        report = resumed.report
        assert report["dispatched"] == full["dispatched"]
        assert report["terminal_counts"] == full["terminal_counts"]
        # Nothing left to run: the second segment dispatches zero new
        # subframes but still reports the restored totals.
        assert report["checkpoint"]["segments"] == 2


BACKENDS = ["serial", "vectorized", "threaded", "multiprocess"]


class TestCheckpointCadence:
    """``--checkpoint-every`` is a floor between cuts, not a rate.

    The loop sleeps the interval *after* each write, and a write on a
    GIL-saturated flood can itself take tens of ms, so a run writes at most
    ``wall_s / every`` periodic cuts and usually fewer.
    """

    EVERY_S = 0.02

    def test_periodic_cuts_never_outpace_the_floor(self, tmp_path):
        result = _serve(
            checkpoint_path=str(tmp_path / "c.json"), checkpoint_every_s=self.EVERY_S
        )
        assert result.ok, result.errors
        report = result.report
        writes = report["checkpoint"]["writes"]
        assert 1 <= writes <= report["wall_s"] / self.EVERY_S


@pytest.mark.parametrize("backend", BACKENDS)
class TestCrcAccountingAtTheTerminal:
    """``crc_ok_users`` is folded in at each terminal, on every backend.

    Synthesized subframes at this seed all decode (no ``crc_failed``
    tick), so in any consistent cut every served user is a CRC-ok user.
    Runtime-backed cells used to learn ``crc_ok`` only when results were
    collected at the end of the run: a periodic snapshot of a ``threaded``
    cell read ``crc_ok_users: 0`` beside dozens of resolved ``ok`` ticks,
    and a SIGKILL-and-resume from it undercounted silently.

    The queue holds 8 and ``block`` never sheds, so the producer yields
    between calls and cuts land mid-run on every backend (an inline cell's
    PHY runs on the loop thread: with ``BASE``'s depth of 200 it would run
    only after the last dispatch). Every decision stays a function of the
    seed and the tick.
    """

    CONFIG = dict(
        backend=None, subframes=40, synthesize=True, checkpoint_every_s=0.02,
        queue_depth=8, backpressure="block",
    )

    def _serve(self, backend, **overrides):
        return _serve(**{**self.CONFIG, "backend": backend, **overrides})

    def test_periodic_snapshots_count_crc_ok_users(
        self, backend, tmp_path, monkeypatch
    ):
        from repro.serve import loop

        snapshots = []
        write = loop.atomic_write_json

        def recording_write(path, record, **kwargs):
            snapshots.append(json.loads(json.dumps(record)))
            write(path, record, **kwargs)

        monkeypatch.setattr(loop, "atomic_write_json", recording_write)
        result = self._serve(backend, checkpoint_path=str(tmp_path / "c.json"))
        assert result.ok, result.errors
        assert result.report["terminal_counts"]["crc_failed"] == 0
        periodic = snapshots[:-1]  # the last write is the final record
        assert all(not cut["checkpoint"]["completed"] for cut in periodic)
        served = 0
        for cut in periodic:
            assert set(cut["terminal_states"].values()) <= {"ok", "shed"}
            assert cut["crc_ok_users"] == cut["served_users"]
            for row in cut["per_cell"]:
                assert row["crc_ok_users"] == row["served_users"]
            served += cut["served_users"]
        assert served > 0, "no periodic snapshot caught a resolved subframe"

    def test_cut_and_resume_reproduces_crc_ok_users(self, backend, tmp_path):
        full = self._serve(backend).report
        assert full["crc_ok_users"] == full["served_users"] > 0
        ckpt = str(tmp_path / "cut.json")
        cut = self._serve(
            backend, checkpoint_path=ckpt, max_wall_s=0.4 * full["wall_s"]
        ).report
        assert cut["max_wall_hit"] and cut["ledger_ok"]
        assert cut["dispatched"] < full["dispatched"]
        resumed = self._serve(backend, resume_path=ckpt, checkpoint_path=ckpt)
        assert resumed.ok, resumed.errors
        report = resumed.report
        for key in ("crc_ok_users", "served_users", "terminal_counts"):
            assert report[key] == full[key], key
        assert report["terminal_states"] == full["terminal_states"]


class TestSignatureComesFromTheFieldDeclarations:
    SIGNATURE = {
        "seed", "cells", "subframes", "delta_s", "arrival", "rate", "daily_users",
        "subframes_per_hour", "burst_size", "burst_period", "burst_window", "mix",
        "max_users", "backend", "workers", "queue_depth", "backpressure",
        "synthesize", "max_activity", "faults",
    }

    def test_signature_is_exactly_the_fields_marked_signature(self, uninterrupted):
        """A record resumes under a config that differs from its own
        exactly when the difference is in no ``signature`` field."""
        import dataclasses

        marked = {
            f.name
            for f in dataclasses.fields(ServeConfig)
            if f.metadata.get("signature")
        }
        assert marked == self.SIGNATURE
        record = json.loads(json.dumps(uninterrupted.report))
        rejected = set()
        for f in dataclasses.fields(ServeConfig):
            if "flag" not in f.metadata:
                continue
            edited = {**record, "config": {**record["config"], f.name: "other"}}
            if validate_checkpoint(edited, ServeConfig(**BASE)):
                rejected.add(f.name)
        assert rejected == self.SIGNATURE


class TestSnapshotGuards:
    def test_signature_mismatch_names_the_field(self, tmp_path):
        ckpt = str(tmp_path / "sig.json")
        _serve(subframes=8, checkpoint_path=ckpt)
        with pytest.raises(ValueError, match="seed"):
            _serve(subframes=8, seed=8, resume_path=ckpt)

    @pytest.mark.parametrize("key", ["wall_s", "terminal_states", "checkpoint"])
    def test_a_record_missing_what_resume_reads_is_refused(
        self, tmp_path, uninterrupted, key
    ):
        path = tmp_path / "partial.json"
        record = json.loads(json.dumps(uninterrupted.report))
        del record[key]
        path.write_text(json.dumps(record))
        with pytest.raises(ValueError, match=f"not resumable.*{key}"):
            _serve(resume_path=str(path))

    def test_corrupt_snapshot_rejected(self, tmp_path):
        path = tmp_path / "torn.json"
        path.write_text('{"schema": "repro-ckpt/1", "cell')
        with pytest.raises(ValueError):
            load_checkpoint(str(path))

    def test_wrong_schema_rejected(self, tmp_path):
        # repro-ckpt/1, the snapshot before the checkpoint became the
        # report, is one more unknown schema.
        path = tmp_path / "wrong.json"
        for schema in ("repro-serve/1", "repro-ckpt/1"):
            path.write_text(json.dumps({"schema": schema}))
            with pytest.raises(ValueError, match="schema"):
                load_checkpoint(str(path))

    def test_checkpoint_write_is_atomic(self, tmp_path):
        # The writer goes through tmp+rename: after any run, the
        # directory holds only the final file — no .tmp litter that a
        # crash-landed reader could mistake for a snapshot.
        ckpt = tmp_path / "atomic.json"
        _serve(
            subframes=30,
            checkpoint_path=str(ckpt),
            checkpoint_every_s=0.01,
        )
        leftovers = [p.name for p in tmp_path.iterdir() if p != ckpt]
        assert leftovers == []
        assert load_checkpoint(str(ckpt))["checkpoint"]["completed"] is True

    @pytest.mark.parametrize(
        "kwargs",
        [{"checkpoint_every_s": 0.0}, {"max_wall_s": -1.0}],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServeConfig(cells=1, subframes=2, **kwargs).validate()

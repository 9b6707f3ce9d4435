"""Public API surface checks: every ``__all__`` name exists and imports."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.phy",
    "repro.uplink",
    "repro.sched",
    "repro.sim",
    "repro.power",
    "repro.experiments",
    "repro.obs",
    "repro.faults",
    "repro.analysis",
    "repro.serve",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_package_imports(package):
    importlib.import_module(package)


@pytest.mark.parametrize("package", PACKAGES[1:])
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} must define __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES[1:])
def test_all_is_sorted_uniquely(package):
    module = importlib.import_module(package)
    assert len(set(module.__all__)) == len(module.__all__)


def test_bench_subcommand_is_gone():
    """``perf/`` is the one measuring instrument: no alias, no stub."""
    import re

    from repro.cli import build_parser, main

    assert not re.search(r"\bbench\b", build_parser().format_help())
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2


def test_the_pools_old_seams_and_unused_sim_models_are_gone():
    """Removed on purpose with the subframe-granular pool: the shape-group
    seams and the bank seeding existed only for its parent; the mesh and
    cache models changed no reported figure."""
    import inspect

    from repro import sim
    from repro.phy import batched
    from repro.sched.multiprocess import MultiprocessRuntime
    from repro.sim import CostModel, MachineSimulator
    from repro.uplink import vectorized

    for module, names in (
        (vectorized, ("process_group", "group_slices_by_shape")),
        (batched, ("seed_dmrs_bank",)),
        (sim, ("NocModel", "MeshTopology", "CacheModel", "CacheSpec")),
    ):
        for name in names:
            assert name not in module.__all__ and not hasattr(module, name)
    for name in ("repro.sim.noc", "repro.sim.memory"):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
    assert not {"noc", "cache"} & set(inspect.signature(MachineSimulator).parameters)
    assert "cache" not in inspect.signature(CostModel).parameters
    # ... and the pool grew no parameter to select the old unit.
    assert list(inspect.signature(MultiprocessRuntime).parameters) == [
        "num_workers", "observers", "faults", "resilience", "ledger",
    ]


def test_each_pool_slot_owns_one_grid_slab():
    """Grids reach the pool's workers through one slab a slot, sized from
    the default cell's grid: the per-subframe segments, their idle list,
    the terminal listener that recycled them and the ``forget`` message
    that unmapped them are gone, and no setting sizes the slab."""
    import inspect

    from repro.phy import params
    from repro.sched import multiprocess
    from repro.sched.multiprocess import MultiprocessRuntime

    assert not hasattr(multiprocess, "_IDLE_GRID_BYTES")
    for name in ("_share_grid", "_release_grid"):
        assert not hasattr(MultiprocessRuntime, name)
    source = inspect.getsource(multiprocess)
    for word in ("listeners", "forget", "_grid_of", "_idle_grids"):
        assert word not in source, word
    grid = (
        params.NUM_RX_ANTENNAS,
        params.SYMBOLS_PER_SLOT * params.SLOTS_PER_SUBFRAME,
        params.MAX_PRB_PER_SLOT * params.SUBCARRIERS_PER_PRB,
    )
    assert grid == (4, 14, 1200)
    assert multiprocess._GRID_SLAB_BYTES == 4 * 14 * 1200 * 16


def test_unreached_modules_are_gone():
    """Removed on purpose: no command, example, benchmark or workload
    reached the RF front-end, link adaptation, result recording or the
    second DELTA-paced driver. ``repro serve`` paces on the wall clock,
    ``repro run --verify`` checks against serial, and the 25 % load is
    ``RandomizedParameterModel(max_prb=100)``. No alias, no stub."""
    from repro import uplink

    for name in (
        "repro.phy.frontend",
        "repro.phy.mcs",
        "repro.uplink.recording",
        "repro.uplink.benchmark",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
    for name in (
        "BenchmarkDriver",
        "BenchmarkConfig",
        "DRIVER_BACKENDS",
        "save_results",
        "load_results",
        "verify_against_recording",
        "RecordingError",
        "ScaledLoadModel",
    ):
        assert name not in uplink.__all__ and not hasattr(uplink, name)


def test_emit_spans_and_free_deadlines_are_gone():
    """A subframe's span is its dispatch -> terminal pair and its deadline
    is ``IN_FLIGHT_BOUND`` x DELTA, each defined once: no runtime takes a
    span switch, and no collector, profiler or SLO default takes a free
    deadline. No alias, no stub."""
    import inspect

    from repro.experiments import latency
    from repro.obs import Profiler, TelemetryCollector, slo, telemetry
    from repro.sched import (
        InlineRuntime, MultiprocessRuntime, ThreadedRuntime, make_runtime,
    )

    for cls in (InlineRuntime, MultiprocessRuntime, ThreadedRuntime):
        assert "emit_spans" not in inspect.signature(cls).parameters
    with pytest.raises(TypeError):
        make_runtime("serial", emit_spans=False)
    assert not hasattr(telemetry, "DEFAULT_DEADLINE_NS")
    assert list(inspect.signature(Profiler).parameters) == ["keep_spans"]
    assert "deadline" not in inspect.signature(TelemetryCollector).parameters
    assert latency.IN_FLIGHT_BOUND is telemetry.IN_FLIGHT_BOUND


def test_join_level_span_vocabulary_is_gone():
    """Every backend's joins are serial tasks, so there is one breakdown:
    no span event kinds, no span view in the profiler's summary. No
    alias, no stub."""
    from repro.obs import EventKind, Profiler

    assert not [kind for kind in EventKind if kind.value.startswith("span")]
    assert not hasattr(EventKind, "SPAN_BEGIN")
    assert not hasattr(EventKind, "SPAN_END")
    assert "span_kernels" not in Profiler().summary()


def test_lint_cache_and_changed_are_gone(capsys):
    """A full ``repro lint src`` takes about two seconds and neither CI nor
    the Makefile ever passed either flag: no alias, no stub."""
    import dataclasses
    import inspect

    from repro.analysis import driver
    from repro.cli import main

    for argv in (["lint", "--cache", "c.json"], ["lint", "--changed"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.analysis.cache")
    assert not hasattr(driver, "changed_files")
    assert "cache_hits" not in {
        f.name for f in dataclasses.fields(driver.LintResult)
    }


def test_lock_order_spawn_rules_and_lint_baseline_are_gone(capsys):
    """No lock in ``src/repro`` is acquired while another is held, so the
    lock-order analyzer and its runtime witness never had an edge to
    check; the spawn rules guarded one ``Process(`` call; the baseline's
    only caller ran against an empty file. No alias, no stub."""
    import dataclasses
    import inspect

    import repro.obs
    from repro.analysis import Severity, driver
    from repro.cli import main

    for argv in (["lint", "--baseline", "x"], ["lint", "--update-baseline"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
    capsys.readouterr()
    for name in (
        "repro.obs.lockdep",
        "repro.analysis.concurrency",
        "repro.analysis.spawn",
        "repro.analysis.baseline",
    ):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(name)
    assert list(inspect.signature(driver.lint_paths).parameters) == [
        "paths", "rules",
    ]
    assert "baselined" not in {
        f.name for f in dataclasses.fields(driver.LintResult)
    }
    assert not {
        "LockOrderWitness", "LockdepError", "TrackedLock", "tracked_lock",
    } & set(repro.obs.__all__)
    assert [s.name for s in Severity] == ["ERROR"]


def test_metrics_registry_and_worker_sketching_are_gone():
    """The event stream has one fold, ``TelemetryCollector``: the metrics
    registry and the profiler's own bookkeeping folded it twice more, and
    pool workers sketched what the parent already replays as task events.
    No alias, no stub, and the pool's signature did not move."""
    import inspect

    import repro.obs
    from repro.obs import slo, telemetry
    from repro.sched import multiprocess

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.obs.metrics")
    assert not {
        "Counter", "Gauge", "Histogram", "MetricsCollector",
        "MetricsRegistry", "KernelStats", "EwmaRate",
    } & set(repro.obs.__all__)
    assert not hasattr(telemetry, "EwmaRate")
    for name in ("rates", "rate", "record_busy"):
        assert not hasattr(telemetry.TelemetryCollector(), name)
    assert not hasattr(slo.SLOEngine, "relative_accuracy")
    assert not hasattr(multiprocess, "_build_shard")
    assert issubclass(repro.obs.Profiler, repro.obs.TelemetryCollector)
    assert list(inspect.signature(multiprocess.MultiprocessRuntime).parameters) == [
        "num_workers", "observers", "faults", "resilience", "ledger",
    ]


def test_terminal_states_live_only_in_the_ledger():
    """How each subframe ended is recorded once, in a ``SubframeLedger``:
    the simulator owns one per run instead of keeping its own map, the
    checker reads it instead of re-deriving it, and the plan-file format
    and the knobs nothing set went with the ``faults/`` audit. No alias,
    no stub."""
    import dataclasses
    import inspect

    from repro.faults import FaultPlan, ResilienceConfig, hang_guard
    from repro.faults.chaos import ChaosScenario
    from repro.obs import invariants
    from repro.sim import MachineSimulator, SimResult

    assert "ledger" not in inspect.signature(MachineSimulator).parameters
    sim_fields = {f.name for f in dataclasses.fields(SimResult)}
    assert "ledger" in sim_fields and "terminal_states" not in sim_fields
    assert not hasattr(SimResult, "terminal_counts")
    assert not hasattr(invariants, "TERMINAL_STATES")
    for name in ("save", "load", "to_json", "from_json", "from_dict",
                 "max_subframe"):
        assert not hasattr(FaultPlan, name)
    assert "watchdog_poll_s" not in {
        f.name for f in dataclasses.fields(ResilienceConfig)
    }
    assert "max_activity" not in {f.name for f in dataclasses.fields(ChaosScenario)}
    assert list(inspect.signature(hang_guard).parameters) == ["timeout_s"]


def test_a_serve_run_writes_one_record():
    """The checkpoint is the ``repro-serve/2`` report: the snapshot module,
    its builder, its per-cell record and both hand-written key tables went
    into one declaration. No alias, no stub."""
    import repro.serve
    from repro.serve import CellShard, report

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.serve.checkpoint")
    assert not {
        "CKPT_SCHEMA", "SERVE_SCHEMA", "write_checkpoint", "build_checkpoint",
    } & set(repro.serve.__all__)
    for name in ("SERVE_SCHEMA", "_CELL_FIELDS", "build_checkpoint"):
        assert not hasattr(report, name)
    for name in ("checkpoint_record", "summary"):
        assert not hasattr(CellShard, name)


def test_the_receiver_has_one_configuration():
    """The paper's receiver is the code: fixed channel-estimation windows,
    the pass-through decoder, no scrambling. No backend, runtime or kernel
    takes a chest config, a kernel trace or a codec; the link-level chain
    (``process_user``) keeps the real codec and the scrambling seed. No
    alias, no stub."""
    import inspect

    import repro.phy
    import repro.uplink
    from repro.phy import batched, chain, chest
    from repro.sched import InlineRuntime, MultiprocessRuntime, ThreadedRuntime
    from repro.uplink import (
        SerialBenchmark,
        UserJob,
        process_subframe,
        process_subframe_serial,
        process_subframe_vectorized,
        process_subframes,
        vectorized,
    )

    for module, name in (
        (chest, "ChestConfig"),
        (chain, "KernelTrace"),
        (repro.phy, "KernelTrace"),
        (vectorized, "process_user_vectorized"),
        (repro.uplink, "process_user_vectorized"),
    ):
        assert name not in module.__all__ and not hasattr(module, name)
    assert not hasattr(UserJob, "run_serially")
    knobs = {"config", "codec", "trace", "scrambling_c_init"}
    for callable_ in (
        InlineRuntime,
        MultiprocessRuntime,
        ThreadedRuntime,
        UserJob,
        process_subframe,
        process_subframe_serial,
        process_subframe_vectorized,
        process_subframes,
        SerialBenchmark,
        *(getattr(batched, name) for name in batched.__all__),
    ):
        assert not knobs & set(inspect.signature(callable_).parameters), callable_
    for function in (chain.process_user, chain.finalize_user):
        assert {"codec", "scrambling_c_init"} <= set(
            inspect.signature(function).parameters
        )
        assert not {"config", "trace"} & set(inspect.signature(function).parameters)


def test_each_thing_is_written_once():
    """NONAP and IDLE are one always-on class told apart by
    ``reactive_nap``; ``examples/quickstart.py`` is the quickstart;
    ``repro-serve/2`` is the one checkpoint format; ``serve`` is the one
    serve entry point; the serve record's ``config`` is the one echo of
    the arrival options; ``observers=`` is the one way to attach an
    observer. No alias, no stub."""
    import repro.power
    import repro.serve
    from repro.cli import build_parser
    from repro.power import governor
    from repro.serve import arrivals, report
    from repro.sim import AlwaysOnPolicy, MachineSimulator

    for module in (repro.power, governor):
        for name in ("NonapPolicy", "IdlePolicy"):
            assert name not in getattr(module, "__all__", ())
            assert not hasattr(module, name)
    for name, reactive_nap in (("NONAP", False), ("IDLE", True)):
        policy = governor.make_policy(name, 8)
        assert type(policy) is AlwaysOnPolicy
        assert (policy.name, policy.reactive_nap) == (name, reactive_nap)
    commands = next(
        action.choices
        for action in build_parser()._actions
        if action.dest == "command"
    )
    assert "quickstart" not in commands
    assert "serve_async" not in repro.serve.__all__
    assert not hasattr(repro.serve, "serve_async")
    for cls in (
        arrivals.PoissonArrivals,
        arrivals.DiurnalArrivals,
        arrivals.MmtcBurstArrivals,
    ):
        assert not hasattr(cls, "describe"), cls
    assert not hasattr(MachineSimulator, "attach_observer")
    assert not hasattr(report, "_from_ckpt1")


def test_power_is_priced_once():
    """One state-price table, one Eq. 7 window and one per-window fold in
    ``repro.power``; the DAQ emulation no command reached, the energy
    helpers only tests set, the gating parameter object and the
    ``NAPIDLE`` alias are gone. No alias, no stub."""
    import dataclasses
    import inspect

    import repro.power
    from repro.power import dvfs, energy, gating, governor

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.power.measurement")
    for module, names in (
        (repro.power, ("PowerGatingParams", "integrate_energy", "rms_windows")),
        (gating, ("PowerGatingParams",)),
        (energy, ("integrate_energy",)),
        (dvfs, ("LOOKAHEAD_SUBFRAMES", "LOOKBEHIND_SUBFRAMES")),
    ):
        for name in names:
            assert name not in getattr(module, "__all__", ()), (module, name)
            assert not hasattr(module, name), (module, name)
    assert "joules_per_bit" not in {
        f.name for f in dataclasses.fields(energy.EnergyReport)
    }
    assert "decoded_bits" not in inspect.signature(energy.energy_report).parameters
    for name in ("NAPIDLE", "nap+idle", " IDLE"):
        with pytest.raises(ValueError, match="unknown policy"):
            governor.make_policy(name, 8)


def test_supervised_respawn_has_one_configuration():
    """The pool always runs under its supervisor: no ``respawn`` switch is
    left on the pool, ``make_runtime``, ``CellShard`` or ``ServeConfig``,
    and a multiprocess chaos plan always arms the repeated-kill kinds. The
    supervisor's budget and backoff are module constants beside the pool
    it supervises, the hang check nothing turned on went, and so did the
    join timeout, the slab size and the wake-check cost only tests set.
    ``repro.sched`` imports nothing from ``repro.serve``. No alias, no
    stub."""
    import dataclasses
    import inspect
    import pathlib
    import re

    import repro.sched
    import repro.serve
    from repro.faults.plan import FaultKind
    from repro.faults.watchdog import ResilienceConfig
    from repro.sched import MultiprocessRuntime, make_runtime, supervisor
    from repro.serve import CellShard, ServeConfig
    from repro.sim import SimConfig

    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.serve.supervisor")
    assert not {"RespawnPolicy", "WorkerSupervisor"} & set(repro.serve.__all__)
    assert not hasattr(supervisor, "RespawnPolicy")
    assert list(inspect.signature(supervisor.WorkerSupervisor).parameters) == [
        "num_workers"
    ]
    assert not hasattr(supervisor.WorkerSupervisor, "heartbeat_timeout_ns")
    assert (supervisor.MAX_RESPAWNS, supervisor.WINDOW_S) == (8, 30.0)
    assert (supervisor.BACKOFF_INITIAL_S, supervisor.BACKOFF_MAX_S) == (0.05, 2.0)
    for callable_ in (MultiprocessRuntime, make_runtime, CellShard):
        assert "respawn" not in inspect.signature(callable_).parameters
    assert MultiprocessRuntime.chaos_kinds == (
        FaultKind.WORKER_DEATH,
        FaultKind.TASK_EXCEPTION,
        FaultKind.CRASH_LOOP,
        FaultKind.RESPAWN_STORM,
    )
    assert not hasattr(MultiprocessRuntime, "_check_heartbeats")
    for config, gone in (
        (ServeConfig, "respawn"),
        (ServeConfig, "respawn_policy"),
        (ResilienceConfig, "join_timeout_s"),
        (SimConfig, "wake_check_cycles"),
    ):
        assert gone not in {f.name for f in dataclasses.fields(config)}
    serve_import = re.compile(r"^\s*(from|import)\s+(\.\.serve|repro\.serve)", re.M)
    for path in pathlib.Path(repro.sched.__file__).parent.glob("*.py"):
        assert not serve_import.search(path.read_text()), path


def test_every_option_has_a_caller():
    """A value that only its own range check ever set is a module
    constant: the SLO targets and horizons, the AIMD shape, the power and
    DVFS models, the study's window and policies, the Fig. 12 averaging,
    the calibration allocation. Options that two callers set to different
    values stay. No alias, no stub."""
    import dataclasses
    import inspect

    import repro.power
    import repro.serve
    from repro.experiments import estimation, latency, power_study
    from repro.faults import AdmissionController
    from repro.obs import EventRecorder, Profiler, TelemetryCollector, slo
    from repro.obs.timeline import gating_events_from_active_workers
    from repro.power import (
        DvfsModel, PowerGatingModel, PowerModel, estimator, governor, model,
    )
    from repro.serve import AimdController, OverloadController, ServeConfig
    from repro.sim import CostModel, MachineSimulator, MachineSpec, SimConfig

    def params(callable_):
        return set(inspect.signature(callable_).parameters)

    for callable_, gone in (
        (slo.SLOEngine, {"targets", "fast_windows", "slow_windows"}),
        (AimdController, {"config"}),
        (OverloadController, {"config", "targets"}),
        (AdmissionController, {"load_factor"}),
        (PowerModel, {"params"}),
        (model.power_from_busy_fraction, {"params"}),
        (DvfsModel, {"params"}),
        (power_study.run_power_study,
         {"power_params", "gating_params", "window_s", "policies"}),
        (estimation.run_estimation_experiment, {"averaging_subframes"}),
        (estimator.calibrate_from_cost_model, {"reference_prb"}),
        (gating_events_from_active_workers, {"params"}),
        (EventRecorder, {"kinds"}),
    ):
        assert not gone & params(callable_), callable_
    admit = inspect.signature(AdmissionController.admit).parameters
    assert admit["load_factor"].default == 1.0
    for package, name in (
        (repro.serve, "AimdConfig"),
        (repro.power, "PowerModelParams"),
        (repro.power, "DvfsParams"),
    ):
        assert name not in package.__all__ and not hasattr(package, name)
    assert "base_power_w" not in {f.name for f in dataclasses.fields(MachineSpec)}
    # Stays: two callers set each of these to different values.
    assert list(params(PowerGatingModel)) == ["group_size"]
    assert "over_provision" in params(governor.NapPolicy)
    assert {"config", "slot_pipelined"} <= params(MachineSimulator)
    assert "drain_margin_s" in {f.name for f in dataclasses.fields(SimConfig)}
    assert "keep_spans" in params(Profiler)
    assert {"window", "delta", "workers"} <= params(TelemetryCollector)
    assert "deadline_s" in params(latency.deadline_report)
    assert "capacity" in params(EventRecorder)
    assert "max_activity" in params(AdmissionController)
    assert "queue_depth" in {f.name for f in dataclasses.fields(ServeConfig)}

def test_nothing_in_src_exists_only_for_tests():
    """A public name whose only callers were tests is gone, and a value
    only tests set is a module constant: the arrival processes are
    ``ParameterModel``s, the FFT and demap oracles live in
    ``tests/reference``. No alias, no stub."""
    import dataclasses
    import inspect

    import repro.faults
    import repro.obs
    import repro.serve
    from repro.experiments import runner
    from repro.faults import plan
    from repro.faults.admission import AdmissionController
    from repro.obs import invariants, prometheus, slo, telemetry
    from repro.phy import fftutil, modulation, params, scrambling, sequences, turbo
    from repro.power import dvfs
    from repro.power.estimator import calibrate_from_cost_model
    from repro.sched import MultiprocessRuntime, Runtime
    from repro.serve import arrivals
    from repro.sim import cost, trace
    from repro.uplink import RandomizedParameterModel, subframe, user

    for owner, names in (
        (MultiprocessRuntime, ("await_respawns",)),
        (invariants.SchedulerInvariantChecker, ("check_now",)),
        (user.UserParameters, ("config_key",)),
        (params.Modulation, ("constellation_order", "from_name")),
        (params, ("prb_subcarriers",)),
        (slo, ("default_targets",)),
        (repro.obs, ("default_targets", "parse_prometheus")),
        (telemetry.QuantileSketch, ("num_bins",)),
        (trace.OccupancyTrace, ("window_times_s",)),
        (dvfs.DvfsTrace, ("mean_power_factor",)),
        (prometheus, ("parse_prometheus", "_SAMPLE", "_LABEL")),
        (modulation, ("llrs_to_bits", "demodulate_hard", "symbols_to_bits")),
        (scrambling, ("pusch_c_init",)),
        (fftutil, ("fft_radix2", "ifft_radix2", "is_power_of_two")),
        (arrivals, ("ArrivalProcess", "ConstantRateArrivals")),
        (repro.serve, ("ConstantRateArrivals",)),
        (subframe, ("DEFAULT_POOL_SIZE",)),
        (Runtime, ("stop",)),
        (plan, ("SIM_KINDS", "THREAD_KINDS", "RESPAWN_KINDS")),
        (repro.faults, ("SIM_KINDS", "THREAD_KINDS", "RESPAWN_KINDS")),
        (
            AdmissionController(calibrate_from_cost_model(cost.CostModel())),
            ("total_shed_users", "total_shed_subframes"),
        ),
    ):
        for name in names:
            assert not hasattr(owner, name), (owner, name)
            assert name not in getattr(owner, "__all__", ()), (owner, name)
    for cls in (
        arrivals.PoissonArrivals,
        arrivals.DiurnalArrivals,
        arrivals.MmtcBurstArrivals,
    ):
        for name in ("users_for", "expected_users", "count_for", "day_subframes"):
            assert not hasattr(cls, name), (cls, name)
        assert callable(cls.uplink_parameters)
    constant = arrivals.make_arrivals("constant", seed=3, total_subframes=40)
    assert type(constant) is RandomizedParameterModel
    assert "default" not in inspect.getsource(runner.write_report)

    # The settable values only tests set, and the constants they became.
    def params_of(callable_):
        return set(inspect.signature(callable_).parameters)

    assert not {"saturation_fraction", "task_overhead_cycles"} & {
        f.name for f in dataclasses.fields(cost.CostModel)
    }
    assert (cost.SATURATION_FRACTION, cost.TASK_OVERHEAD_CYCLES) == (0.98, 6_000)
    for method in ("stage_program", "user_cycles", "user_activity"):
        assert "antennas" not in params_of(getattr(cost.CostModel, method))
    assert params.NUM_RX_ANTENNAS == 4
    assert "fft_size" not in {f.name for f in dataclasses.fields(params.CellConfig)}
    assert params.FFT_SIZE == 2048
    assert "pool_size" not in params_of(subframe.SubframeFactory)
    assert subframe.POOL_SIZE == 10
    assert "num_shifts" not in params_of(sequences.cyclic_shift)
    assert "num_shifts" not in params_of(sequences.dmrs_for_layer)
    assert sequences.NUM_CYCLIC_SHIFTS == 12
    assert "terminate" not in params_of(turbo.RscEncoder.encode)
    for cls in (
        arrivals.PoissonArrivals,
        arrivals.DiurnalArrivals,
        arrivals.MmtcBurstArrivals,
    ):
        assert not {"max_users", "profile"} & params_of(cls), cls


def test_the_cli_is_a_thin_shell(capsys):
    """``main`` alone maps set-up errors to exit 2, arms ``--timeout`` and
    maps Ctrl-C to 130; building the parser imports no NumPy; the flags
    nothing set (``top --width``, ``calibrate --points``, ``workload
    --stride``) and the parameters only they fed are gone; ``run
    --backend`` reads ``SERVE_BACKENDS``. No alias, no stub."""
    import inspect
    import os
    import subprocess
    import sys
    from pathlib import Path

    import repro
    from repro import cli
    from repro.experiments import collect_workload_trace
    from repro.obs import render_dashboard
    from repro.serve import SERVE_BACKENDS

    code = "import sys, repro.cli; repro.cli.build_parser(); print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).parents[1])}
    fresh = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    )
    assert fresh.stdout.split() == ["False"]
    assert not hasattr(cli, "_bad_value")
    for name in (name for name in dir(cli) if name.startswith("cmd_")):
        source = inspect.getsource(getattr(cli, name))
        for text in ("hang_guard", "except KeyboardInterrupt", "except ValueError"):
            assert text not in source, (name, text)
    parser = cli.build_parser()
    for argv in (
        ["top", "--width", "60"],
        ["calibrate", "--points", "3"],
        ["workload", "--stride", "50"],
    ):
        with pytest.raises(SystemExit):
            parser.parse_args(argv)
    capsys.readouterr()
    assert "width" not in inspect.signature(render_dashboard).parameters
    assert list(inspect.signature(collect_workload_trace).parameters) == ["model"]
    run = next(a for a in parser._actions if a.dest == "command").choices["run"]
    backend = next(a for a in run._actions if a.dest == "backend")
    assert backend.choices is SERVE_BACKENDS


def test_version():
    import repro

    assert repro.__version__


def test_public_entry_points_have_docstrings():
    from repro.experiments import run_power_study
    from repro.phy import process_user
    from repro.sched import ThreadedRuntime
    from repro.sim import MachineSimulator
    from repro.uplink import RandomizedParameterModel

    for obj in (
        process_user,
        RandomizedParameterModel,
        ThreadedRuntime,
        MachineSimulator,
        run_power_study,
    ):
        assert obj.__doc__ and len(obj.__doc__) > 20


def test_submodules_not_in_init_are_still_importable():
    for module in (
        "repro.phy.scrambling",
        "repro.power.energy",
        "repro.power.dvfs",
        "repro.experiments.latency",
        "repro.experiments.runner",
        "repro.uplink.scenarios",
        "repro.cli",
    ):
        importlib.import_module(module)


def test_batched_tail_names_are_public():
    """Added with the group-batched receiver tail, on purpose: the rows
    form of ``crc_check`` and the gather form of the deinterleaver."""
    from repro.phy import crc, interleaver

    assert "crc_check_rows" in crc.__all__ and callable(crc.crc_check_rows)
    assert "deinterleave_indices" in interleaver.__all__
    assert callable(interleaver.deinterleave_indices)


def test_process_subframes_is_public():
    """Added with cross-subframe batching, on purpose: the one
    implementation of the single-thread backends, which the one-subframe
    entry points call with a list of one."""
    import inspect

    import repro.uplink as uplink
    from repro.uplink import vectorized

    assert "process_subframes" in uplink.__all__
    assert "process_subframes" in vectorized.__all__
    assert uplink.process_subframes is vectorized.process_subframes
    assert list(inspect.signature(uplink.process_subframes).parameters) == [
        "subframes", "backend", "stage_timer",
    ]
    # ... and the inline runtime grew no parameter for batching.
    from repro.sched import InlineRuntime

    assert list(inspect.signature(InlineRuntime).parameters) == [
        "backend", "processor", "observers", "faults", "resilience", "ledger",
    ]


def test_runtime_core_names_are_public():
    """Added with the one runtime core, on purpose: the contract
    (``Runtime``, ``SubframeTracker``), its third transport and the
    factory every caller goes through."""
    import repro.sched as sched
    from repro.sched import core, inline

    for name in (
        "InlineRuntime",
        "Runtime",
        "SubframeTracker",
        "WorkerFailuresError",
        "make_runtime",
        "runtime_class",
    ):
        assert name in sched.__all__ and hasattr(sched, name)
    assert issubclass(sched.ThreadedRuntime, sched.Runtime)
    assert issubclass(sched.MultiprocessRuntime, sched.Runtime)
    assert issubclass(sched.InlineRuntime, sched.Runtime)
    assert sched.InlineRuntime is inline.InlineRuntime
    # One definition, re-exported where it used to live.
    from repro.sched.threaded import WorkerFailuresError

    assert WorkerFailuresError is core.WorkerFailuresError
    # The counters every transport keeps live in the core, not in one of
    # the transports; ``perf/`` reads them through ``repro.sched``.
    assert sched.RuntimeStats is core.RuntimeStats
    assert "RuntimeStats" in sched.__all__ and "RuntimeStats" in core.__all__
    assert issubclass(sched.MultiprocessStats, core.RuntimeStats)
    for backend in ("serial", "vectorized", "threaded", "multiprocess"):
        assert issubclass(sched.runtime_class(backend), sched.Runtime)
    with pytest.raises(ValueError):
        sched.make_runtime("quantum")


def test_nothing_outside_sched_reaches_into_a_runtime():
    """A runtime's underscore attributes are ``repro.sched``'s business:
    serve, the CLI, the chaos campaign, the benches and the tests drive it
    through ``start``/``submit``/``poll``/``drain``/``close`` and public
    properties (``emit``, ``faults``, ``stats``, ``ledger``...)."""
    import re
    from pathlib import Path

    root = Path(__file__).resolve().parent.parent
    private = re.compile(r"\bruntime\._(?!_)\w+")
    offenders = []
    for top in ("src", "tests", "perf", "benchmarks", "examples", "scripts"):
        for path in sorted((root / top).rglob("*.py")):
            if (root / "src" / "repro" / "sched") in path.parents:
                continue
            for number, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1
            ):
                if private.search(line):
                    where = f"{path.relative_to(root)}:{number}"
                    offenders.append(f"{where}: {line.strip()}")
    assert offenders == []

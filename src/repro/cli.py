"""Command-line interface: ``python -m repro <command>``.

Commands mirror the benchmark binary and the evaluation drivers:

``run``
    Decode a stretch of randomized-workload subframes on a selected
    backend (``--backend serial|vectorized|threaded|multiprocess``);
    ``--verify`` recomputes everything on the serial reference and
    requires bit-exact agreement.
``workload``
    Print the Figs. 7-9 workload-trace summary of the randomized model.
``calibrate``
    Run the Fig. 11 steady-state calibration and print the k_LM table.
``estimate``
    Run the Fig. 12 estimated-vs-measured comparison (with an ASCII plot).
``power-study``
    Run the Section VI study and print Tables I and II (with an ASCII
    rendering of Fig. 16).
``trace``
    Run the simulator with structured event tracing and the invariant
    checker attached; export the event stream as JSONL or as a Chrome
    ``trace_event`` timeline (``--format chrome``, loadable in Perfetto).
    With ``--from FILE`` convert an existing JSONL trace instead of
    running a simulation — unknown event kinds are tolerated.
``metrics``
    Run the simulator with the metrics collector attached and print the
    scheduler-metrics summary (counters, gauges, histograms).
``lint``
    Run the project's AST-based static analyzers (lock discipline,
    sim determinism, obs schema consistency — see
    ``docs/static_analysis.md``) over the given paths.
``chaos``
    Run the seeded fault-injection campaign (``repro.faults.chaos``)
    across the simulator and the threaded runtime (``--backend
    multiprocess`` opts the spawn-based pool in, where worker-death
    faults SIGKILL real processes) and print a survival report; exits
    nonzero when any scenario fails a survival check.

Every command keeps one contract with :func:`main`: ``cmd_<name>(args)``
does the set-up that can reject its options and returns the run as a
zero-argument callable. ``main`` arms ``--timeout SECONDS`` (``run``,
``serve`` and ``chaos``: a ``faulthandler`` guard that dumps all-thread
tracebacks and exits if the command wedges) around both and maps the
outcome to one exit code:

* 0 — the command ran and its checks passed;
* 1 — a check failed (``--verify``, the invariant checker, a chaos
  scenario, the serve ledger or report, a lint finding);
* 2 — a bad option value or an unreadable/unwritable path, ``--timeout``
  <= 0 included: one ``<command>:`` line on stderr, checked before
  anything runs (a ``ValueError`` raised during a run propagates);
* 124 — ``serve --max-wall`` stopped the run (its report resumes);
* 130 — Ctrl-C: workers shut down and traces flush first.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import sys
from collections.abc import Callable
from functools import partial

from .serve.config import SERVE_BACKENDS, ServeConfig


def _add_timeout(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="hang guard: dump all-thread tracebacks and exit if the "
        "command runs longer than this (default: no guard)",
    )


def _add_scale(parser: argparse.ArgumentParser, default: int) -> None:
    parser.add_argument(
        "--subframes",
        type=int,
        default=default,
        help=f"evaluation length in subframes (default {default}; paper: 68000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")


def _flag_fields(config_cls) -> list:
    """The fields of a config dataclass that declare a command-line flag."""
    return [f for f in dataclasses.fields(config_cls) if "flag" in f.metadata]


def _add_config_flags(parser: argparse.ArgumentParser, config_cls) -> None:
    """One option per flag-bearing field of ``config_cls``, in field order.

    A ``bool`` field is a switch; anything else takes a value of its
    default's type (of the declared ``type`` when the default is None).
    """
    for f in _flag_fields(config_cls):
        kwargs = dict(f.metadata["parser"], help=f.metadata["help"])
        if isinstance(f.default, bool):
            kwargs["action"] = "store_true"
        else:
            kwargs["default"] = f.default
            if f.default is not None:
                kwargs["type"] = type(f.default)
        parser.add_argument(f.metadata["flag"], **kwargs)


def _config_from_flags(config_cls, args, **hooks):
    """Build ``config_cls`` from the flags :func:`_add_config_flags` added;
    a set switch toggles its field's default (``--no-pace`` clears ``pace``).
    """
    values = {}
    for f in _flag_fields(config_cls):
        value = getattr(args, f.metadata["flag"].lstrip("-").replace("-", "_"))
        if isinstance(f.default, bool):
            value = value != f.default
        values[f.name] = value
    return config_cls(**values, **hooks)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LTE Uplink Receiver PHY benchmark & power-management reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="decode randomized subframes on a selected backend"
    )
    run.add_argument(
        "--backend",
        choices=SERVE_BACKENDS,
        default="serial",
        help="execution backend (default serial)",
    )
    run.add_argument(
        "--subframes", type=int, default=8, help="number of subframes (default 8)"
    )
    run.add_argument("--seed", type=int, default=0, help="workload seed")
    run.add_argument(
        "--users",
        type=int,
        default=4,
        help="MAX_USERS of the randomized model (default 4)",
    )
    run.add_argument(
        "--workers",
        type=int,
        default=4,
        help="threads/processes (threaded and multiprocess backends)",
    )
    run.add_argument(
        "--verify",
        action="store_true",
        help="recompute on the serial reference and require bit-exact agreement",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="emit a machine-readable result including the slo_report "
        "section (streaming telemetry + SLO evaluation)",
    )
    _add_timeout(run)

    workload = sub.add_parser("workload", help="Figs. 7-9 workload summary")
    _add_scale(workload, 6_800)

    sub.add_parser("calibrate", help="Fig. 11 k_LM calibration")

    estimate = sub.add_parser("estimate", help="Fig. 12 estimated vs measured")
    _add_scale(estimate, 2_000)

    study = sub.add_parser("power-study", help="Tables I-II, Figs. 13-16")
    _add_scale(study, 2_000)

    def _add_obs_run(subparser: argparse.ArgumentParser) -> None:
        subparser.add_argument(
            "--policy",
            choices=["nonap", "idle", "nap", "nap+idle"],
            default="nap+idle",
            help="power-management policy to simulate (default nap+idle)",
        )
        subparser.add_argument(
            "--workers", type=int, default=8, help="worker core count"
        )

    trace = sub.add_parser(
        "trace", help="simulate with event tracing on, export JSONL or Chrome trace"
    )
    _add_scale(trace, 100)
    _add_obs_run(trace)
    trace.add_argument(
        "--out", default=None, help="output path (default trace.jsonl / trace.json)"
    )
    trace.add_argument(
        "--ring",
        type=int,
        default=None,
        help="ring-buffer capacity (default: keep every event)",
    )
    trace.add_argument(
        "--format",
        choices=["jsonl", "chrome"],
        default="jsonl",
        help="jsonl event stream or Chrome trace_event JSON for Perfetto",
    )
    trace.add_argument(
        "--from",
        dest="from_path",
        default=None,
        metavar="FILE",
        help="convert an existing JSONL trace instead of running a simulation "
        "(unknown event kinds are tolerated)",
    )

    metrics = sub.add_parser(
        "metrics", help="simulate with metrics collection on, print summary"
    )
    _add_scale(metrics, 100)
    _add_obs_run(metrics)
    metrics.add_argument(
        "--format",
        choices=["text", "json", "prometheus"],
        default="text",
        help="output format (prometheus: text exposition for scrapers)",
    )

    top = sub.add_parser(
        "top",
        help="live telemetry dashboard: attach to a simulator run or "
        "tail a JSONL trace",
    )
    _add_scale(top, 200)
    _add_obs_run(top)
    top.add_argument(
        "--from",
        dest="from_path",
        default=None,
        metavar="FILE",
        help="replay/tail an existing JSONL trace instead of running a "
        "simulation (unknown event kinds are tolerated)",
    )
    top.add_argument(
        "--follow",
        action="store_true",
        help="with --from: keep tailing the file for new events (Ctrl-C "
        "to stop)",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render exactly one final frame and exit (headless/CI mode)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="refresh interval for live rendering (default 0.5)",
    )

    serve = sub.add_parser(
        "serve",
        help="streaming service mode: multi-cell subframe arrivals at "
        "DELTA cadence with backpressure and admission shedding",
    )
    _add_config_flags(serve, ServeConfig)
    serve.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable repro-serve/2 report",
    )
    serve.add_argument(
        "--json-out",
        default=None,
        metavar="FILE",
        help="atomically write the repro-serve/2 report to FILE "
        "(resumable with --resume)",
    )
    _add_timeout(serve)

    chaos = sub.add_parser(
        "chaos", help="run the seeded fault-matrix campaign, print survival report"
    )
    chaos.add_argument(
        "--scale",
        choices=["smoke", "default"],
        default="default",
        help="campaign size (smoke is the CI gate; default: default)",
    )
    chaos.add_argument(
        "--seeds",
        type=int,
        default=3,
        help="number of consecutive campaign seeds (default 3)",
    )
    chaos.add_argument(
        "--backend",
        choices=["sim", "threaded", "multiprocess", "all"],
        default="all",
        help="restrict the matrix to one backend; 'all' means sim+threaded "
        "(multiprocess is opt-in: process-pool spawns dominate its wall "
        "clock)",
    )
    chaos.add_argument(
        "--json", action="store_true", help="emit the survival report as JSON"
    )
    _add_timeout(chaos)

    report = sub.add_parser(
        "report", help="run every experiment, emit a JSON paper-vs-measured report"
    )
    _add_scale(report, 2_000)
    report.add_argument(
        "--output", default="reproduction_report.json", help="output JSON path"
    )

    lint = sub.add_parser(
        "lint", help="run the repro static analyzers (REP* rules)"
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        help="output format (github emits ::error workflow annotations)",
    )
    lint.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    lint.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    return parser


def cmd_run(args) -> Callable[[], int]:
    import json
    import time

    from .obs import SLOEngine
    from .sched import make_runtime
    from .uplink import (
        RandomizedParameterModel,
        SubframeFactory,
        process_subframe_serial,
        verify_against_serial,
    )

    if args.subframes < 1:
        raise ValueError(f"--subframes must be >= 1, got {args.subframes}")
    engine = SLOEngine() if args.json else None
    model = RandomizedParameterModel(
        total_subframes=max(2, args.subframes),
        seed=args.seed,
        max_users=args.users,
    )
    runtime = make_runtime(
        args.backend,
        num_workers=args.workers,
        observers=[engine] if engine else None,
    )

    def run() -> int:
        factory = SubframeFactory(seed=args.seed)
        subframes = [
            factory.synthesize(model.uplink_parameters(i), i)
            for i in range(args.subframes)
        ]
        if engine is not None:
            engine.telemetry.workers = runtime.num_workers
        # Workers are started before the clock: spawning a pool is set-up,
        # not throughput (start() returns once its children import NumPy).
        runtime.start()
        try:
            start = time.perf_counter()
            results = runtime.run(subframes)
            wall_s = time.perf_counter() - start
        finally:
            runtime.close()
        num_users = sum(len(r.user_results) for r in results)
        crc_ok = sum(1 for r in results for u in r.user_results if u.crc_ok)
        throughput = len(results) / wall_s if wall_s else 0.0
        report = None
        if args.verify:
            serial = [process_subframe_serial(subframe) for subframe in subframes]
            report = verify_against_serial(serial, results)
        if engine is not None:
            engine.evaluate(engine.telemetry._last_t)
            payload = {
                "backend": args.backend,
                "subframes": len(results),
                "users": num_users,
                "crc_ok": crc_ok,
                "wall_s": wall_s,
                "throughput_sf_per_s": throughput,
                "slo_report": engine.slo_report(),
            }
            if report is not None:
                payload["bit_exact_vs_serial"] = report.passed
            print(json.dumps(payload, indent=2))
            return 0 if report is None or report.passed else 1
        print(
            f"backend={args.backend}: {len(results)} subframes, "
            f"{num_users} users, CRC OK {crc_ok}/{num_users}, "
            f"{wall_s:.3f} s wall ({throughput:.1f} sf/s)"
        )
        if report is None:
            return 0
        if not report.passed:
            print(f"VERIFY FAILED: {report}")
            return 1
        print(f"verify: all {len(subframes)} subframes bit-exact vs serial")
        return 0

    return run


def cmd_workload(args) -> Callable[[], int]:
    from .experiments import collect_workload_trace, format_workload_summary
    from .uplink import RandomizedParameterModel

    model = RandomizedParameterModel(total_subframes=args.subframes, seed=args.seed)

    def run() -> int:
        print(format_workload_summary(collect_workload_trace(model)))
        return 0

    return run


def cmd_calibrate(args) -> Callable[[], int]:
    from .experiments import format_calibration
    from .power import calibrate_from_simulation
    from .sim import CostModel

    def run() -> int:
        estimator, sweeps = calibrate_from_simulation(CostModel())
        print(format_calibration(sweeps, estimator.slopes))
        return 0

    return run


def cmd_estimate(args) -> Callable[[], int]:
    from .experiments import format_estimation, run_estimation_experiment
    from .experiments.asciiplot import render_series

    def run() -> int:
        result = run_estimation_experiment(num_subframes=args.subframes, seed=args.seed)
        print(
            render_series(
                {
                    "measured": (result.times_s, result.measured),
                    "estimated": (result.times_s, result.estimated),
                },
                title="Fig. 12 — activity over time",
                y_min=0.0,
                y_max=1.0,
            )
        )
        print()
        print(format_estimation(result))
        return 0

    return run


def cmd_power_study(args) -> Callable[[], int]:
    from .experiments import format_table1, format_table2, run_power_study
    from .experiments.asciiplot import render_series

    def run() -> int:
        study = run_power_study(num_subframes=args.subframes, seed=args.seed)
        times = study.runs["NONAP"].power.times_s
        print(
            render_series(
                {
                    "NONAP": (times, study.runs["NONAP"].power.total_w),
                    "IDLE": (times, study.runs["IDLE"].power.total_w),
                    "NAP+IDLE": (times, study.runs["NAP+IDLE"].power.total_w),
                    "PowerGating": (times, study.gated_power_w),
                },
                title="Fig. 16 — power over time (W)",
            )
        )
        print()
        print(format_table1(study))
        print()
        print(format_table2(study))
        return 0

    return run


def _observed_sim(args, observers):
    """Shared set-up for ``trace``/``metrics``/``top``: one observed
    simulator run, built (so a bad option value raises ``ValueError``
    here) but not started; call the result to run it."""
    from .power import calibrate_from_cost_model
    from .power.governor import make_policy
    from .sim import CostModel, MachineSpec
    from .sim.machine import MachineSimulator, SimConfig
    from .uplink import RandomizedParameterModel

    cost = CostModel(
        machine=MachineSpec(num_cores=args.workers + 2, num_workers=args.workers)
    )
    estimator = calibrate_from_cost_model(cost)
    policy = make_policy(args.policy.upper(), args.workers, estimator)
    model = RandomizedParameterModel(total_subframes=args.subframes, seed=args.seed)
    sim = MachineSimulator(
        cost,
        policy=policy,
        config=SimConfig(drain_margin_s=0.2),
        observers=observers,
    )
    return partial(sim.run, model, num_subframes=args.subframes)


def cmd_trace(args) -> Callable[[], int]:
    from collections import Counter

    from .obs import (
        EventRecorder,
        SchedulerInvariantChecker,
        read_jsonl,
        write_chrome_trace,
    )

    out = args.out or ("trace.json" if args.format == "chrome" else "trace.jsonl")
    if args.from_path is not None:
        # Convert an existing JSONL trace. Records stay plain dicts all the
        # way through, so kinds written by newer (or older) revisions that
        # this build does not know are passed through, not rejected.
        if args.format != "chrome":
            raise ValueError("--from requires --format chrome (JSONL->JSONL is a copy)")
        try:
            records = read_jsonl(args.from_path)
        except OSError as exc:
            raise ValueError(f"cannot read {args.from_path}: {exc}") from exc

        def convert() -> int:
            written = write_chrome_trace(out, records, clock="cycles")
            kinds = Counter(str(r.get("kind", "?")) for r in records)
            counts = ", ".join(f"{k}={v}" for k, v in sorted(kinds.items()))
            print(f"{len(records)} events read from {args.from_path}")
            print(f"event counts: {counts}")
            print(f"{written} Chrome trace events written to {out}")
            return 0

        return convert

    checker = SchedulerInvariantChecker(strict=False)
    recorder = EventRecorder(capacity=args.ring)
    sim = _observed_sim(args, [recorder, checker])

    def run() -> int:
        try:
            result = sim()
        except BaseException as exc:
            # Crash-safe flush: whatever was traced before the failure is
            # still written, so abnormal exits leave a usable partial trace.
            flushed = out + ".partial.jsonl"
            written = recorder.write_jsonl(flushed)
            print(
                f"run failed ({type(exc).__name__}); "
                f"{written} events flushed to {flushed}",
                file=sys.stderr,
            )
            raise
        print(f"policy {args.policy}: {args.subframes} subframes, "
              f"{result.tasks_executed} tasks")
        if args.format == "chrome":
            from .obs import gating_events_from_active_workers

            machine = result.machine
            gating = gating_events_from_active_workers(
                result.active_workers, machine.subframe_period_cycles
            )
            written = write_chrome_trace(
                out,
                recorder.events,
                clock="cycles",
                clock_hz=machine.clock_hz,
                extra=gating,
                metadata={"policy": args.policy, "subframes": args.subframes},
            )
            print(f"{written} Chrome trace events written to {out} "
                  f"({recorder.dropped} dropped by ring buffer); "
                  f"load in Perfetto or chrome://tracing")
        else:
            written = recorder.write_jsonl(out)
            print(f"{written} events written to {out} "
                  f"({recorder.dropped} dropped by ring buffer)")
        counts = ", ".join(f"{k}={v}" for k, v in sorted(recorder.counts().items()))
        print(f"event counts: {counts}")
        print(checker.summary())
        return 0 if checker.ok else 1

    return run


def cmd_metrics(args) -> Callable[[], int]:
    import json

    from .experiments import format_metrics
    from .obs import TelemetryCollector, render_prometheus

    collector = TelemetryCollector()
    sim = _observed_sim(args, [collector])

    def run() -> int:
        sim()
        snapshot = collector.snapshot()
        if args.format == "json":
            print(json.dumps(snapshot, indent=2))
        elif args.format == "prometheus":
            print(render_prometheus(snapshot), end="")
        else:
            print(format_metrics(snapshot))
        return 0

    return run


def cmd_top(args) -> Callable[[], int]:
    import time

    from .obs import SLOEngine, TelemetryCollector, render_dashboard

    # Both sources feed this one engine: a trace through the tailer, a
    # simulation as an observer.
    engine = SLOEngine(TelemetryCollector())
    title = "repro top"
    if args.from_path is not None:
        title += f" · {args.from_path}"

    def frame(clear: bool = False) -> None:
        if clear:
            print("\x1b[H\x1b[2J", end="")
        print(
            render_dashboard(
                engine.telemetry.snapshot(), engine.slo_report(), title=title
            )
        )

    if args.from_path is not None:
        from .obs.dashboard import TraceTailer

        try:
            # Binary mode: a live writer can leave a partial multi-byte
            # UTF-8 sequence at EOF, which a text-mode read() would
            # raise on; the tailer buffers partial lines as bytes.
            fh = open(args.from_path, "rb")
        except OSError as exc:
            raise ValueError(f"cannot read {args.from_path}: {exc}") from exc

        def replay() -> int:
            with fh:
                tailer = TraceTailer(fh, engine)
                tailer.advance()
                while args.follow and not args.once:
                    frame(clear=True)
                    time.sleep(max(0.05, args.interval))
                    tailer.advance()
            frame()
            print(
                f"{tailer.records} events replayed"
                + (f", {tailer.skipped} skipped" if tailer.skipped else "")
            )
            return 0

        return replay

    observers = [engine]
    if not args.once:
        # Live mode: piggyback a throttled re-render on the event stream.
        last_render = [0.0]

        def live_render(event) -> None:
            now = time.monotonic()
            if now - last_render[0] >= max(0.05, args.interval):
                last_render[0] = now
                frame(clear=True)

        observers.append(live_render)
    sim = _observed_sim(args, observers)

    def run() -> int:
        sim()
        frame(clear=not args.once)
        return 0

    return run


def cmd_report(args) -> Callable[[], int]:
    import json

    from .experiments import run_full_reproduction, write_report

    def run() -> int:
        report = run_full_reproduction(num_subframes=args.subframes, seed=args.seed)
        path = write_report(report, args.output)
        print(json.dumps(report["shape_checks"], indent=2))
        print(f"full report written to {path}")
        return 0 if all(report["shape_checks"].values()) else 1

    return run


def cmd_chaos(args) -> Callable[[], int]:
    import json

    from .faults import chaos

    backends = ("sim", "threaded") if args.backend == "all" else (args.backend,)
    matrix = chaos.build_matrix(scale=args.scale, seeds=args.seeds, backends=backends)

    def run() -> int:
        if not args.json:
            print(
                f"chaos campaign: {len(matrix)} scenarios "
                f"(scale={args.scale}, seeds={args.seeds}, "
                f"backends={','.join(backends)})"
            )
        report = chaos.run_campaign(matrix, progress=None if args.json else print)
        if args.json:
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print()
            print(report.format())
        return 0 if report.passed else 1

    return run


def cmd_serve(args) -> Callable[[], int]:
    import json

    from .serve import validate_serve_report
    from .serve.loop import _Server

    # A long run would hold every decoded payload.
    server = _Server(_config_from_flags(ServeConfig, args, keep_results=False))

    def run() -> int:
        result = server()
        report = result.report
        flags = report["config"]
        problems = validate_serve_report(report)
        if args.json_out:
            from .ioutil import atomic_write_json

            atomic_write_json(args.json_out, report)
        shedding = report["faults"]["shedding_engaged"]
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            counts = "  ".join(f"{k}={v}" for k, v in report["terminal_counts"].items())
            lines = [
                f"served {flags['cells']} cells x {flags['subframes']} subframes "
                f"({flags['arrival']} arrivals, {flags['backend']} backend, "
                f"{'paced' if flags['pace'] else 'unpaced'}) in {report['wall_s']:.3f} s",
                f"  {report['dispatched']} dispatched: {counts}",
                f"  users: offered {report['offered_users']}, admitted "
                f"{report['admitted_users']}, shed {report['shed_users']}, served "
                f"{report['served_users']} ({report['users_per_hour']:,.0f}/hour)",
                f"  backpressure hits {report['backpressure_hits']}, throughput "
                f"{report['throughput_sf_per_s']:.1f} sf/s, "
                f"ledger {'OK' if report['ledger_ok'] else 'BROKEN'}",
            ]
            if flags["faults"]:
                lines.append(
                    f"  chaos: shedding {'engaged' if shedding else 'NOT ENGAGED'}, "
                    f"{report['faults']['faults_seen']} fault(s) fired"
                )
            if sup := report["supervisor"]:
                lines.append(
                    f"  supervisor: {sup['deaths']} death(s), {sup['respawns']} "
                    f"respawn(s){', FAIL-STOP' if sup['fail_stop'] else ''}"
                )
            if adaptive := report["adaptive"]:
                lines.append(
                    f"  adaptive: load_factor {adaptive['load_factor']:.3f}, "
                    f"{adaptive['degrades']} degrade(s), "
                    f"{adaptive['recovers']} recover(s)"
                )
            if flags["checkpoint_path"] or flags["resume_path"]:
                ckpt = report["checkpoint"]
                lines.append(
                    f"  checkpoint: segment {ckpt['segments']}, {ckpt['writes']} "
                    f"periodic write(s), "
                    + ("complete" if ckpt["completed"] else "resumable")
                )
            print("\n".join(lines))
            if report["max_wall_hit"]:
                print(
                    f"  max-wall: guard tripped at {flags['max_wall_s']}s — "
                    "exiting 124 (the report resumes with --resume)",
                    file=sys.stderr,
                )
            for line in result.errors:
                print(f"  error: {line}", file=sys.stderr)
            for line in problems:
                print(f"  report schema: {line}", file=sys.stderr)
        if not report["ledger_ok"] or problems or result.errors or (
            flags["faults"] and not shedding
        ):
            return 1
        # timeout(1)'s convention: the guard tripped, the run is clean but
        # incomplete (and its report resumes).
        return 124 if report["max_wall_hit"] else 0

    return run


def cmd_lint(args) -> Callable[[], int]:
    from .analysis.cli import run_lint

    return partial(run_lint, args)


_COMMANDS = {
    "run": cmd_run,
    "workload": cmd_workload,
    "calibrate": cmd_calibrate,
    "estimate": cmd_estimate,
    "power-study": cmd_power_study,
    "trace": cmd_trace,
    "metrics": cmd_metrics,
    "top": cmd_top,
    "serve": cmd_serve,
    "report": cmd_report,
    "lint": cmd_lint,
    "chaos": cmd_chaos,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code (see the module docstring)."""
    args = build_parser().parse_args(argv)
    try:
        with contextlib.ExitStack() as guard:
            try:
                if getattr(args, "timeout", None) is not None:
                    from .faults.watchdog import hang_guard

                    guard.enter_context(hang_guard(args.timeout))
                run = _COMMANDS[args.command](args)
            except ValueError as exc:
                print(f"{args.command}: {exc}", file=sys.stderr)
                return 2
            return run()
    except KeyboardInterrupt:
        print(f"{args.command}: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())

"""Spawn-safety: every ``repro`` module must import cleanly in a child.

The multiprocess runtime uses the ``spawn`` start method, so each pool
process re-imports whatever modules its tasks touch from scratch. Two
classes of import-time landmines would break it:

* modules that fail to import in a fresh interpreter (circular imports
  hidden by parent-side import order, missing ``if TYPE_CHECKING``
  guards, top-level reads of parent-only state);
* modules that do wall-clock or unseeded-RNG work *at import time* —
  a spawn re-import would then silently diverge between parent and
  worker (and between two workers), breaking replay determinism.

The probe runs in a real spawn child: it wraps the ``time`` clocks and
``numpy.random.default_rng`` to flag any call made while a ``repro``
module's top level is still executing, then imports the entire package
tree. It also reports whether any of them imported scipy, which is a
test-only dependency.

``_probe`` is module-level on purpose: spawn pickles the callable by
qualified name, so it must live in an importable module (this test file),
not in a closure or ``<stdin>``.
"""

import multiprocessing
import traceback


def _probe(conn) -> None:
    import time

    violations: list[str] = []

    def guarded(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            # Attribute the call to the *innermost* module-level frame:
            # a repro module importing a library that reads clocks during
            # its own import is fine; repro's own top level doing it is
            # the violation.
            for frame in reversed(traceback.extract_stack()[:-1]):
                if frame.name != "<module>":
                    continue
                filename = frame.filename.replace("\\", "/")
                if "/repro/" in filename:
                    violations.append(
                        f"{filename} calls {module.__name__}.{name} at import"
                    )
                break
            return real(*args, **kwargs)

        setattr(module, name, wrapper)

    for clock in (
        "time",
        "monotonic",
        "perf_counter",
        "monotonic_ns",
        "perf_counter_ns",
    ):
        guarded(time, clock)
    import numpy.random

    guarded(numpy.random, "default_rng")

    import importlib
    import pkgutil

    failures: list[str] = []
    import sys

    import repro

    count = 1
    for info in pkgutil.walk_packages(
        repro.__path__,
        prefix="repro.",
        onerror=lambda name: failures.append(f"{name}: walk error"),
    ):
        try:
            importlib.import_module(info.name)
        except Exception as exc:
            failures.append(f"{info.name}: {type(exc).__name__}: {exc}")
        else:
            count += 1
    conn.send(
        {
            "count": count,
            "violations": violations,
            "failures": failures,
            "scipy": "scipy" in sys.modules,
        }
    )
    conn.close()


def test_every_repro_module_imports_under_spawn():
    ctx = multiprocessing.get_context("spawn")
    parent_conn, child_conn = ctx.Pipe()
    process = ctx.Process(target=_probe, args=(child_conn,))
    process.start()
    child_conn.close()
    assert parent_conn.poll(180), "spawn probe produced no report"
    report = parent_conn.recv()
    process.join(timeout=30)
    assert process.exitcode == 0
    assert not report["failures"], report["failures"]
    assert not report["violations"], report["violations"]
    # The walk must have covered the real package tree, not a stub.
    assert report["count"] > 40, report["count"]
    # NumPy is the one run-time dependency: no repro module pulls scipy in.
    assert not report["scipy"]

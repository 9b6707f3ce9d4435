"""Kill-midway checkpoint/resume round trip (CI ``supervision-smoke``).

The in-repo test suite cuts runs with ``--max-wall`` (a clean exit);
this driver validates the *crash* path the checkpoint exists for: a
``repro serve`` subprocess is SIGKILLed mid-run — no atexit hooks, no
final record — and ``--resume`` from whatever ``repro-serve/2`` cut
the periodic writer last published must reconstruct the exact
per-subframe terminal-state map of an uninterrupted run at the same
seed. The config keeps every admission decision a pure function of
(seed, tick): unpaced, and ``queue_depth >= subframes`` so backpressure
(which depends on inflight timing relative to the kill) never engages.

Exit status 0 = round trip OK; any assertion failure is fatal.
"""

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.serve import (  # noqa: E402
    ServeConfig,
    load_checkpoint,
    serve,
    validate_serve_report,
)

CONFIG = dict(
    cells=2,
    subframes=400,
    backend="serial",
    pace=False,
    arrival="poisson",
    rate=2.0,
    seed=7,
    queue_depth=512,  # >= subframes: backpressure provably never engages
)

CLI = [
    sys.executable,
    "-m",
    "repro",
    "serve",
    "--cells",
    str(CONFIG["cells"]),
    "--subframes",
    str(CONFIG["subframes"]),
    "--backend",
    CONFIG["backend"],
    "--no-pace",
    "--arrival",
    CONFIG["arrival"],
    "--rate",
    str(CONFIG["rate"]),
    "--seed",
    str(CONFIG["seed"]),
    "--queue-depth",
    str(CONFIG["queue_depth"]),
    "--timeout",
    "300",
]


def main() -> int:
    workdir = tempfile.mkdtemp(prefix="supervision-smoke-")
    ckpt = os.path.join(workdir, "ckpt.json")
    out = os.path.join(workdir, "resumed.json")

    print("uninterrupted reference run ...", flush=True)
    full = serve(ServeConfig(**CONFIG))
    assert full.ok, full.errors
    full_report = full.report
    assert full_report["backpressure_hits"] == 0, "config must not backpressure"
    full_map = full_report["terminal_states"]

    print("victim run (SIGKILL after the first non-empty snapshot) ...", flush=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(os.getcwd(), "src"), env.get("PYTHONPATH")) if p
    )
    victim = subprocess.Popen(
        CLI + ["--checkpoint", ckpt, "--checkpoint-every", "0.02"],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    # Midway means at least one resolved subframe on disk: the first
    # periodic snapshots can precede the first terminal.
    deadline = time.monotonic() + 60.0
    while victim.poll() is None:
        if os.path.exists(ckpt) and load_checkpoint(ckpt)["terminal_states"]:
            break
        assert time.monotonic() < deadline, "no non-empty snapshot within 60s"
        time.sleep(0.005)
    assert victim.poll() is None, "victim finished before it could be killed"
    victim.send_signal(signal.SIGKILL)
    victim.wait(timeout=30)
    assert victim.returncode == -signal.SIGKILL

    snapshot = load_checkpoint(ckpt)
    assert snapshot["checkpoint"]["completed"] is False, "kill landed after completion"
    done = len(snapshot["terminal_states"])
    total = CONFIG["cells"] * CONFIG["subframes"]
    assert 0 < done < total, (done, total)
    print(f"  killed with {done}/{total} subframes resolved", flush=True)

    print("resume run ...", flush=True)
    code = subprocess.call(
        CLI + ["--resume", ckpt, "--checkpoint", ckpt, "--json-out", out],
        env=env,
        stdout=subprocess.DEVNULL,
    )
    assert code == 0, f"resume exited {code}"
    with open(out, encoding="utf-8") as handle:
        report = json.load(handle)
    problems = validate_serve_report(report)
    assert not problems, problems
    assert report["checkpoint"]["segments"] == 2, report["checkpoint"]
    assert report["terminal_states"] == full_map, "terminal-state maps differ"
    for key in (
        "dispatched",
        "offered_users",
        "served_users",
        "shed_users",
        "crc_ok_users",
        "terminal_counts",
    ):
        assert report[key] == full_report[key], (
            key,
            report[key],
            full_report[key],
        )
    assert load_checkpoint(ckpt) == report, "the final checkpoint is the report"
    print(
        f"supervision smoke OK: resumed segment matched {len(full_map)} "
        f"terminal states after SIGKILL at {done}/{total}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

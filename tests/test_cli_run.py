"""``repro run``: the documented entry point, on every backend.

One path for all four — ``make_runtime(backend)`` — so each must verify
bit-exact against serial and feed the same SLO report.
"""

import json

import pytest

from repro.cli import main


@pytest.mark.parametrize(
    "backend", ["serial", "vectorized", "threaded", "multiprocess"]
)
def test_run_verifies_and_reports_on_every_backend(backend, capsys):
    args = ["run", "--backend", backend, "--subframes", "4", "--verify"]
    assert main(args) == 0
    assert "all 4 subframes bit-exact vs serial" in capsys.readouterr().out

    assert main([*args, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["backend"] == backend
    assert payload["subframes"] == 4
    assert payload["bit_exact_vs_serial"] is True
    assert payload["crc_ok"] == payload["users"] > 0
    assert payload["wall_s"] > 0
    report = payload["slo_report"]
    assert report["schema"] == "repro-slo/1"
    assert report["subframes"] == 4
    assert report["latency"]["count"] == 4

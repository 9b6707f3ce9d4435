"""``scripts/result_digest.py``: the digest hashes bit values, not dtypes,
and sees a single flipped bit."""

import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.phy.params import Modulation
from repro.uplink import process_subframe
from repro.uplink.subframe import SubframeFactory
from repro.uplink.user import UserParameters

ROOT = Path(__file__).parents[1]
SCRIPT = ROOT / "scripts" / "result_digest.py"
_spec = importlib.util.spec_from_file_location("result_digest", SCRIPT)
result_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(result_digest)
digest = result_digest.result_digest


@pytest.fixture(scope="module")
def results():
    users = [
        UserParameters(0, 8, 1, Modulation.QPSK),
        UserParameters(1, 16, 2, Modulation.QAM16),
        UserParameters(2, 16, 2, Modulation.QAM16),
    ]
    factory = SubframeFactory(seed=5)
    return [
        process_subframe(factory.synthesize(users, index), backend="vectorized")
        for index in range(2)
    ]


def with_payloads(results, convert):
    return [
        replace(
            result,
            user_results=[
                replace(user, payload=convert(user.payload))
                for user in result.user_results
            ],
        )
        for result in results
    ]


def test_int64_and_uint8_copies_digest_equal(results):
    wide = with_payloads(results, lambda p: p.astype(np.int64))
    narrow = with_payloads(results, lambda p: p.astype(np.uint8))
    assert digest(wide) == digest(narrow) == digest(results)


def test_one_flipped_bit_changes_the_digest(results):
    flipped = with_payloads(results, np.copy)
    flipped[1].user_results[2].payload[17] ^= 1
    assert digest(flipped) != digest(results)


def test_non_bit_payload_is_refused(results):
    bad = with_payloads(results, lambda p: p.astype(np.int64) * 2)
    with pytest.raises(ValueError, match="not 0/1"):
        digest(bad)


def test_cli_prints_one_digest():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(SCRIPT), "--workload", "wideband", "--seed", "1"],
        capture_output=True, text=True, timeout=120, env=env, check=True,
    )
    (line,) = proc.stdout.splitlines()
    assert len(line) == 64 and int(line, 16) >= 0

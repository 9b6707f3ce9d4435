"""One SHA-256 over the decoded results of a benchmark workload's traffic.

    PYTHONPATH=src python scripts/result_digest.py --workload paper_mix --seed 1

Runs ``process_subframe(sf, backend="vectorized")`` on every subframe of
``traffic_for(W, N)`` from ``perf/workloads.py`` and prints one hex digest
over every user's ``user_id``, ``crc_ok``, payload values (as ``uint8``
bytes, one a bit, whatever dtype the payload has) and LLR bytes, in
subframe and user order. Two checkouts decode bit-identically when the
digests match: run the script from one checkout with ``PYTHONPATH`` set to
each checkout's ``src`` in turn.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np

__all__ = ["result_digest", "main"]

WORKLOADS = ("paper_mix", "shared_shape", "wideband")


def result_digest(results) -> str:
    """SHA-256 hex digest of a sequence of ``SubframeResult``."""
    h = hashlib.sha256()
    for result in results:
        for user in result.user_results:
            payload = np.asarray(user.payload)
            if np.any((payload != 0) & (payload != 1)):
                raise ValueError(f"user {user.user_id}: payload is not 0/1 bits")
            h.update(np.int64(user.user_id).tobytes())
            h.update(np.uint8(user.crc_ok).tobytes())
            h.update(payload.astype(np.uint8).tobytes())
            h.update(np.ascontiguousarray(user.llrs, dtype=np.float64).tobytes())
    return h.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    # perf/ is read, never changed; repro comes from PYTHONPATH.
    sys.path.append(os.path.join(os.path.dirname(__file__), "..", "perf"))
    from repro.uplink import process_subframe
    from workloads import traffic_for

    traffic = traffic_for(args.workload, args.seed)
    print(result_digest(process_subframe(sf, backend="vectorized") for sf in traffic))
    return 0


if __name__ == "__main__":
    sys.exit(main())

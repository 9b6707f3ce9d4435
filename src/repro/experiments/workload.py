"""Workload-trace experiments: Figs. 7, 8 and 9.

These only exercise the input parameter model: users per subframe
(Fig. 7), total/max/min PRBs per subframe (Fig. 8), and max/min layers per
subframe (Fig. 9), sampled every :data:`PAPER_PLOT_STRIDE` subframes
exactly like the paper plots every 25th subframe.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..uplink.parameter_model import RandomizedParameterModel

__all__ = ["WorkloadTrace", "collect_workload_trace"]

#: The paper plots every 25th subframe "to make the graph clearer".
PAPER_PLOT_STRIDE = 25


@dataclass
class WorkloadTrace:
    """Per-sampled-subframe workload statistics."""

    subframe_indices: np.ndarray
    num_users: np.ndarray  # Fig. 7
    total_prb: np.ndarray  # Fig. 8 "Total"
    max_prb: np.ndarray  # Fig. 8 "Max"
    min_prb: np.ndarray  # Fig. 8 "Min"
    max_layers: np.ndarray  # Fig. 9 "Max"
    min_layers: np.ndarray  # Fig. 9 "Min"

    def summary(self) -> dict[str, float]:
        return {
            "users_min": float(self.num_users.min()),
            "users_max": float(self.num_users.max()),
            "total_prb_max": float(self.total_prb.max()),
            "per_user_prb_max": float(self.max_prb.max()),
            "per_user_prb_min": float(self.min_prb.min()),
            "layers_max": float(self.max_layers.max()),
            "layers_min": float(self.min_layers.min()),
        }


def collect_workload_trace(model: RandomizedParameterModel) -> WorkloadTrace:
    """Sample the model every :data:`PAPER_PLOT_STRIDE` subframes of its
    run (Figs. 7-9 data)."""
    indices = np.arange(0, model.total_subframes, PAPER_PLOT_STRIDE)
    num_users = np.empty(indices.size, dtype=np.int64)
    total_prb = np.empty(indices.size, dtype=np.int64)
    max_prb = np.empty(indices.size, dtype=np.int64)
    min_prb = np.empty(indices.size, dtype=np.int64)
    max_layers = np.empty(indices.size, dtype=np.int64)
    min_layers = np.empty(indices.size, dtype=np.int64)
    for row, index in enumerate(indices):
        users = model.uplink_parameters(int(index))
        prbs = [u.num_prb for u in users]
        layers = [u.layers for u in users]
        num_users[row] = len(users)
        total_prb[row] = sum(prbs)
        max_prb[row] = max(prbs)
        min_prb[row] = min(prbs)
        max_layers[row] = max(layers)
        min_layers[row] = min(layers)
    return WorkloadTrace(
        subframe_indices=indices,
        num_users=num_users,
        total_prb=total_prb,
        max_prb=max_prb,
        min_prb=min_prb,
        max_layers=max_layers,
        min_layers=min_layers,
    )

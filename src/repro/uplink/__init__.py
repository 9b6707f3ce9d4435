"""The LTE Uplink Receiver PHY benchmark core: user/subframe structures,
the paper's randomized input parameter model (Figs. 6 and 10), the serial
reference implementation, the Fig. 5 task decomposition, and
serial-vs-parallel verification.
"""

from .parameter_model import (
    DEFAULT_TOTAL_SUBFRAMES,
    ParameterModel,
    RandomizedParameterModel,
    SteadyStateParameterModel,
    TraceParameterModel,
)
from .scenarios import DiurnalParameterModel
from .serial import (
    FUNCTIONAL_BACKENDS,
    SerialBenchmark,
    SubframeResult,
    process_subframe,
    process_subframe_serial,
)
from .subframe import POOL_SIZE, SubframeFactory, SubframeInput, UserSlice
from .tasks import KERNEL_KINDS, UserJob
from .user import UserParameters
from .vectorized import process_subframe_vectorized, process_subframes
from .verification import VerificationReport, verify_against_serial

__all__ = [
    "FUNCTIONAL_BACKENDS",
    "DEFAULT_TOTAL_SUBFRAMES",
    "ParameterModel",
    "RandomizedParameterModel",
    "SteadyStateParameterModel",
    "TraceParameterModel",
    "DiurnalParameterModel",
    "SerialBenchmark",
    "SubframeResult",
    "process_subframe",
    "process_subframe_serial",
    "process_subframe_vectorized",
    "process_subframes",
    "POOL_SIZE",
    "SubframeFactory",
    "SubframeInput",
    "UserSlice",
    "UserJob",
    "KERNEL_KINDS",
    "UserParameters",
    "VerificationReport",
    "verify_against_serial",
]

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
    "repro.bench",
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
        "repro.phy.frontend",
        "repro.phy.scrambling",
        "repro.phy.mcs",
        "repro.sim.noc",
        "repro.sim.memory",
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

"""Shared synthetic fixtures; session scope keeps the suite fast."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from pyrokin.kinetics import run_analysis
from pyrokin.synthkin import (
    PseudoComponent,
    PseudoComponentModel,
    simulate,
    suite_models,
)
from pyrokin.tga_io import DATE_SEEDS

BETAS = (5.0, 10.0, 15.0, 20.0)

SINGLE_STEP_EA = 180e3
SINGLE_STEP_A = 1e13


@pytest.fixture(scope="session")
def fresh_python():
    """``fresh_python(*args)``: this interpreter run with ``args`` in a fresh
    process that imports pyrokin from this tree's src/, never from a copy
    installed elsewhere; its stdout and stderr are captured as text."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    return lambda *args: subprocess.run([sys.executable, *args], capture_output=True,
                                        text=True, env=env)


@pytest.fixture(scope="session")
def single_step_model():
    return PseudoComponentModel(
        components=(PseudoComponent(fraction=1.0, ea=SINGLE_STEP_EA, a=SINGLE_STEP_A),),
        residue=0.0,
        t_start=300.0,
        t_end=900.0,
    )


@pytest.fixture(scope="session")
def single_step_curves(single_step_model):
    return [simulate(single_step_model, beta, 0.5, DATE_SEEDS) for beta in BETAS]


@pytest.fixture(scope="session")
def single_step_analysis(single_step_curves):
    return run_analysis(single_step_curves)


@pytest.fixture(scope="session")
def three_component_ds():
    for name, model, spec in suite_models():
        if name == "three-component-ds":
            return model, spec
    raise AssertionError("suite is missing the three-component sample")

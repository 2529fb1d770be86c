"""Shared synthetic fixtures; session scope keeps the suite fast."""

import pytest

from pyrokin.kinetics import run_analysis
from pyrokin.synthkin import (
    PseudoComponent,
    PseudoComponentModel,
    simulate,
    suite_models,
)

BETAS = (5.0, 10.0, 15.0, 20.0)

SINGLE_STEP_EA = 180e3
SINGLE_STEP_A = 1e13


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
    return [simulate(single_step_model, beta, 0.5) for beta in BETAS]


@pytest.fixture(scope="session")
def single_step_analysis(single_step_curves):
    return run_analysis(single_step_curves)


@pytest.fixture(scope="session")
def three_component_ds():
    for name, model, spec in suite_models():
        if name == "three-component-ds":
            return model, spec
    raise AssertionError("suite is missing the three-component sample")

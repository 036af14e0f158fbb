"""The experiment registry: every record is consistent with what it runs."""

import inspect
from importlib import import_module

import pytest

from repro.config import SKYLAKE
from repro.registry import EXPERIMENTS, RunContext


def _function(experiment):
    module, _, attr = experiment.function.partition(":")
    return getattr(import_module(module), attr)


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_run_function_accepts_every_kwarg_the_record_passes(name):
    experiment = EXPERIMENTS[name]
    kwargs = {param.name: param.default for param in experiment.params}
    kwargs.update(RunContext(SKYLAKE).sweep_kwargs(
        experiment.seeded, experiment.warm_start))
    signature = inspect.signature(_function(experiment))
    signature.bind(None, **kwargs)
    # The record declares warm_start exactly when the function takes it.
    assert ("warm_start" in signature.parameters) == experiment.warm_start
    assert ("seed" in signature.parameters) == experiment.seeded


@pytest.mark.parametrize("name", sorted(EXPERIMENTS))
def test_defaults_pass_their_own_validation(name):
    experiment = EXPERIMENTS[name]
    experiment.validate({p.name: p.default for p in experiment.params
                         if p.default is not None})


def test_search_choices_match_the_search_package():
    from repro.search import OBJECTIVES, STRATEGIES

    search = {p.name: p for p in EXPERIMENTS["search"].params}
    assert set(search["objective"].choices) == set(OBJECTIVES)
    assert set(search["strategy"].choices) == set(STRATEGIES)


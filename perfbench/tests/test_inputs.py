"""Workload inputs come from the seed alone, with the same work per seed."""

import collections

import pytest

import run


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert run.make_inputs(workload, 7) == run.make_inputs(workload, 7)
    assert run.make_inputs(workload, 7) != run.make_inputs(workload, 8)


def test_service_mix_is_fixed_across_seeds():
    mixes = set()
    for seed in range(20):
        submissions = run.make_inputs("service-mixed", seed)["submissions"]
        assert len(submissions) == run.SERVICE_SUBMISSIONS
        distinct = {repr(sorted(spec.items())) for spec in submissions}
        assert len(distinct) == run.SERVICE_DISTINCT
        kinds = collections.Counter(spec["experiment"] for spec in submissions)
        mixes.add(tuple(sorted(kinds.items())))
    assert len(mixes) == 1


def test_service_layout_is_fixed_across_seeds():
    """Only the specs' seeds come from the seed, not which jobs repeat which."""
    layouts = set()
    for seed in range(20):
        submissions = run.make_inputs("service-mixed", seed)["submissions"]
        first = {}
        layouts.add(tuple(first.setdefault(repr(sorted(spec.items())), index)
                          for index, spec in enumerate(submissions)))
    assert len(layouts) == 1


def test_seeds_share_inputs_modulo_the_variant_count():
    for workload in run.WORKLOADS:
        assert (run.make_inputs(workload, 7)
                == run.make_inputs(workload, 7 + run.INPUT_VARIANTS))


def test_every_input_variant_has_a_recorded_digest():
    for workload in run.WORKLOADS:
        for variant in range(run.INPUT_VARIANTS):
            assert run.recorded_digest(workload, variant), (workload, variant)

"""Unit tests for the analytical model: extraction, closed forms,
prediction invariants, and the sweep/prune machinery.

These tests pin the numbers the derivation in docs/performance_model.md
claims — loop lengths read off the Figure-1 FSMs, the saturated round
period per organization, and conservation of the wait-state fractions —
without running any simulation (the validation grid lives in
test_validate_golden.py).
"""

import json

import pytest

from repro.core import ParameterError
from repro.core.advisor import Organization
from repro.flow import compile_design
from repro.model import (
    DEFAULT_MARGIN,
    ModelParameters,
    area_slices,
    extract_parameters,
    pareto_frontier,
    predict,
    prune,
    run_sweep,
    saturated_round,
    serialization_bound,
)
from repro.net import forwarding_source

FIGURE1 = dict(
    consumers=2, producer_loop=15, consumer_loop=5, producer_accesses=7
)


def figure1_params(organization, **overrides):
    return ModelParameters(organization=organization, **FIGURE1).with_config(
        **overrides
    )


# -- parameter extraction -------------------------------------------------


def test_extraction_reads_figure1_loops():
    """The FSM walk recovers the Figure-1 loop shape: the producer's
    longest guarded-write cycle is 15 states with 7 memory accesses, the
    consumer's shortest guarded-read cycle is 5 states."""
    design = compile_design(
        forwarding_source(2), organization=Organization.ARBITRATED
    )
    params = extract_parameters(design)
    assert params.producer_loop == 15
    assert params.consumer_loop == 5
    assert params.producer_accesses == 7
    assert params.consumers == 2
    assert params.banks == 0


def test_extraction_reads_fabric_config():
    design = compile_design(
        forwarding_source(2),
        organization=Organization.ARBITRATED,
        num_banks=4,
        link_latency=3,
        batch_size=2,
    )
    params = extract_parameters(design, traffic_rate=0.5)
    assert params.banks == 4
    assert params.link_latency == 3
    assert params.batch_size == 2
    assert params.traffic_rate == 0.5
    assert params.fabric


def test_model_parameters_from_compiled_design_method():
    design = compile_design(
        forwarding_source(3), organization=Organization.EVENT_DRIVEN
    )
    params = design.model_parameters(traffic_rate=0.25)
    assert params.organization is Organization.EVENT_DRIVEN
    assert params.consumers == 3
    assert params.traffic_rate == 0.25


@pytest.mark.parametrize(
    "field, value",
    [
        ("consumers", 0),
        ("producer_loop", 0),
        ("consumer_loop", -1),
        ("producer_accesses", 0),
        ("banks", -1),
        ("link_latency", -1),
        ("batch_size", 0),
        ("offchip_latency", -1),
        ("deplist_entries", 0),
        ("traffic_rate", 1.5),
        ("traffic_rate", -0.1),
    ],
)
def test_validate_rejects_out_of_range(field, value):
    # with_config() validates eagerly, so the bad override itself raises.
    with pytest.raises(ParameterError) as excinfo:
        figure1_params(Organization.ARBITRATED, **{field: value})
    assert excinfo.value.parameter == field
    assert "parameter-error" in excinfo.value.describe()


# -- saturated round closed forms -----------------------------------------


@pytest.mark.parametrize(
    "organization, banks, period",
    [
        (Organization.ARBITRATED, 0, 15.0),
        (Organization.ARBITRATED, 1, 22.0),
        (Organization.ARBITRATED, 4, 22.0),
        (Organization.EVENT_DRIVEN, 0, 15.0),
        (Organization.EVENT_DRIVEN, 1, 22.0),
        (Organization.LOCK_BASELINE, 0, 25.0),
        (Organization.LOCK_BASELINE, 1, 38.0),
    ],
)
def test_figure1_round_periods(organization, banks, period):
    """The Figure-1 periods the validation grid is calibrated on: the
    producer's 15-state loop bounds the on-chip round; the crossbar adds
    one link each way per access on the fabric; the lock baseline pays
    the acquire/poll/release protocol on top."""
    model = saturated_round(figure1_params(organization, banks=banks))
    assert model.period == period
    assert model.consumer_wait == period - FIGURE1["consumer_loop"] + 1


def test_offchip_latency_stretches_period():
    base = figure1_params(Organization.ARBITRATED)
    slow = base.with_config(offchip_accesses=2, offchip_latency=10)
    assert saturated_round(slow).period > saturated_round(base).period


def test_serialization_bound_scales_with_banks():
    one = figure1_params(Organization.ARBITRATED, banks=1)
    four = figure1_params(Organization.ARBITRATED, banks=4)
    assert serialization_bound(four) <= serialization_bound(one)


# -- prediction invariants ------------------------------------------------


@pytest.mark.parametrize("organization", list(Organization))
def test_fractions_conserve_to_one(organization):
    """The per-thread booking recipe hands out exactly one round of
    cycles per thread, so the averaged fractions sum to 1."""
    for rate in (0.02, 0.5, 1.0):
        prediction = predict(
            figure1_params(organization, banks=1, traffic_rate=rate)
        )
        assert sum(prediction.fractions.values()) == pytest.approx(1.0)
        assert all(v >= 0 for v in prediction.fractions.values())


def test_sparse_wait_follows_universal_identity():
    """Below saturation the mean guarded-read wait is 1/X - (C_loop - 1)
    with X the delivered throughput — the identity the sparse half of
    the validation grid rests on."""
    params = figure1_params(
        Organization.ARBITRATED, banks=1, traffic_rate=0.02
    )
    prediction = predict(params)
    assert prediction.throughput == pytest.approx(0.02)
    assert prediction.consumer_wait == pytest.approx(
        1.0 / 0.02 - (params.consumer_loop - 1)
    )


def test_e2e_latency_none_at_saturation():
    saturated = predict(
        figure1_params(Organization.ARBITRATED, traffic_rate=1.0)
    )
    sparse = predict(
        figure1_params(Organization.ARBITRATED, traffic_rate=0.02)
    )
    assert saturated.e2e_latency is None
    assert sparse.e2e_latency is not None and sparse.e2e_latency > 0


def test_summary_json_is_byte_deterministic():
    params = figure1_params(
        Organization.EVENT_DRIVEN, banks=2, traffic_rate=0.9
    )
    first = predict(params).summary_json()
    second = predict(params).summary_json()
    assert first == second
    document = json.loads(first)
    assert document["schema"] == "repro.model.prediction/1"
    assert first == json.dumps(document, indent=2, sort_keys=True) + "\n"


# -- sweep / pareto / prune -----------------------------------------------


def sweep_figure1():
    return run_sweep(figure1_params(Organization.ARBITRATED))


def test_sweep_enumerates_deterministically():
    first = sweep_figure1()
    second = sweep_figure1()
    assert [p.row() for p in first.points] == [
        p.row() for p in second.points
    ]
    assert first.frontier == second.frontier
    assert first.pruned == second.pruned


def test_frontier_is_subset_of_prune_set():
    result = sweep_figure1()
    assert set(result.frontier) <= set(result.pruned)
    assert result.pruned == sorted(result.pruned)


def test_prune_margin_zero_equals_frontier():
    points = sweep_figure1().points
    assert prune(points, margin=0.0) == pareto_frontier(points)


def test_prune_set_grows_with_margin():
    points = sweep_figure1().points
    tight = set(prune(points, margin=0.05))
    loose = set(prune(points, margin=DEFAULT_MARGIN))
    assert tight <= loose


def test_area_bridge_matches_fpga_model_and_memoizes():
    params = figure1_params(Organization.ARBITRATED, banks=2)
    first = area_slices(params)
    second = area_slices(params)
    assert first == second
    assert first > 0
    # Fabric deployments pay for the crossbar: more banks, more slices.
    assert area_slices(params.with_config(banks=4)) > first

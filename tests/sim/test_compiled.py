"""Unit coverage for the compiled backend: cache, cache key, fallback.

The differential suite proves the generated code's *semantics*; these
tests pin the subsystem's plumbing — the in-process codegen cache (a
second ``build_simulation`` of an identical design is a cache hit), its
key (the generated source: deterministic for one design, distinct for
designs that differ), and the unsupported-design and bind-failure
fallbacks.
"""

import hashlib

import pytest

from repro.core import Organization
from repro.flow import build_simulation, compile_design
from repro.net import (
    BernoulliTraffic,
    forwarding_functions,
    forwarding_source,
)
from repro.scenarios import catalog
from repro.sim.compiled import (
    CompiledKernel,
    UnsupportedDesign,
    cache_size,
    clear_cache,
    compile_program,
    generate_source,
    generation_count,
)
from repro.sim.compiled import cache as cache_module

@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def _design(**kwargs):
    return compile_design(forwarding_source(2), **kwargs)


class TestCodegenCache:
    def test_second_build_of_identical_design_hits_cache(self):
        before = generation_count()
        sim1 = build_simulation(_design(), kernel="compiled")
        assert generation_count() == before + 1
        sim2 = build_simulation(_design(), kernel="compiled")
        # identical design recompiled from source: zero new generations
        assert generation_count() == before + 1
        assert sim1.kernel.program is sim2.kernel.program
        assert cache_size() == 1

    def test_different_organizations_generate_separately(self):
        build_simulation(
            _design(organization=Organization.ARBITRATED), kernel="compiled"
        )
        before = generation_count()
        build_simulation(
            _design(organization=Organization.EVENT_DRIVEN), kernel="compiled"
        )
        assert generation_count() == before + 1
        assert cache_size() == 2

    def test_clear_cache_forces_regeneration(self):
        design = _design()
        compile_program(design)
        before = generation_count()
        clear_cache()
        assert cache_size() == 0
        compile_program(design)
        assert generation_count() == before + 1

    def test_cached_program_is_shared_across_kernels(self):
        design = _design()
        first = compile_program(design)
        second = compile_program(design)
        assert first is second


def _scenario(name, synthesis):
    scenario = catalog.get_scenario(name)
    return scenario.source, {
        "name": scenario.name,
        "channel_synthesis": synthesis,
    }


#: Designs by test id, as ``(source, compile_design options)``.
DESIGNS = {
    **{f"forwarding{n}": (forwarding_source(n), {}) for n in (2, 4, 8)},
    **{
        organization.value: (
            forwarding_source(2),
            {"organization": organization},
        )
        for organization in Organization
    },
    "banks4": (forwarding_source(2), {"num_banks": 4}),
    **{
        f"{name}-{synthesis}": _scenario(name, synthesis)
        for name in catalog.SCENARIO_NAMES
        for synthesis in ("guarded", "fifo")
    },
}


def _compile(design_id):
    source, options = DESIGNS[design_id]
    return compile_design(source, **options)


class TestCacheKey:
    """The cache key is the sha256 of the generated source."""

    @pytest.mark.parametrize("design", sorted(DESIGNS))
    def test_independent_compiles_generate_identical_source(self, design):
        first, second = _compile(design), _compile(design)
        assert first is not second
        assert generate_source(first) == generate_source(second)
        before = generation_count()
        assert compile_program(first) is compile_program(second)
        assert generation_count() == before + 1

    @pytest.mark.parametrize(
        "one, other",
        [
            ("forwarding2", "forwarding4"),
            ("arbitrated", "lock_baseline"),
            ("arbitrated", "event_driven"),
            ("forwarding2", "banks4"),
        ],
    )
    def test_different_designs_get_distinct_programs(self, one, other):
        before = generation_count()
        first = compile_program(_compile(one))
        second = compile_program(_compile(other))
        assert first.digest != second.digest
        assert first.source != second.source
        assert generation_count() == before + 2
        assert cache_size() == 2

    def test_digest_is_the_hash_of_the_source(self):
        program = compile_program(_design())
        assert program.digest == hashlib.sha256(
            program.source.encode()
        ).hexdigest()


def _drifted_bind(kernel):
    raise RuntimeError("drift")


class TestFallback:
    def test_kernel_without_design_interprets(self):
        sim = build_simulation(_design(), kernel="compiled")
        bare = CompiledKernel(sim.kernel.executors, sim.kernel.controllers)
        bare.run(10)
        assert bare.cycles_interpreted == 10
        assert bare.cycles_compiled == 0

    def test_unsupported_program_reports_reason_and_interprets(
        self, monkeypatch
    ):
        refusals = []

        def refuse(design):
            refusals.append(design)
            raise UnsupportedDesign("synthetic: no compiled equivalent")

        monkeypatch.setattr(cache_module, "generate_source", refuse)
        design = _design()
        before = generation_count()
        with pytest.raises(UnsupportedDesign, match="synthetic"):
            compile_program(design)
        # the refusal is not cached: every build generates, is refused
        # again, compiles nothing and runs on the wheel
        for build in (1, 2):
            sim = build_simulation(design, kernel="compiled")
            kernel = sim.kernel
            assert len(refusals) == 1 + build
            assert kernel.program is None
            assert kernel.bind_error == "synthetic: no compiled equivalent"
            sim.run(20)
            assert kernel.cycles_interpreted == 20
            assert kernel.cycles_compiled == 0
        assert generation_count() == before
        assert cache_size() == 0

    def test_bind_failure_falls_back_silently(self, monkeypatch):
        design = _design()
        program = compile_program(design)
        monkeypatch.setitem(
            cache_module._CACHE,
            program.digest,
            type(program)(program.digest, program.source, _drifted_bind),
        )
        sim = build_simulation(design, kernel="compiled")
        assert sim.kernel.bind_error == "RuntimeError: drift"
        sim.run(15)
        assert sim.kernel.cycles_interpreted == 15

    def test_bind_failure_raises_under_strict_env(self, monkeypatch):
        design = _design()
        program = compile_program(design)
        monkeypatch.setitem(
            cache_module._CACHE,
            program.digest,
            type(program)(program.digest, program.source, _drifted_bind),
        )
        monkeypatch.setenv("REPRO_COMPILED_STRICT", "1")
        with pytest.raises(RuntimeError, match="drift"):
            build_simulation(design, kernel="compiled")

    def test_observer_forces_interpreted_path(self):
        sim = build_simulation(_design(), kernel="compiled")
        sim.attach_telemetry()
        sim.run(30)
        assert sim.kernel.cycles_interpreted == 30
        assert sim.kernel.cycles_compiled == 0

    def test_non_rx_hook_forces_interpreted_path(self):
        sim = build_simulation(_design(), kernel="compiled")
        seen = []
        sim.kernel.add_pre_cycle_hook(
            lambda cycle, kernel: seen.append(cycle)
        )
        sim.run(5)
        assert sim.kernel.cycles_interpreted == 5
        assert seen == [0, 1, 2, 3, 4]

    def test_traffic_hook_stays_on_fast_path(self):
        sim = build_simulation(
            _design(),
            functions=forwarding_functions(),
            kernel="compiled",
        )
        generator = BernoulliTraffic(rate=0.5, seed=3)
        hook = generator.attach(sim.rx["eth_in"])
        sim.kernel.add_pre_cycle_hook(hook)
        sim.run(200)
        assert sim.kernel.cycles_compiled == 200
        assert sim.kernel.cycles_interpreted == 0
        assert hook.injected > 0

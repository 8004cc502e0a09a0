"""``RunConfig``: one frozen execution contract, no kwarg mixing."""

import dataclasses

import pytest

from repro import run_inspector
from repro.core.pipeline import MevInspector
from repro.core.profit import PriceService
from repro.engine import RunConfig, ensure_unmixed, resolve_config

from tests.engine.conftest import fingerprint


class TestValidation:
    def test_frozen(self):
        config = RunConfig(chunk_size=10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.chunk_size = 20

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            RunConfig(workers=0)

    def test_negative_chunk_size_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            RunConfig(chunk_size=-5)

    def test_cache_dir_requires_cache_key(self):
        with pytest.raises(ValueError, match="cache_key"):
            RunConfig(cache_dir="/tmp/cache")

    def test_confirm_depth_validated(self):
        assert RunConfig(confirm_depth=0).confirm_depth == 0
        with pytest.raises(ValueError, match="confirm_depth"):
            RunConfig(confirm_depth=-1)


class TestResolveConfig:
    def test_config_passes_through_untouched(self):
        config = RunConfig(chunk_size=10)
        assert resolve_config(config) is config

    def test_default_loose_values_do_not_warn(self, recwarn):
        config = resolve_config(None, chunk_size=None, workers=1)
        assert config == RunConfig()
        assert not [w for w in recwarn.list
                    if issubclass(w.category, DeprecationWarning)]

    def test_mixing_still_raises(self):
        with pytest.raises(ValueError, match="RunConfig"):
            resolve_config(RunConfig(), chunk_size=10)


class TestMixing:
    def test_loose_kwargs_alongside_config_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            ensure_unmixed(RunConfig(), chunk_size=10)

    def test_default_loose_values_are_fine(self):
        ensure_unmixed(RunConfig(chunk_size=10), chunk_size=None,
                       workers=1)

    def test_no_config_accepts_anything(self):
        ensure_unmixed(None, chunk_size=10, workers=4)

    def test_run_rejects_mixed_call(self, sim_result):
        with pytest.raises(ValueError, match="RunConfig"):
            run_inspector(sim_result, chunk_size=10, config=RunConfig())

    def test_inspector_run_takes_only_a_config(self, sim_result):
        inspector = MevInspector(sim_result.node,
                                 PriceService(sim_result.oracle))
        with pytest.raises(TypeError):
            inspector.run(chunk_size=10)


class TestEquivalence:
    def test_config_run_equals_loose_kwarg_run(self, sim_result,
                                               serial_baseline):
        config = RunConfig(chunk_size=25, workers=1)
        dataset = run_inspector(sim_result, config=config)
        assert fingerprint(dataset) == fingerprint(serial_baseline)

    def test_digest_changes_with_fault_seed(self):
        one = RunConfig(cache_dir="/tmp/c", cache_key="k", fault_seed=1)
        two = RunConfig(cache_dir="/tmp/c", cache_key="k", fault_seed=2)
        assert one.artifact_digest() != two.artifact_digest()

    def test_digest_folds_in_extra_material(self):
        config = RunConfig(cache_dir="/tmp/c", cache_key="k")
        assert config.artifact_digest({"retry": 1}) != \
            config.artifact_digest({"retry": 2})

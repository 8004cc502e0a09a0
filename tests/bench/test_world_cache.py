"""Unit tests for the bench world-snapshot cache.

The cache must only ever save time: a hit replays a verified,
bit-equal world; *anything* questionable — missing file, garbage
bytes, wrong shape, content drift — is a miss that falls back to a
fresh simulation.
"""

import pickle

from repro.bench import (
    WORLD_CACHE_FORMAT,
    load_world,
    store_world,
    world_digest,
)
from repro.bench.harness import _world_fingerprint, _world_path
from repro.sim import ScenarioConfig, build_paper_scenario

CONFIG = ScenarioConfig(blocks_per_month=6, seed=3)


class TestWorldDigest:
    def test_stable_for_equal_configs(self):
        assert world_digest(CONFIG) == \
            world_digest(ScenarioConfig(blocks_per_month=6, seed=3))

    def test_sensitive_to_every_knob(self):
        base = world_digest(CONFIG)
        assert world_digest(ScenarioConfig(blocks_per_month=6,
                                           seed=4)) != base
        assert world_digest(ScenarioConfig(blocks_per_month=7,
                                           seed=3)) != base

    def test_sensitive_to_package_version(self, monkeypatch):
        import repro
        base = world_digest(CONFIG)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        assert world_digest(CONFIG) != base


class TestStoreAndLoad:
    def test_round_trip(self, tmp_path):
        result = build_paper_scenario(CONFIG).run()
        path = store_world(tmp_path, CONFIG, result)
        assert path.exists()
        loaded = load_world(tmp_path, CONFIG)
        assert loaded is not None
        assert _world_fingerprint(loaded) == _world_fingerprint(result)
        assert loaded.node.latest_block_number() == \
            result.node.latest_block_number()

    def test_missing_snapshot_is_a_miss(self, tmp_path):
        assert load_world(tmp_path, CONFIG) is None
        assert load_world(tmp_path
                          / "never-created", CONFIG) is None

    def test_fingerprint_mismatch_is_a_miss(self, tmp_path):
        result = build_paper_scenario(CONFIG).run()
        path = store_world(tmp_path, CONFIG, result)
        with open(path, "rb") as stream:
            document = pickle.load(stream)
        document["fingerprint"] = "0" * 64  # content drift
        with open(path, "wb") as stream:
            pickle.dump(document, stream)
        assert load_world(tmp_path, CONFIG) is None

    def test_corrupt_snapshot_is_a_miss(self, tmp_path):
        path = _world_path(tmp_path, CONFIG)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"not a pickle")
        assert load_world(tmp_path, CONFIG) is None

    def test_snapshot_carries_the_format_marker(self, tmp_path):
        store_world(tmp_path, CONFIG, build_paper_scenario(CONFIG).run())
        with open(_world_path(tmp_path, CONFIG), "rb") as stream:
            document = pickle.load(stream)
        assert document["format"] == WORLD_CACHE_FORMAT == 2

    def test_formatless_snapshot_is_a_miss(self, tmp_path, capsys):
        """A monolithic cache written by <= 1.5.0 has no format
        marker; it must be refused with a message naming the old
        layout, never a pickle error."""
        result = build_paper_scenario(CONFIG).run()
        path = store_world(tmp_path, CONFIG, result)
        with open(path, "rb") as stream:
            document = pickle.load(stream)
        del document["format"]
        with open(path, "wb") as stream:
            pickle.dump(document, stream)
        assert load_world(tmp_path, CONFIG) is None
        assert "1.5.0" in capsys.readouterr().err

    def test_other_format_is_a_miss(self, tmp_path, capsys):
        result = build_paper_scenario(CONFIG).run()
        path = store_world(tmp_path, CONFIG, result)
        with open(path, "rb") as stream:
            document = pickle.load(stream)
        document["format"] = WORLD_CACHE_FORMAT + 1
        with open(path, "wb") as stream:
            pickle.dump(document, stream)
        assert load_world(tmp_path, CONFIG) is None
        assert "format" in capsys.readouterr().err

    def test_wrong_shape_is_a_miss(self, tmp_path):
        path = _world_path(tmp_path, CONFIG)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as stream:
            pickle.dump(["not", "a", "dict"], stream)
        assert load_world(tmp_path, CONFIG) is None
        with open(path, "wb") as stream:
            pickle.dump({"fingerprint": "x", "result": "not-a-world"},
                        stream)
        assert load_world(tmp_path, CONFIG) is None

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


BPM = ["--bpm", "8", "--seed", "3"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.bpm == 60
        assert args.seed == 7

    def test_export_needs_path(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["export"])

    def test_spilling_flags(self):
        args = build_parser().parse_args(
            ["run", "--blocks", "100000", "--epoch-blocks", "5000",
             "--max-resident-epochs", "3", "--segment-dir", "segs"])
        assert args.blocks == 100000
        assert args.epoch_blocks == 5000
        assert args.max_resident_epochs == 3
        assert args.segment_dir == "segs"

    def test_shard_flags(self):
        args = build_parser().parse_args(["bench", "--shard",
                                          "--shard-workers", "3",
                                          "--shard-prefix", "4"])
        assert args.shard is True
        assert args.shard_workers == 3
        assert args.shard_prefix == 4
        defaults = build_parser().parse_args(["bench"])
        assert defaults.shard is False
        assert defaults.shard_workers == 2
        assert defaults.shard_prefix is None


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"] + BPM) == 0
        out = capsys.readouterr().out
        assert "MEV Strategy" in out
        assert "Sandwiching" in out
        assert "Total" in out

    def test_figures(self, capsys):
        assert main(["figures"] + BPM) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out
        assert "Figure 4" in out
        assert "Figure 9" in out

    def test_run_full_report(self, capsys):
        assert main(["run"] + BPM) == 0
        out = capsys.readouterr().out
        for marker in ("MEV Strategy", "Figure 8", "Section 5.2",
                       "Section 6.3", "Goal 2"):
            assert marker in out

    def test_run_spilled_report_matches_in_memory(self, tmp_path,
                                                  capsys):
        """`repro run --segment-dir` must print byte-identical output
        to the all-in-memory run of the same scenario."""
        args = BPM + ["--epoch-blocks", "5"]
        assert main(["run"] + args) == 0
        in_memory = capsys.readouterr().out
        assert main(["run"] + args +
                    ["--segment-dir", str(tmp_path / "segs"),
                     "--max-resident-epochs", "1"]) == 0
        assert capsys.readouterr().out == in_memory

    def test_follow_rejects_spilling_flags(self):
        with pytest.raises(SystemExit):
            main(["run", "--follow", "--blocks", "10"] + BPM)

    def test_export_round_trips(self, tmp_path, capsys):
        target = tmp_path / "mev.jsonl"
        assert main(["export", str(target)] + BPM) == 0
        assert "wrote" in capsys.readouterr().out
        from repro.core.datasets import MevDataset
        with open(target, encoding="utf-8") as stream:
            loaded = MevDataset.load_jsonl(stream)
        assert loaded.totals()["total"] >= 0
        assert target.read_text().count("\n") == \
            loaded.totals()["total"]

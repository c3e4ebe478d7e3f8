"""Tests for the command-line entry points."""

import json

import pytest

from repro.cli import main_fig2, main_gateway, main_ingest, main_shard
from repro.distributed import format_address, spawn_local_agents


class TestIngestCLI:
    def test_hierarchical_text_output(self, capsys):
        rc = main_ingest(["--updates", "20000", "--batches", "5", "--cuts", "1000,10000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "updates per second" in out
        assert "20,000" in out

    def test_json_output(self, capsys):
        rc = main_ingest(["--updates", "5000", "--batches", "5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_updates"] == 5000
        assert payload["updates_per_second"] > 0

    def test_flat_system(self, capsys):
        rc = main_ingest(["--updates", "3000", "--batches", "3", "--system", "flat"])
        assert rc == 0
        assert "flat" in capsys.readouterr().out

    def test_d4m_system(self, capsys):
        rc = main_ingest(
            ["--updates", "2000", "--batches", "4", "--system", "hierarchical-d4m",
             "--cuts", "500,5000"]
        )
        assert rc == 0
        assert "hierarchical-d4m" in capsys.readouterr().out


class TestShardCLI:
    def test_powerlaw_text_output(self, capsys):
        rc = main_shard(
            ["--shards", "3", "--updates", "20000", "--batch-size", "5000",
             "--cuts", "1000,10000"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "shards:                3" in out
        assert "20,000" in out
        assert "aggregate rate (sum)" in out

    def test_json_output_range_partition(self, capsys):
        rc = main_shard(
            ["--shards", "2", "--partition", "range", "--updates", "10000",
             "--batch-size", "2000", "--cuts", "1000,10000", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_updates"] == 10000
        assert payload["partition"] == "range"
        assert len(payload["per_shard"]) == 2
        assert sum(s["updates"] for s in payload["per_shard"]) == 10000

    def test_traffic_source(self, capsys):
        rc = main_shard(
            ["--shards", "2", "--source", "traffic", "--updates", "6000",
             "--batch-size", "3000", "--cuts", "1000,10000", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "traffic"
        assert payload["total_updates"] == 6000

    @pytest.mark.parametrize("source", ["powerlaw", "traffic"])
    def test_sources_stream_exactly_updates(self, capsys, source):
        """Whole-window generators must not round the request up or down."""
        rc = main_shard(
            ["--shards", "2", "--source", source, "--updates", "1500",
             "--batch-size", "1000", "--cuts", "1000,10000", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_updates"] == 1500
        assert sum(s["updates"] for s in payload["per_shard"]) == 1500

    def test_stats_text_output(self, capsys):
        rc = main_shard(
            ["--shards", "2", "--updates", "6000", "--batch-size", "2000",
             "--cuts", "1000,10000", "--stats"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "incremental traffic statistics" in out
        assert "total traffic:         6,000" in out
        assert "top source share" in out

    def test_stats_json_matches_materialized_nvals(self, capsys):
        rc = main_shard(
            ["--shards", "3", "--updates", "5000", "--batch-size", "1000",
             "--cuts", "1000,10000", "--stats", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["nnz"] == payload["global_nvals"]
        assert payload["stats"]["total_traffic"] == 5000.0
        assert len(payload["supernodes"]["top_sources"]) == 5

    def test_manual_rebalance_migrates_once(self, capsys):
        """--rebalance manual forces exactly one mid-stream migration."""
        rc = main_shard(
            ["--shards", "3", "--partition", "range", "--updates", "20000",
             "--batch-size", "2000", "--cuts", "1000,10000", "--rebalance",
             "manual", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_updates"] == 20000
        reb = payload["rebalance"]
        assert reb["mode"] == "manual"
        assert len(reb["events"]) == 1
        assert reb["map_epoch"] == 1
        event = reb["events"][0]
        assert event["moved"] > 0 and event["source"] != event["dest"]

    def test_auto_rebalance_respects_threshold(self, capsys):
        """A sky-high threshold means zero migrations; the run still reports."""
        rc = main_shard(
            ["--shards", "2", "--updates", "8000", "--batch-size", "2000",
             "--cuts", "1000,10000", "--rebalance", "auto",
             "--imbalance-threshold", "100", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rebalance"]["events"] == []
        assert payload["rebalance"]["map_epoch"] == 0
        assert payload["total_updates"] == 8000

    def test_replay_manual_rebalance_uses_real_stream_length(self, tmp_path, capsys):
        """Regression: --replay ignores --updates, so the manual midpoint
        must be computed from the capture's real length (default --updates
        would place it far past a short capture's last batch)."""
        replay = tmp_path / "capture.tsv"
        lines = [f"{i}\t{i % 97}\t1.0" for i in range(400)]
        replay.write_text("\n".join(lines) + "\n")
        rc = main_shard(
            ["--shards", "2", "--partition", "range", "--replay", str(replay),
             "--batch-size", "100", "--cuts", "1000,10000",
             "--rebalance", "manual", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["total_updates"] == 400
        assert len(payload["rebalance"]["events"]) == 1
        assert payload["rebalance"]["map_epoch"] == 1

    def test_rebalance_text_output(self, capsys):
        rc = main_shard(
            ["--shards", "2", "--partition", "range", "--updates", "8000",
             "--batch-size", "2000", "--cuts", "1000,10000",
             "--rebalance", "manual"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "rebalance:             manual" in out
        assert "final imbalance" in out

    def test_replay_file(self, tmp_path, capsys):
        replay = tmp_path / "capture.tsv"
        lines = [f"{i % 7}\t{i % 5}\t1.0" for i in range(100)]
        replay.write_text("\n".join(lines) + "\n")
        rc = main_shard(
            ["--shards", "2", "--replay", str(replay), "--batch-size", "30",
             "--cuts", "1000,10000", "--json"]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"] == "replay"
        assert payload["total_updates"] == 100
        assert payload["global_nvals"] == 35  # 7 x 5 distinct coordinate pairs

    def _process_backed_run(self, capsys, extra):
        rc = main_shard(
            ["--shards", "2", "--updates", "4000", "--batch-size", "1000",
             "--cuts", "1000,10000", "--json", *extra]
        )
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["transport"] == "socket"
        assert payload["total_updates"] == 4000
        assert sum(s["updates"] for s in payload["per_shard"]) == 4000

    def test_processes_fork_local_workers(self, capsys):
        self._process_backed_run(capsys, ["--processes"])

    def test_nodes_imply_processes(self, capsys):
        with spawn_local_agents(2) as (addresses, _procs):
            nodes = ",".join(format_address(a) for a in addresses)
            self._process_backed_run(capsys, ["--nodes", nodes])

    def test_transport_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main_shard(["--processes", "--transport", "queue"])
        assert exited.value.code == 2
        assert "--transport" in capsys.readouterr().err


class TestGatewayCLI:
    def test_serve_forks_local_workers(self, capsys):
        rc = main_gateway(
            ["serve", "--processes", "--cuts", "1000,10000", "--duration", "0.1"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert out.startswith("gateway listening on 127.0.0.1:")
        assert "updates routed:        0" in out

    def test_serve_transport_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main_gateway(["serve", "--processes", "--transport", "socket"])
        assert exited.value.code == 2
        assert "--transport" in capsys.readouterr().err


class TestFig2CLI:
    def test_prints_all_series(self, capsys):
        rc = main_fig2(["--updates", "20000", "--d4m-updates", "2000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Hierarchical GraphBLAS (measured)" in out
        assert "Hierarchical D4M" in out
        assert "Accumulo" in out
        assert "CrateDB" in out

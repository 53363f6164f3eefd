"""The ``python -m repro.store`` CLI, including the crash-recovery drill."""

import pathlib
import subprocess
import sys

import pytest

from repro.store.__main__ import CRASH_EXIT_CODE, main

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src")


def _run(*arguments):
    """Run the CLI in a subprocess (needed for --crash, honest elsewhere)."""
    return subprocess.run(
        [sys.executable, "-m", "repro.store", *arguments],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )


class TestInProcess:
    def test_ingest_then_query(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        assert main(["ingest", directory, "--group", "g", "--items", "a", "b", "a"]) == 0
        assert main(["query", directory, "estimate 'g'"]) == 0
        output = capsys.readouterr().out
        assert "g\t" in output

    def test_query_expectation_gate(self, tmp_path):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--count", "20000"])
        assert (
            main(["query", directory, "estimate 'g'", "--expect", "20000", "--tolerance", "0.2"])
            == 0
        )
        assert (
            main(["query", directory, "estimate 'g'", "--expect", "1000", "--tolerance", "0.2"])
            == 1
        )

    def test_compact_and_info(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--count", "1000"])
        assert main(["compact", directory]) == 0
        assert main(["info", directory]) == 0
        output = capsys.readouterr().out
        assert "generation:  1" in output

    def test_info_leaves_a_torn_tail_byte_identical(self, tmp_path, capsys):
        """``info`` reads: a torn tail may be a live writer's in-flight append."""
        from repro.store import wal_path

        directory = tmp_path / "s"
        main(["ingest", str(directory), "--group", "g", "--count", "500"])
        wal = wal_path(directory, 0)
        torn = wal.read_bytes() + b"\x05\x15partial"
        wal.write_bytes(torn)
        capsys.readouterr()
        assert main(["info", str(directory)]) == 0
        assert "wal records: 1" in capsys.readouterr().out
        assert wal.read_bytes() == torn

    def test_default_query_lists_every_group(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "alpha", "--count", "3000"])
        main(["ingest", directory, "--group", "beta", "--items", "y", "z"])
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", directory]) == 0  # default: estimate all
        output = capsys.readouterr().out.strip().splitlines()
        assert len(output) == 2
        by_group = dict(line.split("\t") for line in output)
        assert set(by_group) == {"alpha", "beta"}
        assert float(by_group["beta"]) == pytest.approx(2.0, abs=0.5)

    def test_top_selects_largest(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "small", "--items", "x"])
        main(["ingest", directory, "--group", "large", "--count", "5000"])
        capsys.readouterr()  # drop the ingest chatter
        assert main(["query", directory, "top 1"]) == 0
        output = capsys.readouterr().out.strip().splitlines()
        assert len(output) == 1 and output[0].startswith("large\t")

    def test_prefix_filter_and_explain(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "country:US", "--items", "a", "b"])
        main(["ingest", directory, "--group", "country:DE", "--items", "c"])
        main(["ingest", directory, "--group", "city:berlin", "--items", "c"])
        capsys.readouterr()
        assert main(
            ["query", directory, "top 10 where key startswith 'country:'", "--explain"]
        ) == 0
        output = capsys.readouterr().out
        lines = output.strip().splitlines()
        assert any(line.startswith("TopK(10)") for line in lines)
        rows = [line for line in lines if "\t" in line]
        assert [row.split("\t")[0] for row in rows] == ["country:US", "country:DE"]

    def test_reader_query_reports_horizon(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--count", "1000"])
        capsys.readouterr()
        assert main(
            ["query", directory, "estimate 'g'", "--reader", "--expect", "1000", "--tolerance", "0.2"]
        ) == 0
        output = capsys.readouterr().out
        assert "durable LSN" in output
        assert "-> ok" in output

    def test_setop_query_between_groups(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "a", "--items", "x", "y", "z"])
        main(["ingest", directory, "--group", "b", "--items", "y", "z", "w"])
        capsys.readouterr()
        assert main(
            [
                "query",
                directory,
                "where key = 'a' intersect where key = 'b'",
                "--expect",
                "2",
                "--tolerance",
                "0.35",
            ]
        ) == 0
        assert "intersect\t" in capsys.readouterr().out

    def test_parse_error_exits_2(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--items", "a"])
        capsys.readouterr()
        assert main(["query", directory, "top banana"]) == 2
        assert "query:" in capsys.readouterr().err

    def test_expect_rejects_multirow_results(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "a", "--items", "x"])
        main(["ingest", directory, "--group", "b", "--items", "y"])
        capsys.readouterr()
        assert main(["query", directory, "estimate all", "--expect", "2"]) == 2
        assert "single-row" in capsys.readouterr().err

    def test_ingest_requires_input(self, tmp_path):
        assert main(["ingest", str(tmp_path / "s"), "--group", "g"]) == 2

    def test_custom_parameters(self, tmp_path, capsys):
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--items", "a", "--t", "1", "--d", "9", "--p", "6"])
        main(["info", directory])
        assert "t=1 d=9 p=6" in capsys.readouterr().out

    def test_ingest_into_nondefault_store_without_flags(self, tmp_path):
        """Omitted --t/--d/--p defer to the persisted configuration."""
        directory = str(tmp_path / "s")
        main(["ingest", directory, "--group", "g", "--items", "a", "--p", "10"])
        assert main(["ingest", directory, "--group", "g", "--items", "b"]) == 0


class TestCrashRecovery:
    def test_crash_ingest_then_recover_and_verify(self, tmp_path):
        """The CI smoke drill: ingest → kill -9 equivalent → recover → verify."""
        directory = str(tmp_path / "s")
        crashed = _run(
            "ingest", directory, "--group", "demo", "--count", "30000", "--crash"
        )
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        assert "simulating crash" in crashed.stdout
        # No snapshot of the data exists — only WAL records.
        recovered = _run(
            "query", directory, "estimate 'demo'", "--expect", "30000", "--tolerance", "0.2"
        )
        assert recovered.returncode == 0, recovered.stdout + recovered.stderr
        assert "-> ok" in recovered.stdout

    def test_crash_with_auto_compaction(self, tmp_path):
        directory = str(tmp_path / "s")
        crashed = _run(
            "ingest",
            directory,
            "--group",
            "demo",
            "--count",
            "30000",
            "--compact-every",
            "65536",
            "--crash",
        )
        assert crashed.returncode == CRASH_EXIT_CODE, crashed.stderr
        info = _run("info", directory)
        assert info.returncode == 0
        assert "generation:  0" not in info.stdout  # compaction happened
        recovered = _run(
            "query", directory, "estimate 'demo'", "--expect", "30000", "--tolerance", "0.2"
        )
        assert recovered.returncode == 0, recovered.stdout + recovered.stderr


class TestLayout:
    """Every command opens its directory by layout: store, cluster or neither."""

    @pytest.mark.parametrize("command", ["query", "info", "stats", "compact", "serve"])
    def test_missing_directory_exits_2_and_creates_nothing(
        self, tmp_path, capsys, command
    ):
        directory = tmp_path / "typo"
        assert main([command, str(directory)]) == 2
        assert str(directory) in capsys.readouterr().err
        assert not directory.exists()

    def test_ingest_on_a_cluster_root_routes_to_its_shards(self, tmp_path, capsys):
        root = tmp_path / "c"
        assert main(["cluster", "init", str(root), "--shards", "2"]) == 0
        assert main(["ingest", str(root), "--group", "b", "--count", "3000"]) == 0
        assert main(
            ["query", str(root), "estimate 'b'", "--expect", "3000", "--tolerance", "0.2"]
        ) == 0
        stats = _run("stats", str(root))
        assert stats.returncode == 0, stats.stderr
        assert "groups:      1" in stats.stdout
        assert not list(root.glob("snapshot-*")) and not list(root.glob("wal-*"))

    def test_query_leaves_a_torn_tail_alone(self, tmp_path):
        directory = tmp_path / "s"
        main(["ingest", str(directory), "--group", "g", "--count", "1000"])
        main(["ingest", str(directory), "--group", "h", "--items", "x", "y"])
        wal = directory / "wal-00000000.log"
        torn = wal.read_bytes()[:-5]  # cut into the last record
        wal.write_bytes(torn)
        assert main(
            ["query", str(directory), "estimate 'g'", "--expect", "1000", "--tolerance", "0.2"]
        ) == 0
        assert wal.read_bytes() == torn

    @pytest.mark.parametrize("command", ["serve", "replicate"])
    def test_per_store_commands_refuse_a_cluster_root(self, tmp_path, capsys, command):
        root = tmp_path / "c"
        assert main(["cluster", "init", str(root), "--shards", "2"]) == 0
        replica = tmp_path / "replica"
        extra = [str(replica)] if command == "replicate" else []
        loop = ["--interval", "0.01", "--iterations", "1", "--max-retries", "0"]
        assert main([command, str(root), *extra, *loop]) == 2
        assert str(root) in capsys.readouterr().err
        assert not replica.exists()

    @pytest.mark.parametrize("command", ["init", "rebalance"])
    def test_cluster_commands_refuse_a_store(self, tmp_path, capsys, command):
        directory = tmp_path / "s"
        main(["ingest", str(directory), "--group", "g", "--items", "a"])
        before = sorted(path.name for path in directory.iterdir())
        assert main(["cluster", command, str(directory), "--shards", "2"]) == 2
        assert str(directory) in capsys.readouterr().err
        assert sorted(path.name for path in directory.iterdir()) == before

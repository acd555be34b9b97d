"""Tests for the bench-trail report tool (``repro.tools.bench_report``)
and the rows ``benchmarks/conftest.py`` writes to the trail."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

from repro.tools.bench_report import (
    MULTICORE_ONLY,
    check_rows,
    group_rows,
    load_rows,
    main,
    summarize,
)

# benchmarks/ is not a package: load its conftest by path.
_CONFTEST = Path(__file__).resolve().parents[1] / "benchmarks" / "conftest.py"
_spec = importlib.util.spec_from_file_location("bench_conftest_rows", _CONFTEST)
bench_conftest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_conftest)


def _trail(tmp_path, rows, name="trail.json"):
    path = tmp_path / name
    path.write_text(json.dumps(rows))
    return str(path)


ROWS = [
    {"bench": "E1_demo", "wall_ms": 120.0, "speedup": 2.0},
    {"bench": "E1_demo", "wall_ms": 100.0, "speedup": 2.5, "p95_ms": 8.0},
    {"bench": "E2_other", "wall_ms": 50.0, "speedup": 4.0},
]


class TestSummarize:
    def test_latest_and_best_trajectory(self):
        summary = summarize(group_rows(ROWS))
        by_name = {s["bench"]: s for s in summary}
        demo = by_name["E1_demo"]
        assert demo["runs"] == 2
        assert demo["latest_ms"] == 100.0
        assert demo["best_ms"] == 100.0
        assert demo["latest_x"] == 2.5
        assert demo["best_x"] == 2.5
        assert demo["latest_p95_ms"] == 8.0
        assert by_name["E2_other"]["latest_p95_ms"] is None

    def test_benches_sorted(self):
        names = [s["bench"] for s in summarize(group_rows(ROWS))]
        assert names == sorted(names)

    def test_non_finite_values_excluded_from_best(self):
        rows = ROWS + [{"bench": "E1_demo", "wall_ms": float("nan"), "speedup": 9.0}]
        demo = {s["bench"]: s for s in summarize(group_rows(rows))}["E1_demo"]
        assert demo["runs"] == 3
        assert demo["latest_ms"] == 100.0  # NaN wall excluded
        assert demo["best_x"] == 9.0


class TestCheck:
    def test_clean_trail_passes(self, tmp_path, capsys):
        assert main(["--json", _trail(tmp_path, ROWS), "--check"]) == 0
        out = capsys.readouterr().out
        assert "3 rows, 2 benches, 0 problem(s)" in out
        assert "skipped (multi-core only" in out

    def test_missing_file_passes(self, tmp_path, capsys):
        assert main(["--json", str(tmp_path / "absent.json"), "--check"]) == 0
        assert "nothing recorded yet" in capsys.readouterr().out

    def test_corrupt_json_fails(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--json", str(path), "--check"]) == 1
        assert "broken trail" in capsys.readouterr().err

    def test_non_list_top_level_fails(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text('{"bench": "x"}')
        assert main(["--json", str(path), "--check"]) == 1

    def test_non_finite_speedup_fails(self, tmp_path, capsys):
        rows = ROWS + [{"bench": "E3_broken", "wall_ms": 1.0, "speedup": float("inf")}]
        assert main(["--json", _trail(tmp_path, rows), "--check"]) == 1
        assert "non-finite speedup" in capsys.readouterr().err

    def test_missing_keys_fail(self, tmp_path, capsys):
        rows = [{"bench": "E4_half"}]
        assert main(["--json", _trail(tmp_path, rows), "--check"]) == 1
        assert "missing wall_ms, speedup" in capsys.readouterr().err

    def test_multicore_rows_named_when_absent(self, tmp_path, capsys):
        rows = ROWS + [{"bench": "E16_parallel_fleet_2w", "wall_ms": 9.0, "speedup": 1.1}]
        assert main(["--json", _trail(tmp_path, rows), "--check"]) == 0
        out = capsys.readouterr().out
        skipped = out.split("skipped (multi-core only, no rows): ", 1)[1].splitlines()[0]
        assert skipped.split(", ") == [b for b in MULTICORE_ONLY if b != "E16_parallel_fleet_2w"]

    def test_multicore_list_names_rows_the_parallel_benches_record(self):
        """Every listed name is a row a ``parallel``-marked bench module
        records (literally, or as ``f"..._{workers}w"`` over its worker
        counts) — no phantom bench that ``--check`` would always skip."""
        sources = [
            path.read_text()
            for path in _CONFTEST.parent.glob("test_bench_*.py")
            if "pytest.mark.parallel" in path.read_text()
        ]
        text = "\n".join(sources)
        assert "E16_detect_to_update" in MULTICORE_ONLY
        assert "E18_paced_min_batch" in MULTICORE_ONLY
        for name in MULTICORE_ONLY:
            template = re.sub(r"_\dw$", "_{workers}w", name)
            assert f'"{name}"' in text or f'f"{template}"' in text, name

    def test_check_rows_reports_every_problem(self):
        rows = [
            {"bench": "a", "wall_ms": 1.0, "speedup": float("nan")},
            "not a row",
            {"bench": "b", "wall_ms": 2.0, "speedup": 3.0},
        ]
        problems = check_rows(rows)
        assert len(problems) == 2


class TestReport:
    def test_table_lists_every_bench(self, tmp_path, capsys):
        assert main(["--json", _trail(tmp_path, ROWS)]) == 0
        out = capsys.readouterr().out
        assert "E1_demo" in out and "E2_other" in out
        assert "latest ms" in out and "best x" in out

    def test_malformed_rows_flagged_in_report(self, tmp_path, capsys):
        rows = ROWS + [{"wall_ms": 1.0}]
        assert main(["--json", _trail(tmp_path, rows)]) == 0
        assert "malformed row(s)" in capsys.readouterr().out

    def test_load_rows_rejects_non_list(self, tmp_path):
        path = tmp_path / "obj.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            load_rows(path)


class TestBenchRows:
    def test_row_records_commit_and_cpu(self):
        row = bench_conftest.bench_row("E0_demo", 12.0, 1.5, p95_ms=3.0)
        assert row["bench"] == "E0_demo"
        assert row["p95_ms"] == 3.0
        assert row["cpu_count"] >= 1
        assert row["blas_threads"] >= 1
        assert isinstance(row["cpu_model"], str) and row["cpu_model"]
        sha = row["git_sha"]
        assert sha is None or re.fullmatch(r"[0-9a-f]{40}", sha)
        assert check_rows([row]) == []

    def test_git_sha_is_none_outside_a_checkout(self, tmp_path):
        assert bench_conftest._git_sha(tmp_path) is None


class TestRepoTrail:
    def test_real_trail_is_healthy(self, capsys):
        """The repo's own recorded trail must pass --check (tier-1 smoke)."""
        trail = Path(__file__).resolve().parents[1] / "BENCH_pipeline.json"
        if not trail.exists():
            pytest.skip("no recorded trail in this checkout")
        assert main(["--json", str(trail), "--check"]) == 0

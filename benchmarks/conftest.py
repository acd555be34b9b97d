"""Shared fixtures for the experiment benches (E1-E12).

Every bench regenerates one table/figure analogue from the paper; the rows
are printed (run with ``-s`` to see them) and the claim *shape* is asserted.

Benches that measure wall-clock speedups record machine-readable
``{bench, wall_ms, speedup}`` rows through the :func:`bench_json` fixture;
in a bench session the rows are appended to the file named by
``--bench-json`` (e.g. ``BENCH_pipeline.json`` at the repo root) when the
session ends, so the performance trajectory across PRs stays queryable.
Without ``--bench-json`` no file is written: a plain ``pytest`` run checks
the benches but leaves the trail alone.
"""

import functools
import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

_BENCH_ROWS: list[dict] = []
_ROOT = Path(__file__).resolve().parents[1]


def _blas_threads() -> int:
    """Effective BLAS thread setting: the first pinned env var, else the
    machine's core count (what OpenBLAS/MKL default to)."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var)
        if value:
            try:
                return int(value)
            except ValueError:
                continue
    return os.cpu_count() or 1


@functools.lru_cache(maxsize=None)
def _cpu_model() -> str:
    """The CPU's marketing name (``model name`` in /proc/cpuinfo)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


@functools.lru_cache(maxsize=None)
def _git_sha(root: Path = _ROOT) -> str | None:
    """HEAD of the checkout at ``root``; None when it is not one (the
    search stops at ``root`` instead of climbing into an enclosing repo)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def bench_row(bench: str, wall_ms: float, speedup: float, **extra: float) -> dict:
    """One trail row: the figures plus the machine and commit behind them."""
    row = {"bench": str(bench), "wall_ms": float(wall_ms), "speedup": float(speedup)}
    row.update({k: float(v) for k, v in extra.items()})
    row["cpu_count"] = os.cpu_count() or 1
    row["blas_threads"] = _blas_threads()
    row["cpu_model"] = _cpu_model()
    row["git_sha"] = _git_sha()
    return row


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        default=None,
        metavar="PATH",
        help="file (relative to the repo root) that benchmark rows are appended "
        "to; without it no rows are written",
    )
    parser.addoption(
        "--bench-min-speedup",
        action="append",
        default=[],
        metavar="BENCH=SPEEDUP",
        help=(
            "regression guard: fail the session unless every recorded row named "
            "BENCH reached at least SPEEDUP (repeatable, e.g. "
            "--bench-min-speedup pipeline_10s_4mic_dense=5.0); a named bench "
            "that recorded no row also fails"
        ),
    )
    parser.addoption(
        "--bench-max-p95",
        action="append",
        default=[],
        metavar="BENCH=MS",
        help=(
            "latency guard: fail the session unless every recorded row named "
            "BENCH carries a p95_ms at or below MS milliseconds (repeatable, "
            "e.g. --bench-max-p95 E15_stream_corridor_4n=32); a named bench "
            "that recorded no row — or rows without a p95_ms field — also "
            "fails.  This is how the streaming benches pin the per-hop p95 "
            "to the hop deadline"
        ),
    )


def assert_frame_results_equal(streamed, batched):
    """The PR-1 equivalence contract: identical FrameResult sequences."""
    assert len(streamed) == len(batched)
    for r1, r2 in zip(streamed, batched):
        assert r1.frame_index == r2.frame_index
        assert r1.label == r2.label
        assert r1.detected == r2.detected
        assert np.isclose(r1.confidence, r2.confidence)
        for a, b in ((r1.azimuth, r2.azimuth), (r1.elevation, r2.elevation)):
            assert (np.isnan(a) and np.isnan(b)) or np.isclose(a, b)


@pytest.fixture
def bench_json():
    """Return a recorder ``record(bench, wall_ms, speedup, **extra)`` for
    perf rows.

    Extra keyword fields (floats) ride along in the row — the streaming
    benches use ``p95_ms``/``deadline_ms`` so the ``--bench-max-p95`` guard
    can pin per-hop latency the same way ``--bench-min-speedup`` pins
    throughput.

    Every row also records its context (see :func:`bench_row`) —
    ``cpu_count``, the effective ``blas_threads`` setting, ``cpu_model``
    and the checkout's ``git_sha`` (None outside a checkout) — because a
    speedup (especially the process-parallel E16 rows) is meaningless
    without knowing which code ran on how many of which cores.
    """

    def record(bench: str, wall_ms: float, speedup: float, **extra: float) -> None:
        _BENCH_ROWS.append(bench_row(bench, wall_ms, speedup, **extra))

    return record


def min_speedup_failures(guards: list[str], rows: list[dict]) -> list[str]:
    """Evaluate ``--bench-min-speedup`` guard specs against recorded rows.

    Returns one message per violated guard (empty list = all hold).  A
    non-finite speedup (NaN/inf from a degenerate timing) is a failure in
    its own right: NaN compares False against any floor, so without the
    explicit check a broken bench would *pass* the guard it exists to serve.
    """
    failures = []
    for spec in guards:
        name, _, floor = spec.partition("=")
        try:
            floor = float(floor)
        except ValueError:
            floor = None
        if not name or floor is None:
            failures.append(f"bench-min-speedup: malformed guard {spec!r} (want BENCH=SPEEDUP)")
            continue
        named = [r for r in rows if r["bench"] == name]
        if not named:
            failures.append(f"bench-min-speedup: no recorded row named {name!r}")
            continue
        values = [r["speedup"] for r in named]
        if not all(np.isfinite(v) for v in values):
            failures.append(
                f"bench-min-speedup: {name} recorded a non-finite speedup "
                f"({values}) — the bench itself is broken, not fast"
            )
            continue
        worst = min(values)
        if worst < floor:
            failures.append(
                f"bench-min-speedup: {name} regressed — "
                f"recorded {worst:.2f}x, floor {floor:.2f}x"
            )
    return failures


def max_p95_failures(guards: list[str], rows: list[dict]) -> list[str]:
    """Evaluate ``--bench-max-p95`` guard specs against recorded rows.

    Returns one message per violated guard (empty list = all hold).  A
    NaN ``p95_ms`` (``percentile_ms([])`` of an update-less run) must fail
    loudly: ``max(rows) > ceiling`` is False for NaN, so without the
    explicit finiteness check an empty latency trail would silently pass
    the latency guard.
    """
    failures = []
    for spec in guards:
        name, _, ceiling = spec.partition("=")
        try:
            ceiling = float(ceiling)
        except ValueError:
            ceiling = None
        if not name or ceiling is None:
            failures.append(f"bench-max-p95: malformed guard {spec!r} (want BENCH=MS)")
            continue
        named = [r for r in rows if r["bench"] == name]
        if not named:
            failures.append(f"bench-max-p95: no recorded row named {name!r}")
            continue
        missing = [r for r in named if "p95_ms" not in r]
        if missing:
            failures.append(f"bench-max-p95: rows named {name!r} carry no p95_ms field")
            continue
        values = [r["p95_ms"] for r in named]
        if not all(np.isfinite(v) for v in values):
            failures.append(
                f"bench-max-p95: {name} recorded a non-finite p95_ms "
                f"({values}) — an empty or broken latency trail cannot pass "
                f"a latency guard"
            )
            continue
        worst = max(values)
        if worst > ceiling:
            failures.append(
                f"bench-max-p95: {name} missed its deadline — "
                f"recorded p95 {worst:.2f} ms, ceiling {ceiling:.2f} ms"
            )
    return failures


def pytest_sessionfinish(session, exitstatus):
    if exitstatus == 0:
        failures = min_speedup_failures(
            session.config.getoption("--bench-min-speedup"), _BENCH_ROWS
        ) + max_p95_failures(session.config.getoption("--bench-max-p95"), _BENCH_ROWS)
        for message in failures:  # report every violated guard, not just the first
            print(f"\n{message}")
        guards_ok = not failures
    else:
        guards_ok = True
    if exitstatus == 0 and not guards_ok:
        # Surface the regression as a failed session so CI cannot silently
        # ship a dense-regime slowdown.
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
        return
    target = session.config.getoption("--bench-json")
    if target is None or not _BENCH_ROWS or exitstatus != 0:
        return  # no trail asked for, or never pollute it with a failed run's rows
    path = Path(session.config.rootpath) / target
    try:
        rows = json.loads(path.read_text()) if path.exists() else []
        if not isinstance(rows, list):
            rows = []
    except (OSError, ValueError):
        rows = []
    rows.extend(_BENCH_ROWS)
    try:
        path.write_text(json.dumps(rows, indent=2) + "\n")
    except OSError:
        pass  # read-only checkout; the printed tables still carry the numbers


@pytest.fixture(scope="session")
def square_array():
    """20 cm square array at 1 m height (the default SSL geometry)."""
    return np.array(
        [[0.1, 0.1, 1.0], [0.1, -0.1, 1.0], [-0.1, -0.1, 1.0], [-0.1, 0.1, 1.0]]
    )


@pytest.fixture(scope="session")
def compact_array():
    """6 cm square array (unaliased for siren harmonics)."""
    return np.array(
        [[0.045, 0.045, 1.0], [0.045, -0.045, 1.0], [-0.045, -0.045, 1.0], [-0.045, 0.045, 1.0]]
    )


def print_table(title, header, rows):
    """Uniform table printer for bench output."""
    print(f"\n=== {title} ===")
    print(" | ".join(f"{h:>14}" for h in header))
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:>14.4g}")
            else:
                cells.append(f"{str(v):>14}")
        print(" | ".join(cells))

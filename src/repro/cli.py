"""Command-line entry points.

Six subcommands cover the workflows a downstream user runs most:

- ``generate-dataset`` — the Sec. IV-A clip generator (writes .npz);
  ``--features`` additionally stores batched log-mel maps for every clip;
- ``process`` — run the batched perception engine over a multichannel
  recording (or a synthesized drive-by demo scene) and report detections;
- ``fleet`` — simulate a multi-node corridor with crossing vehicles, shard
  the per-node pipelines, fuse cross-node tracks and print the corridor
  report; ``--stream`` runs the same corridor through the hop-clocked
  real-time ingest runtime instead (ring-buffer ingestion, per-hop fusion,
  live track updates and per-hop latency accounting);
- ``city`` — run many corridor sessions concurrently on one shared worker
  pool under the city supervisor (sessions join and leave mid-run per the
  scenario schedule) and print the city-wide health rollup;
- ``assess-array`` — the Sec. V geometry assessment for a built-in topology;
- ``codesign`` — the Fig. 4 DSE loop from the full Cross3D baseline.

``fleet --stream`` and ``city`` accept ``--json`` to emit the final health
report as one machine-readable JSON document instead of the text report.

Usage::

    python -m repro.cli generate-dataset --n-samples 100 --out clips.npz --features
    python -m repro.cli process --localizer srp_fast --duration 2.0
    python -m repro.cli fleet --n-nodes 3 --spacing 25 --duration 3.0
    python -m repro.cli fleet --stream --n-nodes 4 --duration 3.0 --drop-prob 0.01
    python -m repro.cli city --corridors 3 --stagger 4 --workers 2
    python -m repro.cli city --scenario city.json --json
    python -m repro.cli assess-array --topology uca --n-mics 6 --size 0.15
    python -m repro.cli codesign --error-budget 2.0
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main", "build_parser"]


def _int_at_least(lowest: int):
    """argparse ``type`` for an integer flag bounded below: a bad value
    exits 2 naming the flag, before any scene is rendered."""

    def parse(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be >= {lowest}, got {value}")
        return value

    parse.__name__ = "int"  # argparse's own "invalid int value" for non-ints
    return parse


_positive = _int_at_least(1)
_non_negative = _int_at_least(0)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate-dataset", help="generate emergency-sound clips")
    gen.add_argument("--n-samples", type=int, default=100)
    gen.add_argument("--duration", type=float, default=1.0)
    gen.add_argument("--fs", type=float, default=8000.0)
    gen.add_argument("--snr-low", type=float, default=-30.0)
    gen.add_argument("--snr-high", type=float, default=0.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", type=str, default="dataset.npz")
    gen.add_argument(
        "--features",
        action="store_true",
        help="also store batched log-mel feature maps for every clip",
    )
    gen.add_argument("--feature-mels", type=int, default=32)
    gen.add_argument("--feature-frames", type=int, default=32)

    proc = sub.add_parser(
        "process", help="run the batched perception pipeline over a recording"
    )
    proc.add_argument(
        "--input",
        type=str,
        default=None,
        help=".npz with 'signals' (n_mics, n_samples), 'fs', and optionally "
        "'positions' (n_mics, 3); without 'positions' a UCA of --array-radius "
        "is assumed. Omit to synthesize a drive-by siren demo scene",
    )
    proc.add_argument("--localizer", choices=("srp", "srp_fast", "music"), default="srp_fast")
    proc.add_argument("--array-radius", type=float, default=0.1, help="UCA radius, m")
    proc.add_argument("--duration", type=float, default=2.0, help="demo-scene length, s")
    proc.add_argument("--fs", type=float, default=16000.0, help="demo-scene rate, Hz")
    proc.add_argument("--seed", type=int, default=0)
    proc.add_argument(
        "--compare-streaming",
        action="store_true",
        help="also time the per-frame streaming engine and report the speedup",
    )

    flt = sub.add_parser(
        "fleet", help="simulate a corridor fleet, shard node pipelines, fuse tracks"
    )
    flt.add_argument("--n-nodes", type=int, default=3, help="array nodes along the road")
    flt.add_argument("--spacing", type=float, default=25.0, help="node spacing, m")
    flt.add_argument("--duration", type=float, default=3.0, help="capture length, s")
    flt.add_argument("--fs", type=float, default=8000.0, help="sampling rate, Hz")
    flt.add_argument("--speed", type=float, default=15.0, help="first vehicle speed, m/s")
    flt.add_argument(
        "--speed2", type=float, default=12.0, help="second (crossing) vehicle speed, m/s"
    )
    flt.add_argument(
        "--surface",
        choices=("dense_asphalt", "porous_asphalt", "concrete", "wet_asphalt"),
        default=None,
        help="road-surface preset enabling the reflected propagation path "
        "(image source + asphalt reflection FIR)",
    )
    flt.add_argument(
        "--air",
        action="store_true",
        help="apply distance-varying atmospheric absorption (ISO 9613-1 "
        "FIR bank)",
    )
    flt.add_argument("--localizer", choices=("srp", "srp_fast", "music"), default="srp_fast")
    flt.add_argument("--n-azimuth", type=int, default=72)
    flt.add_argument("--shards", type=_positive, default=None, help="round-robin shard count")
    flt.add_argument(
        "--multilaterate",
        action="store_true",
        help="upgrade two-node fixes with wide-baseline TDOA multilateration",
    )
    flt.add_argument(
        "--tap-window",
        type=float,
        default=None,
        metavar="S",
        help="with --stream --multilaterate: take TDOA windows from rolling "
        "per-node sample taps of this many seconds (populated during "
        "ingest) instead of re-reading full recordings — the only option "
        "for truly live feeds",
    )
    flt.add_argument(
        "--incremental",
        action="store_true",
        help="render corridor audio chunk-by-chunk as the stream pulls it "
        "instead of the whole scene up front (stream mode)",
    )
    flt.add_argument(
        "--detector",
        choices=("oracle", "untrained"),
        default="oracle",
        help="oracle: assume-present detector (reproducible demo); untrained: random MLP",
    )
    flt.add_argument(
        "--stream",
        action="store_true",
        help="run the hop-clocked real-time ingest runtime (per-node ring "
        "buffers, per-hop fusion, live track updates) instead of the "
        "offline batch run",
    )
    flt.add_argument(
        "--hop-batch",
        type=_positive,
        default=8,
        help="hops per fleet stream step (held fixed unless --pace or "
        "--min-batch opts into adaptive pacing)",
    )
    flt.add_argument(
        "--workers",
        type=_non_negative,
        default=0,
        help="forked shard workers over shared-memory rings for the stream "
        "(0 = every shard in-process)",
    )
    flt.add_argument(
        "--pace",
        action="store_true",
        help="pace the stream at capture cadence on the monotonic clock "
        "(real-time replay) instead of free-running; turns on adaptive "
        "pacing (down to --min-batch, default 1)",
    )
    flt.add_argument(
        "--min-batch",
        type=_positive,
        default=None,
        help="turn on adaptive pacing: overruns widen the hop batch and "
        "headroom shrinks it down to this many hops (lower = lower "
        "delivery latency); unset keeps the batch at --hop-batch",
    )
    flt.add_argument(
        "--drop-prob",
        type=float,
        default=0.0,
        help="simulated per-chunk driver drop probability (stream mode)",
    )
    flt.add_argument("--seed", type=int, default=0)
    flt.add_argument(
        "--json",
        action="store_true",
        help="emit the final health report as one JSON document (stream mode)",
    )

    city = sub.add_parser(
        "city",
        help="run many corridor sessions on one shared worker pool under the "
        "city supervisor",
    )
    city.add_argument(
        "--scenario",
        type=str,
        default=None,
        help="city scenario JSON file (see repro.city.scenario.load_scenario); "
        "omit to build a default staggered scenario from the flags below",
    )
    city.add_argument(
        "--corridors", type=_positive, default=3, help="corridors in the default scenario"
    )
    city.add_argument(
        "--n-nodes",
        type=_int_at_least(2),
        default=3,
        help="nodes per corridor (default scenario)",
    )
    city.add_argument("--duration", type=float, default=1.0, help="capture length per corridor, s")
    city.add_argument(
        "--stagger",
        type=_non_negative,
        default=0,
        help="supervisor steps between corridor joins (default scenario)",
    )
    city.add_argument(
        "--workers",
        type=_non_negative,
        default=1,
        help="forked shard workers in the shared pool (0 = every session in-process)",
    )
    city.add_argument(
        "--max-shards-per-worker",
        type=_positive,
        default=None,
        help="admission control: sessions joining past this pool load run "
        "in-process (degraded) instead of queueing the city",
    )
    city.add_argument(
        "--hop-batch",
        type=_positive,
        default=8,
        help="hops per session step (held fixed unless --pace or --min-batch "
        "opts into adaptive pacing)",
    )
    city.add_argument(
        "--tap-window",
        type=float,
        default=0.5,
        metavar="S",
        help="wide-baseline TDOA multilateration from rolling per-node "
        "sample taps of this many seconds, populated during ingest (live "
        "city sessions have no whole recording to re-read); <= 0 disables "
        "and leaves fusion bearing-triangulated (default scenario only)",
    )
    city.add_argument(
        "--pace",
        action="store_true",
        help="pace every session at capture cadence on the monotonic clock "
        "instead of free-running; turns on adaptive pacing (down to "
        "--min-batch, default 1)",
    )
    city.add_argument(
        "--min-batch",
        type=_positive,
        default=None,
        help="turn on adaptive pacing: a session's overruns widen its hop "
        "batch and headroom shrinks it down to this many hops; unset keeps "
        "the batch at --hop-batch",
    )
    city.add_argument(
        "--status-every",
        type=_non_negative,
        default=16,
        help="print live per-session latency lines every N supervisor steps (0 = never)",
    )
    city.add_argument("--seed", type=int, default=0)
    city.add_argument(
        "--json",
        action="store_true",
        help="emit the final city report as one JSON document",
    )
    city.add_argument(
        "--no-steal",
        action="store_true",
        help="pin shards to the worker that registered them instead of "
        "letting idle workers steal from the deepest queue",
    )
    city.add_argument(
        "--snapshot-out",
        type=str,
        default=None,
        help="append periodic city health snapshots (JSONL, one city report "
        "per line) to this file",
    )
    city.add_argument(
        "--snapshot-every",
        type=_positive,
        default=None,
        help="supervisor steps between snapshots (needs --snapshot-out; "
        "default 1 = every step)",
    )

    arr = sub.add_parser("assess-array", help="assess a microphone-array geometry")
    arr.add_argument("--topology", choices=("ula", "uca", "car_roof", "car_corner"), default="uca")
    arr.add_argument("--n-mics", type=int, default=4)
    arr.add_argument("--size", type=float, default=0.15, help="radius (uca) or spacing (ula), m")
    arr.add_argument("--snr-db", type=float, default=0.0)
    arr.add_argument("--n-directions", type=int, default=12)

    dse = sub.add_parser("codesign", help="run the co-design DSE loop")
    dse.add_argument("--error-budget", type=float, default=2.0)
    dse.add_argument("--base-channels", type=int, default=32)
    dse.add_argument("--n-blocks", type=int, default=3)
    dse.add_argument("--device", choices=("raspi4b", "cortex_m7", "cgra_16x16"), default="raspi4b")
    return parser


def _cmd_generate_dataset(args) -> int:
    from repro.sed import DatasetConfig, dataset_arrays, dataset_features, generate_dataset

    config = DatasetConfig(
        n_samples=args.n_samples,
        duration=args.duration,
        fs=args.fs,
        snr_range_db=(args.snr_low, args.snr_high),
    )
    samples = generate_dataset(config, seed=args.seed)
    x, y, snr = dataset_arrays(samples)
    arrays = dict(waveforms=x, labels=y, snr_db=snr, fs=args.fs)
    if args.features:
        # One batched STFT/mel pass over the whole dataset.
        arrays["features"] = dataset_features(
            x, args.fs, n_mels=args.feature_mels, n_frames=args.feature_frames
        )
    np.savez_compressed(args.out, **arrays)
    print(f"wrote {x.shape[0]} clips x {x.shape[1]} samples to {args.out}")
    if args.features:
        print(f"features: {arrays['features'].shape[2]} mels x {arrays['features'].shape[3]} frames per clip")
    return 0


def _cmd_process(args) -> int:
    import time

    from repro.arrays import uniform_circular_array
    from repro.core import BlockPipeline, PipelineConfig

    positions = None
    if args.input:
        data = np.load(args.input)
        if "signals" not in data:
            print("error: --input must contain a 'signals' array", file=sys.stderr)
            return 1
        signals = np.asarray(data["signals"], dtype=np.float64)
        fs = float(data["fs"]) if "fs" in data else args.fs
        if "positions" in data:
            positions = np.asarray(data["positions"], dtype=np.float64)
            geometry = "positions from file"
        else:
            geometry = f"assumed UCA, radius {args.array_radius} m (store 'positions' to override)"
        source = args.input
    else:
        from repro.acoustics import MicrophoneArray, RoadAcousticsSimulator, Scene
        from repro.acoustics.trajectory import LinearTrajectory
        from repro.signals import synthesize_siren

        fs = args.fs
        positions = uniform_circular_array(4, args.array_radius, center=(0, 0, 1.0))
        scene = Scene(
            LinearTrajectory([-20.0, 8.0, 0.8], [20.0, 8.0, 0.8], 15.0),
            MicrophoneArray(positions),
            surface=None,
        )
        sim = RoadAcousticsSimulator(scene, fs, interpolation="linear")
        rng = np.random.default_rng(args.seed)
        signals = sim.simulate(synthesize_siren("wail", args.duration, fs, rng=rng))
        source = "synthesized drive-by siren"
        geometry = f"UCA, radius {args.array_radius} m"
    if positions is None:
        positions = uniform_circular_array(signals.shape[0], args.array_radius, center=(0, 0, 1.0))
    if positions.shape[0] != signals.shape[0]:
        print("error: 'positions' row count must match the signal channel count", file=sys.stderr)
        return 1
    config = PipelineConfig(fs=fs, localizer=args.localizer)
    block = BlockPipeline(positions, config)
    block.process_signal(signals)  # warmup: build the lazy steering tensors
    block.reset()
    t0 = time.perf_counter()
    results = block.process_signal(signals)
    wall = time.perf_counter() - t0
    n_det = sum(r.detected for r in results)
    print(f"source          : {source} ({signals.shape[0]} mics, {signals.shape[1] / fs:.2f} s)")
    print(f"array geometry  : {geometry}")
    print(f"engine          : batched ({args.localizer})")
    print(f"frames          : {len(results)}")
    print(f"detections      : {n_det}")
    if n_det:
        labels = sorted({r.label for r in results if r.detected})
        last = next(r for r in reversed(results) if r.detected)
        print(f"detected labels : {', '.join(labels)}")
        print(f"last DOA        : az {np.degrees(last.azimuth):.1f} deg, el {np.degrees(last.elevation):.1f} deg")
    print(f"wall time       : {wall * 1e3:.1f} ms ({wall * 1e3 / len(results):.3f} ms/frame)")
    if args.compare_streaming:
        block.reset()
        t0 = time.perf_counter()
        block.pipeline.process_signal(signals)
        wall_stream = time.perf_counter() - t0
        print(
            f"streaming       : {wall_stream * 1e3:.1f} ms "
            f"(batched speedup {wall_stream / wall:.1f}x)"
        )
    return 0


def _pacer_config(args):
    """The explicit pacer ``--pace``/``--min-batch`` ask for; ``None`` keeps
    every session at exactly ``--hop-batch`` hops per step."""
    if not args.pace and args.min_batch is None:
        return None
    from repro.stream.pacer import PacerConfig

    return PacerConfig(pace=args.pace, min_batch=args.min_batch or 1)


def _cmd_fleet(args) -> int:
    from repro.acoustics.trajectory import LinearTrajectory
    from repro.core import PipelineConfig
    from repro.fleet import (
        CorridorScene,
        CorridorStream,
        FleetScheduler,
        OracleDetector,
        Vehicle,
        fleet_report,
        format_report,
        format_track_update,
        fuse_fleet,
        localization_scorecard,
        place_corridor_nodes,
        summarize_updates,
        synthesize_corridor,
    )
    from repro.signals import synthesize_siren
    from repro.stream import format_stage_summary, summarize_budgets

    if args.n_nodes < 2:
        print("error: a corridor fleet needs at least 2 nodes", file=sys.stderr)
        return 1
    if args.json and not args.stream:
        print("error: --json requires --stream", file=sys.stderr)
        return 1
    # With --json the chatty progress lines are suppressed and one JSON
    # health document is emitted at the end instead.
    say = (lambda *a, **kw: None) if args.json else print
    fs = args.fs
    half = (args.n_nodes - 1) / 2 * args.spacing + 10.0
    rng = np.random.default_rng(args.seed)
    vehicles = [
        Vehicle(
            "siren_wail",
            LinearTrajectory([-half, 8.0, 0.8], [half, 8.0, 0.8], args.speed),
            synthesize_siren("wail", args.duration, fs, rng=rng),
        ),
        Vehicle(
            "siren_yelp",
            LinearTrajectory([half, 14.0, 0.8], [-half, 14.0, 0.8], args.speed2),
            synthesize_siren("yelp", args.duration, fs, rng=rng),
        ),
    ]
    nodes = place_corridor_nodes(args.n_nodes, args.spacing)
    scene = CorridorScene(vehicles, nodes, surface=args.surface)
    recording = synthesize_corridor(scene, fs, air_absorption=args.air)

    config = PipelineConfig(fs=fs, localizer=args.localizer, n_azimuth=args.n_azimuth,
                            n_elevation=2)
    detector = OracleDetector("siren_wail") if args.detector == "oracle" else None
    scheduler = FleetScheduler(nodes, config, detector=detector, n_shards=args.shards)
    say(f"corridor          : {args.n_nodes} nodes x {args.spacing:.0f} m, "
          f"{args.duration:.1f} s at {fs:.0f} Hz")
    say(f"vehicles          : 2 crossing ({args.speed:.0f} and {args.speed2:.0f} m/s), "
          f"detector: {args.detector}")
    if args.surface or args.air:
        say(f"physics           : surface {args.surface or 'none'}, "
            f"air absorption {'on' if args.air else 'off'}")
    pacer_stats = None
    tap_misses = None
    if args.stream:
        # Hop-clocked live session: ring-buffer ingest, per-hop fusion,
        # live track updates as they happen.
        if args.incremental:
            # Chunk-on-demand render: the whole-scene recording above is
            # kept only for the ground-truth scorecard; the session's audio
            # is rendered hop by hop as the sources are pulled.
            stream = CorridorStream(
                recording.scene,
                fs,
                chunk_samples=config.hop_length,
                drop_prob=args.drop_prob,
                rng=rng,
                incremental=True,
                air_absorption=args.air,
            )
        else:
            stream = CorridorStream(
                recording, chunk_samples=config.hop_length, drop_prob=args.drop_prob, rng=rng
            )
        pacer = _pacer_config(args)
        use_taps = args.multilaterate and args.tap_window is not None
        session = scheduler.stream(
            stream.sources(),
            hop_batch=args.hop_batch,
            workers=args.workers,
            pacer=pacer,
            recordings=(
                recording.recordings if args.multilaterate and not use_taps else None
            ),
            tap_window_s=args.tap_window if use_taps else None,
        )
        mode_notes = [f"{session.workers} worker process(es)"]
        if args.incremental:
            mode_notes.append("incremental render")
        if use_taps:
            mode_notes.append(f"mlat taps {args.tap_window:.2f} s")
        if pacer is not None:
            mode_notes.append(
                ("paced, " if args.pace else "") + f"min batch {pacer.min_batch}"
            )
        say(f"engine            : streaming (hop batch {args.hop_batch}, "
              f"chunk {config.hop_length} samples, drop prob {args.drop_prob:.2f}, "
              + ", ".join(mode_notes) + ")")
        n_steps = 0
        with session:
            while not session.done:
                for update in session.step().updates:
                    if update.kind in ("confirmed", "retired"):
                        say("  " + format_track_update(update, frame_period=config.frame_period_s))
                n_steps += 1
                if n_steps % 32 == 0:
                    # Live stage-budget line: where the detect-to-update
                    # latency is going, per stage, so far.
                    say(format_stage_summary(summarize_budgets(session.stage_budgets)))
            result = session.finalize()
        run, tracks = result.as_run_result(), result.tracks
        pacer_stats = result.node_pacer_stats()
        counts = summarize_updates(result.updates)
        hop = result.hop_latency
        say(f"live updates      : " + ", ".join(f"{k} {v}" for k, v in counts.items()))
        late = sum(s.n_late_chunks for s in result.ingest.values())
        dropped = sum(s.n_dropped_chunks for s in result.ingest.values())
        say(f"ingest            : {sum(s.n_chunks for s in result.ingest.values())} chunks, "
              f"{dropped} dropped, {late} late")
        if use_taps:
            tap_misses = result.tap_misses
            say(f"tap misses        : {sum(tap_misses.values())} evicted read(s) "
                  f"across {sum(1 for v in tap_misses.values() if v)} node(s)")
        say(f"per-hop latency   : p95 {hop.p95_s * 1e3:.2f} ms vs "
              f"{hop.deadline_s * 1e3:.1f} ms hop deadline "
              f"({'real-time' if result.realtime else 'OVERRUN'})")
        say(format_stage_summary(result.stage_summary()))
        d2u = result.detect_to_update
        say(f"detect→update     : p95 {d2u.p95_s * 1e3:.1f} ms vs "
              f"{d2u.deadline_s * 1e3:.1f} ms nominal budget")
    else:
        run = scheduler.run(recording)
        tracks = fuse_fleet(
            run.node_results,
            nodes,
            frame_period=config.frame_period_s,
            recordings=recording.recordings if args.multilaterate else None,
            fs=fs if args.multilaterate else None,
            hop_length=config.hop_length,
        )
    report = fleet_report(
        tracks,
        run,
        frame_period=config.frame_period_s,
        pacer_stats=pacer_stats,
        tap_misses=tap_misses,
    )
    say(f"shards            : {run.shards} "
          f"({scheduler.n_shared_localizers} shared steering tensors)")
    say(f"fleet wall time   : {run.fleet_latency.mean_s * 1e3:.1f} ms "
          f"for {run.fleet_latency.deadline_s:.1f} s of audio "
          f"({'real-time' if run.realtime else 'over budget'})")
    say(format_report(report))

    # Localization scorecard: fused tracks vs the best single node's
    # road-line bearing-only estimates, against the simulated ground truth.
    n_frames = max(len(r) for r in run.node_results.values())
    truth = recording.vehicle_positions(np.arange(n_frames) * config.frame_period_s)[:, :, :2]
    fused_rms, single_rms = localization_scorecard(
        report.tracks, run.node_results, nodes, truth, road_line_y=11.0
    )
    if np.all(np.isfinite(fused_rms)):
        say(f"fused RMS error   : {np.sqrt(np.mean(np.square(fused_rms))):.1f} m "
              f"(per vehicle: {', '.join(f'{e:.1f}' for e in fused_rms)})")
    if single_rms:
        say(f"best single node  : {min(single_rms.values()):.1f} m (bearing-only, road-line)")

    if args.json:
        import json

        doc = {
            "engine": "streaming",
            "workers": result.workers,
            "realtime": bool(result.realtime),
            "n_tracks": len(tracks),
            "n_updates": len(result.updates),
            "updates": counts,
            "ingest": {
                "n_chunks": sum(s.n_chunks for s in result.ingest.values()),
                "n_dropped": dropped,
                "n_late": late,
            },
            "hop_latency": {
                "p95_ms": hop.p95_s * 1e3,
                "deadline_ms": hop.deadline_s * 1e3,
            },
            "nodes": [
                {
                    "node_id": h.node_id,
                    "n_frames": h.n_frames,
                    "n_detections": h.n_detections,
                    "n_alerts": h.n_alerts,
                    "realtime": bool(h.realtime),
                    "n_overruns": h.n_overruns,
                    "n_overrun_alerts": h.n_overrun_alerts,
                    "peak_hop_batch": h.peak_hop_batch,
                    "n_tap_misses": h.n_tap_misses,
                }
                for h in report.node_health
            ],
            "detect_to_update": {
                "mean_ms": d2u.mean_s * 1e3,
                "p95_ms": d2u.p95_s * 1e3,
                "max_ms": d2u.max_s * 1e3,
                "deadline_ms": d2u.deadline_s * 1e3,
            },
        }
        print(json.dumps(doc, indent=2))
    return 0


def _cmd_city(args) -> int:
    import json

    from repro.city import (
        CitySupervisor,
        city_report_json,
        default_scenario,
        format_city_report,
        load_scenario,
    )

    if args.scenario is not None:
        scenario = load_scenario(args.scenario)
    else:
        scenario = default_scenario(
            args.corridors,
            duration_s=args.duration,
            n_nodes=args.n_nodes,
            seed=args.seed,
            hop_batch=args.hop_batch,
            stagger_steps=args.stagger,
            tap_window_s=args.tap_window if args.tap_window > 0 else None,
        )
    if args.snapshot_every is not None and args.snapshot_out is None:
        print("error: --snapshot-every requires --snapshot-out", file=sys.stderr)
        return 1
    say = (lambda *a, **kw: None) if args.json else print
    say(f"city              : {len(scenario.corridors)} corridor(s), "
        f"{args.workers} shared pool worker(s), seed {scenario.seed}"
        + (", shard stealing off" if args.no_steal else ""))

    def on_step(result) -> None:
        for cid in result.joined:
            say(f"  [step {result.step_index:>3}] {cid} joined "
                f"({result.n_live} live)")
        for cid in result.left:
            say(f"  [step {result.step_index:>3}] {cid} left "
                f"({result.n_live} live)")
        if args.status_every and (result.step_index + 1) % args.status_every == 0:
            # Live per-session latency line: each live corridor's
            # detect-to-update p95 so far, from its warm health rollup.
            parts = []
            for session in supervisor.manager.live():
                d2u = session.health().detect_to_update(session.stream.d2u_deadline_s)
                parts.append(f"{session.corridor_id} p95 {d2u.p95_s * 1e3:.1f} ms")
            if parts:
                say(f"  [step {result.step_index:>3}] " + " | ".join(parts))

    with CitySupervisor(
        scenario,
        workers=args.workers,
        max_shards_per_worker=args.max_shards_per_worker,
        pacer=_pacer_config(args),
        steal=not args.no_steal,
        snapshot_path=args.snapshot_out,
        snapshot_every=args.snapshot_every,
    ) as supervisor:
        report = supervisor.run(on_step=on_step)
        if supervisor.n_snapshots:
            say(f"snapshots         : {supervisor.n_snapshots} line(s) -> "
                f"{args.snapshot_out}")
    if args.json:
        print(json.dumps(city_report_json(report), indent=2))
    else:
        print(format_city_report(report))
    return 0


def _cmd_assess_array(args) -> int:
    from repro.arrays import (
        AssessmentConfig,
        assess_geometry,
        car_corner_array,
        car_roof_array,
        uniform_circular_array,
        uniform_linear_array,
    )

    if args.topology == "uca":
        positions = uniform_circular_array(args.n_mics, args.size, center=(0, 0, 1.0))
    elif args.topology == "ula":
        positions = uniform_linear_array(args.n_mics, args.size)
    elif args.topology == "car_roof":
        positions = car_roof_array()
    else:
        positions = car_corner_array()
    cfg = AssessmentConfig(n_directions=args.n_directions, snr_db=args.snr_db)
    result = assess_geometry(positions, cfg)
    print(f"topology        : {args.topology} ({positions.shape[0]} mics)")
    print(f"aperture        : {result.aperture_m:.2f} m")
    print(f"aliasing freq   : {result.aliasing_hz:.0f} Hz")
    cond = result.condition_number
    print(f"DOA condition   : {'inf' if cond == float('inf') else f'{cond:.2f}'}")
    print(f"mean error      : {result.mean_error_deg:.1f} deg")
    print(f"median error    : {result.median_error_deg:.1f} deg")
    print(f"p90 error       : {result.p90_error_deg:.1f} deg")
    return 0


def _cmd_codesign(args) -> int:
    from repro.hw import DEVICES, DesignPoint, run_codesign

    result = run_codesign(
        DesignPoint(base_channels=args.base_channels, n_blocks=args.n_blocks),
        device=DEVICES[args.device],
        error_budget_deg=args.error_budget,
    )
    print(f"{'move':<16}{'latency ms':>12}{'error deg':>11}{'params':>9}")
    b = result.baseline
    print(f"{'(baseline)':<16}{b.latency_ms:>12.3f}{b.error_deg:>11.2f}{b.n_params:>9}")
    for step in result.steps:
        e = step.evaluated
        print(f"{step.action:<16}{e.latency_ms:>12.3f}{e.error_deg:>11.2f}{e.n_params:>9}")
    print(
        f"\nspeedup {result.speedup:.2f}x, size reduction {100 * result.size_reduction:.1f}%"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "generate-dataset": _cmd_generate_dataset,
        "process": _cmd_process,
        "fleet": _cmd_fleet,
        "city": _cmd_city,
        "assess-array": _cmd_assess_array,
        "codesign": _cmd_codesign,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())

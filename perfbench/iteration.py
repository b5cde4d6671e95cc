"""One benchmark iteration in a fresh process.

    python -m perfbench.iteration --workload NAME --seed N
        [--size full|tiny] [--mode plain|profile] [--serial] [--windows]
        [--calibrate]

Builds one workload world, runs it, checks it, and prints one JSON line.
Each iteration is its own process because ``ru_maxrss`` only grows, and
because set-up time includes importing ``repro``.  ``--calibrate``
runs the host-speed sampler (:mod:`perfbench.calibrate`) through the
timed steps and report ``setup_s``/``run_s`` at reference speed next to
the raw ``*_wall_s`` figures (both without the probe slices).
``--mode profile``
runs the same iteration under cProfile and adds the per-layer ledger and
counters; ``--serial`` keeps the cluster's shards in-process (required
for profiling them); ``--windows`` times the coordinator's shard-window
barriers.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="perfbench.iteration")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", default="full", choices=("full", "tiny"))
    p.add_argument("--mode", default="plain", choices=("plain", "profile"))
    p.add_argument("--serial", action="store_true")
    p.add_argument("--windows", action="store_true")
    p.add_argument("--calibrate", action="store_true")
    return p.parse_args(argv)


def setup_parts(wl, spans, stats) -> dict:
    """``setup.*`` seconds: spans where the benchmark makes the call,
    profiler cumulative time where the program makes it (the cluster
    builds topology and routes inside each shard's build function)."""
    parts = {
        "setup.imports_s": spans.seconds("setup.imports"),
        "setup.topology_s": spans.seconds("setup.topology"),
        "setup.routes_s": spans.seconds("setup.routes"),
        "setup.world_s": spans.seconds("setup.world"),
    }
    if spans.seconds("setup.shards"):
        from perfbench import ledger

        topology = ledger.cumulative(stats, "topology/builder.py", "smp")
        routes = ledger.cumulative(stats, "cluster/workload.py", "routes")
        parts["setup.topology_s"] += topology
        parts["setup.routes_s"] += routes
        parts["setup.world_s"] += spans.seconds("setup.shards") - topology - routes
    return parts


def main(argv=None) -> int:
    args = parse_args(argv)
    profiler = None
    if args.mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    from perfbench import calibrate, workloads

    extra = {}
    if args.workload == "cluster_sharded":
        extra = {"serial": args.serial, "windows": args.windows}
    wl = workloads.make(args.workload, args.seed, args.size, **extra)
    spans = workloads.Spans(origin=T0)
    # the host-speed sampler runs through the timed steps (never under the
    # profiler, whose overhead it would measure)
    sampler = calibrate.Sampler(origin=T0) if args.calibrate and not profiler else None
    with sampler or nullcontext():
        with spans.span("setup"):
            wl.setup(spans)
        with spans.span("run"):
            wl.run(spans)
    if profiler is not None:
        profiler.disable()

    def seconds(damping: float) -> tuple[float, float]:
        """(setup, run) seconds; ShardPool construction (fork + per-shard
        build) happens inside run_sharded but is set-up work, so it moves
        from run to setup."""
        def timed(name: str) -> float:
            return sum(
                sampler.seconds(r["start"], r["end"], damping) if sampler
                else r["end"] - r["start"]
                for r in spans.records if r["name"] == name
            )
        shards = timed("setup.shards")
        return timed("setup") + shards, timed("run") - shards

    setup_s, run_s = seconds(calibrate.DAMPING)
    setup_wall_s, run_wall_s = seconds(0.0)
    shards_s = spans.seconds("setup.shards")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if args.workload == "cluster_sharded":
        rss_kb = max(rss_kb, wl.peak_rss_kb())
    out = dict(wl.result)
    out.update(
        workload=args.workload,
        seed=args.seed,
        mode=args.mode,
        setup_s=setup_s,
        run_s=run_s,
        setup_wall_s=setup_wall_s,
        run_wall_s=run_wall_s,
        wall_s=spans.seconds("setup") + spans.seconds("run"),
        merge_s=spans.seconds("run.merge") + wl_merge_s(wl),
        peak_rss_mb=rss_kb / 1024.0,
        spans=spans.records,
    )
    if sampler:
        out["probe_s"] = sampler.probe_s()
    if args.windows:
        out["shard"] = dict(wl.shard_counts(), **{"par.spawn_s": shards_s})
    if profiler is not None:
        import pstats

        from perfbench import ledger

        stats = pstats.Stats(profiler)
        out["ledger"] = ledger.self_times(stats)
        out["counts"] = wl.counts()
        out["setup_parts"] = setup_parts(wl, spans, stats)
    print(json.dumps(out, sort_keys=True))
    return 0


def wl_merge_s(wl) -> float:
    """Seconds the cluster coordinator spent merging shard snapshots."""
    probe = getattr(wl, "probe", None)
    return probe.get("merge_s", 0.0) if probe else 0.0


if __name__ == "__main__":
    sys.exit(main())

"""Run one workload in this process and print its result as one JSON line.

``run.py`` starts a fresh process per workload (and per extra set-up
sample), so imports, lazy initialisation and peak RSS belong to that
workload alone. Set-up time starts at the top of this file, before NumPy
or the program is imported, and is normalised like every op time: by
host-speed probes taken right after set-up (the probe itself needs
NumPy), with set-up's fsyncs counted at their nominal time.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from hostspeed import FsyncMeter, host_speed, normalised, reference_kernel  # noqa: E402

PROBES = 21

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("full", "smoke"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=pathlib.Path, required=True)
    return parser.parse_args(argv)


def import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    source = ROOT / "src"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(source))
    import repro

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(source):
        raise ImportError(f"repro imported from {repro.__file__}, not {source}")


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still removes its state directory (finally below).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    import_program()
    import tracing
    from workloads import WORKLOAD_CLASSES, OpClock, peak_rss_mb

    import_s = perf_counter() - _STARTED
    workload = WORKLOAD_CLASSES[args.workload](args.seed, args.mode, args.seconds)
    if not args.setup_only:
        workload.generate()
    workdir = args.out / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    payload = {"workload": args.workload, "correct": False, "attempted": 0, "failed": 0}
    try:
        started = perf_counter()
        with FsyncMeter() as fsync:
            workload.setup(workdir)
        raw_setup_s = import_s + perf_counter() - started
        speed = host_speed([reference_kernel() for _ in range(PROBES)])
        payload["setup_s"] = normalised(raw_setup_s, speed, fsync.calls, fsync.seconds)
        if args.setup_only:
            payload["correct"] = True
            print(json.dumps(payload))
            return 0
        tracer = undo = None
        if args.trace:
            tracer = tracing.Tracer(args.workload)
            undo = tracing.install(tracer)
        clock = OpClock(tracer)
        # The program creates no reference cycles, so the cyclic collector
        # would only add pauses that scale with this process's whole heap
        # (inputs and references included) to whichever op it lands in.
        gc.collect()
        gc.disable()
        try:
            with clock.fsync:
                facts = workload.measure(clock)
            rss = peak_rss_mb()
        finally:
            gc.enable()
            if undo is not None:
                tracing.uninstall(undo)
            payload["attempted"] = clock.attempted
            payload["failed"] = clock.failed
        failures = workload.check()
        metrics = workload.end_to_end(clock, facts["rows"])
        metrics["setup_s"] = payload["setup_s"]
        metrics["peak_rss_mb"] = rss
        payload.update(
            end_to_end=metrics,
            diagnostics=dict(workload.diagnostics(clock, facts["rows"]),
                             raw_setup_s=raw_setup_s, op_time_s=clock.total()),
            op_time_s=clock.total(),
        )
        if tracer is not None:
            speed = host_speed(clock.references)
            layers, closure = tracing.layer_metrics(tracer, facts, speed)
            failures += tracing.coverage_failures(args.workload, layers, closure)
            args.out.mkdir(parents=True, exist_ok=True)
            tracer.write_jsonl(args.out / f"trace-{args.workload}.jsonl")
            payload.update(per_layer={k: v[0] for k, v in layers.items()}, closure=closure)
        payload["failures"] = failures
        payload["correct"] = not failures and clock.failed == 0
    except Exception:
        traceback.print_exc()
        payload["failures"] = [traceback.format_exc(limit=1).strip().splitlines()[-1]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

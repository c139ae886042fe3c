"""Benchmark of the CDC engine and its indexes on a small Ray node.

    python3 perfbench/run.py --workload {bulk_replay,follow_lookup,index_admit}
        --seed N --seconds S --trace {0,1} [--size {full,tiny}]

Run from the root of a source checkout (the directory holding
``nyc_taxi_data_pipeline_ray/``).  Prints one human-readable line per
metric, then, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
PACKAGE = "nyc_taxi_data_pipeline_ray"

#: a stuck call becomes a counted failure after this long; the whole run
#: is cut before the 180 s a run may take
CALL_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 170.0

#: whole set-ups per run; setup_s is their median
SETUP_REPEATS = 3

#: Ray's Unix sockets sit at <temp>/session_<date>_<time>_<us>_<pid>/
#: sockets/plasma_store, about 62 bytes past the temp dir, and a socket
#: path must fit in 108 bytes
RAY_TEMP_MAX_LEN = 40

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "write_p50_ms": "ms",
    "read_p50_ms": "ms",
    "stored_bytes_per_item": "B",
    "peak_rss_mb": "MB",
}

LAYERS = (
    "setup",
    "engine",
    "state.merge",
    "stages.validate",
    "state.manifest",
    "state.dedup_index",
    "state.ann_index",
    "pipelines.text",
    "bench",
)

PER_LAYER = {
    "setup.ray_init.s": "s",
    "setup.warmup.s": "s",
    "setup.preload.s": "s",
    "setup.inputs.s": "s",
    "engine.apply.s": "s",
    "engine.apply.calls": "count",
    "engine.apply.rows_in": "count",
    "engine.apply.rejects": "count",
    "engine.apply.upserts": "count",
    "engine.apply.deletes": "count",
    "engine.apply.failed": "count",
    "engine.apply.partition_skew": "ratio",
    "engine.snapshot_table.s": "s",
    "engine.compact.s": "s",
    "engine.compact.partitions": "count",
    "engine.get_conversation.s": "s",
    "engine.get_conversation.calls": "count",
    "engine.get_conversation.rows": "count",
    "engine.get_conversation.runs_read": "count",
    "lake.bytes": "B",
    "lake.files": "count",
    "lake.delta_runs_max": "count",
    "merge.resolve_lww.rows_per_s": "1/s",
    "validate.split_valid.rows_per_s": "1/s",
    "engine.hash_partition_ids.rows_per_s": "1/s",
    "text.MinHasher.signature.docs_per_s": "1/s",
    "dedup.probe_and_add.s": "s",
    "dedup.docs": "count",
    "dedup.candidates": "count",
    "dedup.compact.s": "s",
    "dedup.bytes": "B",
    "ann.probe_and_add.s": "s",
    "ann.vectors": "count",
    "ann.hits": "count",
    "ann.probe.s": "s",
    "ann.probe.calls": "count",
    "ann.probe.files_read": "count",
    "ann.probe.files_total": "count",
    "ann.compact.s": "s",
    "ann.bytes": "B",
    "oracle.replay.events_per_s": "1/s",
    "check.failed": "count",
    **{f"self_s.{layer}": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

#: counters that are per-call means (the rest are totals or maxima)
PER_CALL = {
    "engine.apply.rows_in": "engine.apply.calls",
    "engine.apply.rejects": "engine.apply.calls",
    "engine.apply.upserts": "engine.apply.calls",
    "engine.apply.deletes": "engine.apply.calls",
    "engine.get_conversation.rows": "engine.get_conversation.calls",
    "engine.get_conversation.runs_read": "engine.get_conversation.calls",
    "ann.probe.files_read": "ann.probe.calls",
    "ann.probe.files_total": "ann.probe.calls",
}


class Bench:
    """What a workload needs: its inputs, a scratch dir, the recorder."""

    def __init__(self, args, rec, inputs_dir: str, scratch: str):
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = args.size
        self.rec = rec
        self.inputs = inputs_dir
        self.scratch = scratch
        with open(os.path.join(inputs_dir, "meta.json")) as f:
            self.meta = json.load(f)


# ------------------------------------------------------------ processes


def _stat(pid: int) -> tuple[str, int, int] | None:
    """(state, ppid, pgrp) of a process, or None if it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return fields[0], int(fields[1]), int(fields[2])
    except (OSError, IndexError, ValueError):
        return None


def own_processes() -> list[int]:
    """Processes this run started.  Ray's processes inherit this process
    group and keep it when orphaned; siblings that share the group (other
    commands of a shell pipeline) have our parent as theirs."""
    me, parent, group = os.getpid(), os.getppid(), os.getpgrp()
    out = []
    for name in os.listdir("/proc"):
        if name.isdigit() and int(name) != me:
            st = _stat(int(name))
            if st is not None and st[2] == group and st[1] != parent:
                out.append(int(name))
    return out


def _alive(pid: int) -> bool:
    st = _stat(pid)
    if st is None:
        return False
    if st[0] == "Z":
        try:  # reap our own zombie children
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            pass
        return False
    return True


def stop_own_processes(grace_s: float = 10.0) -> None:
    """SIGTERM every process this run started, SIGKILL what outlives the
    grace period, and return once none is left (or after 10 s more)."""
    t0 = time.monotonic()
    while True:
        live = [p for p in own_processes() if _alive(p)]
        elapsed = time.monotonic() - t0
        if not live or elapsed > grace_s + 10.0:
            return
        sig = signal.SIGTERM if elapsed < grace_s else signal.SIGKILL
        for p in live:
            try:
                os.kill(p, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.1)


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Sum of peak RSS (VmHWM) of this process and the Ray workers."""
    total = _vm_hwm_kb(os.getpid())
    for pid in own_processes():
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::") or b"default_worker.py" in cmd:
            total += _vm_hwm_kb(pid)
    return total / 1024.0


# ------------------------------------------------------------------- ray


def ray_temp_dir() -> str:
    """Inside the checkout, where the benchmark keeps everything it
    writes; a checkout whose path leaves no room for Ray's socket paths
    gets a fresh dir under /tmp instead.  Removed at exit either way."""
    inside = os.path.join(WORK, "ray")
    if len(inside) <= RAY_TEMP_MAX_LEN:
        return inside
    import tempfile

    return tempfile.mkdtemp(prefix="perfbench-ray-")


def nproc() -> int:
    """CPUs as ``nproc`` counts them: it honours ``OMP_NUM_THREADS``, so a
    node set up for one thread per process reports 1."""
    import subprocess

    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        return len(os.sched_getaffinity(0))


def ray_init(temp_dir: str) -> None:
    import logging

    import ray

    # num_cpus = nproc, and every task asks for one: a task asking for
    # more than the node has never starts.  Workers inherit PYTHONPATH
    # from this process, so they import the package from any working
    # directory (a runtime_env would cost a second or more per node)
    path = os.environ.get("PYTHONPATH", "")
    if ROOT not in path.split(os.pathsep):
        os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (ROOT, path) if p)
    ray.init(
        address="local",
        num_cpus=nproc(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=512 << 20,
        _temp_dir=temp_dir,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.WARNING)


def stop_ray() -> None:
    """Shut the Ray node down and wait until its processes are gone."""
    import ray

    try:
        ray.shutdown()
    finally:
        stop_own_processes()


# ---------------------------------------------------------------- inputs


def build_inputs(workload: str, size: str, seed: int) -> str:
    """Reuse the cached seeded inputs, or build them in a child process."""
    import subprocess

    import inputs

    out = inputs.cache_dir(WORK, workload, size, seed)
    if os.path.exists(os.path.join(out, "meta.json")):
        os.utime(out)
        return out
    subprocess.run(
        [sys.executable, inputs.__file__, ROOT, WORK, workload, size, str(seed)],
        check=True,
        timeout=RUN_DEADLINE_S,
    )
    return out


# ---------------------------------------------------------------- report


def per_layer(rec, timings: dict) -> dict:
    c = rec.counters
    lat = rec.lat
    out = {name: 0.0 for name in PER_LAYER}
    out.update({k: v for k, v in c.items() if k in out})
    for name, calls in PER_CALL.items():
        out[name] = c[name] / c[calls] if c[calls] else 0.0
    for key in (
        "engine.apply",
        "engine.snapshot_table",
        "engine.compact",
        "engine.get_conversation",
        "dedup.probe_and_add",
        "dedup.compact",
        "ann.probe_and_add",
        "ann.probe",
        "ann.compact",
    ):
        out[f"{key}.s"] = sum(lat[key])
    out["engine.apply.failed"] = rec.failed_calls["engine.apply"]
    out["check.failed"] = rec.check_failed
    out.update(timings)
    for layer, secs in rec.self_times().items():
        if f"self_s.{layer}" in out:
            out[f"self_s.{layer}"] = secs
    out["trace.spans"] = len(rec.spans)
    out["trace.overhead_s"] = rec.overhead_s
    return out


def emit(ok: bool, rec, metrics: dict, units: dict) -> None:
    print(
        json.dumps(
            {
                "correct": ok,
                "attempted": max(1, rec.attempted),
                "failed": rec.failed,
                "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
            }
        ),
        flush=True,
    )


# ------------------------------------------------------------------ main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        print(f"perfbench: no {PACKAGE}/ package at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # a process group of our own, so every process Ray starts can be
    # found (and stopped) at exit, even once orphaned; SIGTERM unwinds
    # through the same teardown as a normal exit
    if os.getpgrp() != os.getpid():
        os.setpgid(0, 0)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.makedirs(WORK, exist_ok=True)
    scratch = os.path.join(WORK, f"run-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    temp_dir = ray_temp_dir()
    run_id = f"{args.workload}-s{args.seed}-{os.getpid()}"

    from tracing import Recorder

    def on_timeout(what: str) -> None:
        print(f"perfbench: watchdog: {what} did not return in time", file=sys.stderr)
        emit(False, rec, {}, {})
        stop_own_processes(grace_s=2.0)
        os._exit(3)

    rec = Recorder(
        run_id,
        traced=bool(args.trace),
        call_timeout_s=CALL_TIMEOUT_S,
        run_deadline_s=RUN_DEADLINE_S - (time.perf_counter() - _T_START),
        on_timeout=on_timeout,
    )
    timings: dict[str, float] = {}
    ok = False
    ray_started = False
    try:
        t = time.perf_counter()
        with rec.span("setup.inputs", "setup"):
            inputs_dir = build_inputs(args.workload, args.size, args.seed)
        timings["setup.inputs.s"] = time.perf_counter() - t
        b = Bench(args, rec, inputs_dir, scratch)
        wl = workloads.WORKLOADS[args.workload](b)

        # set-up = imports (once per process) + the median of several
        # whole set-ups, each on a fresh Ray node; the run measures on
        # the last one
        imports_s = time.perf_counter() - _T_START - timings["setup.inputs.s"]
        steps: dict[str, list[float]] = {"ray_init": [], "warmup": [], "preload": []}
        ray_started = True
        for i in range(SETUP_REPEATS):
            if i:
                stop_ray()
            for step, fn in (
                ("ray_init", lambda: ray_init(temp_dir)),
                ("warmup", wl.warmup),
                ("preload", wl.preload),
            ):
                t = time.perf_counter()
                with rec.span(f"setup.{step}", "setup"):
                    fn()
                steps[step].append(time.perf_counter() - t)
        for step, xs in steps.items():
            timings[f"setup.{step}.s"] = statistics.median(xs)
        setup_s = imports_s + statistics.median([sum(x) for x in zip(*steps.values())])

        with rec.span("measure", "bench"):
            wl.measure()
        with rec.span("verify", "bench"):
            wl.verify()
        e2e, named = wl.report()
        e2e["setup_s"] = setup_s
        e2e["peak_rss_mb"] = peak_rss_mb()
        if rec.traced:
            with rec.span("sweep", "bench"):
                workloads.touch_layers(b)
                workloads.kernels(b)
        ok = rec.failed == 0
    except Exception:
        import traceback

        traceback.print_exc()
        rec.failed += 1
    finally:
        if ray_started:
            stop_ray()
        rec.close()
        shutil.rmtree(scratch, ignore_errors=True)
        shutil.rmtree(temp_dir, ignore_errors=True)

    if not ok:
        emit(False, rec, {}, {})
        return 1
    error_rate = rec.failed / max(1, rec.attempted)
    print(f"perfbench: workload {args.workload} seed {args.seed} trace {args.trace}")
    for k, unit in END_TO_END.items():
        print(f"perfbench: {k} = {e2e[k]:.6g} {unit}")
    for k, (v, unit) in named.items():
        print(f"perfbench: {k} = {v:.6g} {unit}")
    print(f"perfbench: error_rate = {error_rate:.6g} ratio "
          f"({rec.failed} failed / {rec.attempted} attempted)")
    print("perfbench: correctness checks passed")
    if rec.traced:
        layer = per_layer(rec, timings)
        path = os.path.join(WORK, f"spans-{run_id}.json")
        rec.write_spans(path)
        print(f"perfbench: spans written to {os.path.relpath(path, ROOT)}")
        emit(True, rec, layer, PER_LAYER)
    else:
        emit(True, rec, {k: e2e[k] for k in END_TO_END}, END_TO_END)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""superpack benchmark: one workload, closed loop, for a fixed time.

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory and driven in-process through ``superpack.cli.main``.
One operation is the workload's list of CLI calls; the next operation
starts when the previous one returns. An untimed first operation warms
the process up and provides the reference outputs: every later
operation must reproduce them byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(wall_s, work_per_s, setup_s, peak_rss_mb), with times normalised by a
calibration kernel timed between operations. With ``--trace 1``,
untraced and traced operations alternate, and the line reports the
per-layer metrics of the traced ones plus the tracing overhead. The
line before it is the run record: machine, versions, source digest,
seed and the argv of every workload. See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import types

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import spans  # noqa: E402
from workloads import FULL, QUICK, WORKLOADS  # noqa: E402

SETUP_REPEATS = 5
SETUP_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import superpack.cli\n"
    "superpack.cli.build_parser().parse_args(sys.argv[2:])\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)

# End-to-end times are normalised by calibrate(), timed next to every
# operation and set-up probe: the 2-core VM this was built on drifts by
# +-25% in speed over minutes, and the kernel tracks that drift (see
# perfbench/README.md). CALIB_REF_S is the kernel's time on that VM.
CALIB_REF_S = 0.030
CALIB_POINTS = np.random.default_rng(0).random((400, 2))

END_TO_END_UNITS = {"wall_s": "s", "work_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import superpack from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "superpack", "cli.py")):
        raise SystemExit(f"benchmark: no superpack sources under {SRC}")
    sys.path.insert(0, SRC)
    import superpack.cli
    import superpack.constants
    import superpack.geometry
    import superpack.gibbs
    import superpack.lattice_graph
    import superpack.thermo

    if not os.path.abspath(superpack.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"benchmark: imported superpack from {superpack.__file__}, not {SRC}")
    return types.SimpleNamespace(**{m: getattr(superpack, m) for m in
                                    ("cli", "constants", "geometry", "gibbs", "lattice_graph", "thermo")})


def threads() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def run_record(args, sizes) -> dict:
    import scipy

    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "superpack")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "argv": {name: w.argvs(sizes, args.seed, threads()) for name, w in WORKLOADS.items()},
    }


def calibrate() -> float:
    """Seconds for a fixed Python-loop plus numpy kernel that runs no superpack code."""
    t0 = time.perf_counter()
    for _ in range(3):
        acc = 0
        for i in range(30_000):
            acc += i * i
        d = CALIB_POINTS[:, None, :] - CALIB_POINTS[None, :, :]
        np.sqrt((d * d).sum(axis=-1)).min()
    return time.perf_counter() - t0


def normalised(raw, calib_before, calib_after) -> float:
    """``raw`` seconds rescaled to a machine on which ``calibrate()`` takes CALIB_REF_S."""
    return raw * CALIB_REF_S / ((calib_before + calib_after) / 2)


def measure_setup(argv, workdir) -> tuple[float, list[float]]:
    """Median normalised seconds from spawning a fresh interpreter to a parsed first CLI call.

    Also returns the raw probe times.
    """
    raw, norm = [], []
    calib = calibrate()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CHILD, SRC, *argv], cwd=workdir,
                              stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            t1 = time.perf_counter()
            child.stdout.read()
            code = child.wait(timeout=120)
        if line != "ready\n" or code != 0:
            raise SystemExit(f"benchmark: set-up probe failed with exit code {code}")
        before, calib = calib, calibrate()
        raw.append(t1 - t0)
        norm.append(normalised(t1 - t0, before, calib))
    return statistics.median(norm), raw


def call_cli(cli, argvs, workdir):
    """Run the CLI calls of one operation in an emptied ``workdir``.

    Returns (wall seconds from first call to last return, exit codes,
    traceback or None, {file name: bytes} including captured stdout).
    """
    for name in os.listdir(workdir):
        os.unlink(os.path.join(workdir, name))
    out = io.StringIO()
    codes = []
    error = None
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                for argv in argvs:
                    codes.append(cli.main(argv))
            except Exception:  # a crash is a failed operation, not a failed benchmark
                error = traceback.format_exc()
            wall = time.perf_counter() - t0
    finally:
        os.chdir(ROOT)
    outputs = {"<stdout>": out.getvalue().encode()}
    for name in sorted(os.listdir(workdir)):
        with open(os.path.join(workdir, name), "rb") as fh:
            outputs[name] = fh.read()
    return wall, codes, error, outputs


class Operation:
    """Runs one workload operation and checks its outputs."""

    def __init__(self, pkg, workload, argvs, workdir):
        self.pkg = pkg
        self.workload = workload
        self.argvs = argvs
        self.workdir = workdir
        self.reference = None  # output digests of the first operation

    def run(self) -> dict:
        wall, codes, error, outputs = call_cli(self.pkg.cli, self.argvs, self.workdir)
        failed = []
        work = 0.0
        if error is not None:
            failed.append("exception: " + error)
        elif codes != [0] * len(self.argvs):
            failed.append(f"exit codes {codes}")
        else:
            digests = {k: hashlib.sha256(v).hexdigest() for k, v in outputs.items()}
            if self.reference is None:
                self.reference = digests
            elif digests != self.reference:
                failed.append("outputs differ from the first operation with the same seed")
            try:
                work, problems = self.workload.evaluate(outputs, self.argvs)
                failed += problems
            except (KeyError, ValueError, TypeError) as exc:
                failed.append(f"unreadable output: {exc!r}")
        for msg in failed:
            print(f"benchmark: {self.workload.name}: check failed: {msg}", file=sys.stderr)
        return {"wall": wall, "work": work, "failed": failed,
                "out_bytes": sum(len(v) for v in outputs.values())}


def measure(args, op, tracer, targets):
    """Closed loop for ``args.seconds``; returns (ops, metrics, set-up probe times)."""
    ops = [dict(op.run(), kind="warmup")]
    plain, traced = [], []
    calib = calibrate()
    deadline = time.perf_counter() + args.seconds
    while True:
        enough = len(plain) >= 2 and (not args.trace or len(traced) >= 2)
        if enough and time.perf_counter() >= deadline:
            break
        if args.trace and len(traced) < len(plain):
            tracer.reset()
            with spans.installed(tracer, targets):
                res = op.run()
            res["layers"] = spans.layer_metrics(tracer.spans, res["wall"], res["out_bytes"])
            res["kind"] = "traced"
            res["spans"] = tracer.spans
            traced.append(res)
        else:
            res = dict(op.run(), kind="plain")
            if not args.trace:
                before, calib = calib, calibrate()
                res["calib_s"] = calib
                res["norm_wall"] = normalised(res["wall"], before, calib)
            plain.append(res)
        ops.append(res)

    median = statistics.median
    # failed operations are counted in the result but kept out of the
    # medians, so a faster wrong operation cannot improve them; only when
    # every operation failed do the medians fall back to all of them
    plain = [r for r in plain if not r["failed"]] or plain
    traced = [r for r in traced if not r["failed"]] or traced
    if not args.trace:
        setup_s, setup_raw = measure_setup(op.argvs[0], op.workdir)
        metrics = {
            "wall_s": median([r["norm_wall"] for r in plain]),
            "work_per_s": median([r["work"] / r["norm_wall"] for r in plain]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        units = END_TO_END_UNITS
    else:
        setup_raw = []
        metrics = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - median([r["wall"] for r in plain])
        metrics["fail_frac"] = sum(bool(r["failed"]) for r in ops) / len(ops)
        units = layer_units()
    return ops, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, setup_raw


def layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="toy sizes, for the self-check")
    parser.add_argument("--spans", help="write the traced operations' spans to this JSON file")
    args = parser.parse_args(argv)

    pkg = import_package()
    os.environ.pop("SUPERPACK_OUT", None)  # outputs must land in the scratch directory
    sizes = QUICK if args.quick else FULL
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(ROOT, ".bench_run", f"{os.getpid()}-{args.workload}")
    os.makedirs(workdir)
    try:
        record = run_record(args, sizes)
        op = Operation(pkg, workload, record["argv"][args.workload], workdir)
        ops, metrics, record["setup_raw_s"] = measure(args, op, spans.Tracer(), spans.targets(pkg))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    failed = sum(bool(r["failed"]) for r in ops)
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump([[s.to_json() for s in r["spans"]] for r in ops if "spans" in r], fh)
    record["ops"] = [{k: v for k, v in r.items() if k != "spans"} for r in ops]
    print(json.dumps({"run_record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

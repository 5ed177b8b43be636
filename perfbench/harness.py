"""Closed-loop benchmark of ``pelical calibrate``.

One caller in one process calls ``pelical.cli.main(["calibrate", ...])``
in-process, starting each call only after the previous one returned.  The
observation files are generated in set-up from the workload seed with
``simulator.generate`` and ``fileio.write_observation_file``.  Every rig
uses 600 px intrinsics at 640x480, a 20 degree yaw about y, a 0.30 m
baseline, 0.5 px / 3 mm noise, and ``--cost-threshold 30``.

``--trace 0`` measures the end-to-end metrics over a pass of ``--seconds``.
``--trace 1`` runs whole passes over the file set untraced for half of
``--seconds``, then the same passes traced, and reports per-layer metrics
per pass over the file set.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from pelical import cli, fileio, pipeline, simulator
from pelical.errors import SchemaError
from pelical.geometry import CameraIntrinsics, Extrinsics

from tracer import Tracer

K = CameraIntrinsics(fx=600.0, fy=600.0, cx=320.0, cy=240.0, width=640, height=480)
TRUTH = Extrinsics(simulator.rotation_about_y(20.0), np.array([0.30, 0.0, 0.0]))
COMMON_FLAGS = ("--cost-threshold", "30")
#: set-up batches in an end-to-end run; a traced run sets up one
SETUP_BATCHES = 3
#: acceptance criterion 2: median rotation and translation error bounds
MAX_ROT_ERR_DEG = 0.5
MAX_TRANS_ERR_MM = 15.0


@dataclass(frozen=True)
class Workload:
    tag: int
    n_lines: int
    batch_files: int
    outlier_fraction: float = 0.0
    pnl_fraction: float = 0.0
    flags: tuple[str, ...] = ()
    # True where the vote can never carry: every call must exit 2 with
    # termination max_pairs.  Otherwise the median pose error is checked.
    novote: bool = False


# Why each workload (see README.md): the typical calibration, where reading
# the file and the closed-form solve dominate and voting does little; the
# same layers through the PnL back-projection branch, with a long latency
# tail; and a stream whose vote radius sits below the noise floor, so
# eviction and voting take a large share and the solver never runs.  The
# batch sizes give a 20 s pass about one call per distinct stream, because
# the spread between seeds comes mostly from which streams a run draws.
WORKLOADS = {
    "calibrate60_mixed": Workload(
        tag=1, n_lines=60, batch_files=64, outlier_fraction=0.2, pnl_fraction=0.25
    ),
    "calibrate60_pnl50": Workload(tag=2, n_lines=60, batch_files=64, pnl_fraction=0.5),
    "stream60_novote": Workload(
        tag=3, n_lines=60, batch_files=24, flags=("--epsilon-d", "1e-5"), novote=True
    ),
}
SMOKE_FILES = 2

# name -> unit, in print order.  END_TO_END are the bounded metrics of
# BENCHMARK.json; the rest of REPORT is printed for reading.
END_TO_END = {
    "calibrate_norm_per_s": "1/s",
    "calibrate_norm_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
REPORT = {
    **END_TO_END,
    "calibrate_per_s": "1/s",
    "calibrate_p50_ms": "ms",
    "calibrate_p90_ms": "ms",
    "calibrate_norm_p90_ms": "ms",
    "probe_p50_ms": "ms",
    "converged_frac": "ratio",
    "failed_frac": "ratio",
    "rot_err_p50_deg": "deg",
    "trans_err_p50_mm": "mm",
}


class SpeedProbe:
    """A fixed few-millisecond computation, independent of pelical.

    The machine's speed drifts by tens of percent over seconds.  Running
    this probe right after each call and dividing gives latencies in units
    of the probe, which drift far less; ``PROBE_NOMINAL_MS`` turns them
    back into milliseconds on a machine where the probe takes that long.
    The probe mixes what a calibrate call does: small dense linear algebra,
    broadcast arithmetic, Python loops and JSON parsing.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((40, 9))
        self.points = rng.standard_normal((40, 3))
        self.text = json.dumps({"points": self.points.tolist()})

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for _ in range(30):
            acc += float(np.linalg.svd(self.matrix, compute_uv=False)[0])
            diff = self.points[None, :, :] - self.points[:, None, :]
            acc += float(np.linalg.norm(diff, axis=2).sum())
            acc += sum(0.5 * i for i in range(200))
        acc += len(json.loads(self.text)["points"])
        return time.perf_counter() - start


PROBE_NOMINAL_MS = 5.0


@dataclass(frozen=True)
class CallResult:
    file_index: int
    latency_s: float
    probe_s: float
    exit_code: int | None
    rot_err_deg: float | None = None
    trans_err_mm: float | None = None
    problem: str | None = None


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, batch_files: int,
                 batches: int, workdir: Path):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.batch_files = batch_files
        self.workdir = workdir
        self.digests: dict[int, str] = {}
        self.problems: list[str] = []
        self.probe = SpeedProbe()
        files = batch_files * batches
        state = np.random.SeedSequence(entropy=seed, spawn_key=(workload.tag,))
        self.sim_seeds = [int(s) for s in state.generate_state(files)]
        self.inputs = [workdir / f"obs{i:03d}.json" for i in range(files)]
        self.outputs = [workdir / f"calib{i:03d}.json" for i in range(files)]

    def setup(self, batch: int) -> float:
        """Generate and write one batch of observation files; returns seconds."""
        w = self.workload
        part = slice(batch * self.batch_files, (batch + 1) * self.batch_files)
        start = time.perf_counter()
        for sim_seed, path in zip(self.sim_seeds[part], self.inputs[part]):
            spec = simulator.RigSpec(
                truth=TRUTH,
                target_intrinsics=K,
                source_intrinsics=K,
                n_lines=w.n_lines,
                pixel_noise_sigma=0.5,
                depth_noise_sigma=0.003,
                outlier_fraction=w.outlier_fraction,
                pnl_fraction=w.pnl_fraction,
                rng_seed=sim_seed,
            )
            observations, _ = simulator.generate(spec)
            fileio.write_observation_file(path, K, K, observations)
        return time.perf_counter() - start

    def argv(self, i: int, output: Path) -> list[str]:
        return ["calibrate", "--input", str(self.inputs[i]), "--output", str(output),
                *COMMON_FLAGS, *self.workload.flags]

    def warm_up(self) -> None:
        cli.main(self.argv(0, self.workdir / "warmup.json"))

    def call(self, i: int) -> CallResult:
        """One timed calibrate call and the speed probe, then the (untimed)
        output checks."""
        start = time.perf_counter()
        try:
            code = cli.main(self.argv(i, self.outputs[i]))
        except Exception:
            code = None
            traceback.print_exc(file=sys.stderr)
        latency = time.perf_counter() - start
        probe = self.probe()
        if code is None or code == 1:
            problem = "exception" if code is None else "exit code 1"
            return CallResult(i, latency, probe, code, problem=problem)
        try:
            digest = hashlib.sha256(self.outputs[i].read_bytes()).hexdigest()
            calib = fileio.read_calibration_file(self.outputs[i])
        except (OSError, SchemaError) as exc:
            return CallResult(i, latency, probe, code, problem=f"unreadable output: {exc}")
        rot, trans = simulator.pose_errors(calib["extrinsics"], TRUTH)
        problem = None
        if self.digests.setdefault(i, digest) != digest:
            problem = "output differs from an earlier call on the same file"
        elif self.workload.novote and (code, calib["termination"]) != (2, "max_pairs"):
            problem = f"exit {code} with termination {calib['termination']}, want 2 max_pairs"
        return CallResult(i, latency, probe, code, rot, trans, problem)

    def run_pass(self, seconds: float, whole_cycles: bool, cycles: int = 0) -> list[CallResult]:
        """Closed loop over the files in order, wrapping around.

        Runs for at least ``seconds``; with ``whole_cycles`` it stops only at
        the end of a pass over the files.  A positive ``cycles`` runs exactly
        that many passes instead.
        """
        n = len(self.inputs)
        step = n if whole_cycles else 1
        results: list[CallResult] = []
        start = time.perf_counter()
        k = 0
        while True:
            if cycles:
                if k == cycles * n:
                    break
            elif k and k % step == 0 and time.perf_counter() - start >= seconds:
                break
            result = self.call(k % n)
            if result.problem:
                self.problems.append(f"{self.inputs[k % n].name}: {result.problem}")
            results.append(result)
            k += 1
        return results

    def digest(self) -> str:
        joined = "".join(self.digests.get(i, "-") for i in range(len(self.inputs)))
        return hashlib.sha256(joined.encode()).hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "loadavg": list(os.getloadavg()),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def end_to_end(bench: Bench, results: list[CallResult], setup_s: float) -> dict:
    latencies = [r.latency_s for r in results]
    normalized = [r.latency_s / r.probe_s * PROBE_NOMINAL_MS / 1e3 for r in results]
    completed = sum(r.exit_code is not None for r in results)
    metrics = {
        "calibrate_per_s": completed / sum(latencies),
        "calibrate_p50_ms": 1e3 * statistics.median(latencies),
        "calibrate_norm_per_s": completed / sum(normalized),
        "calibrate_norm_p50_ms": 1e3 * statistics.median(normalized),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "calibrate_p90_ms": None,
        "calibrate_norm_p90_ms": None,
        "probe_p50_ms": 1e3 * statistics.median(r.probe_s for r in results),
        "converged_frac": sum(r.exit_code == 0 for r in results) / len(results),
        "failed_frac": sum(r.problem is not None for r in results) / len(results),
        "rot_err_p50_deg": None,
        "trans_err_p50_mm": None,
    }
    if len(latencies) >= 100:
        metrics["calibrate_p90_ms"] = 1e3 * statistics.quantiles(latencies, n=10)[8]
        metrics["calibrate_norm_p90_ms"] = 1e3 * statistics.quantiles(normalized, n=10)[8]
    if not bench.workload.novote:
        # one error per file: later passes over a file repeat its output
        first = {r.file_index: r for r in reversed(results) if r.rot_err_deg is not None}
        if first:
            rot = statistics.median(r.rot_err_deg for r in first.values())
            trans = statistics.median(r.trans_err_mm for r in first.values())
            metrics["rot_err_p50_deg"], metrics["trans_err_p50_mm"] = rot, trans
            if rot > MAX_ROT_ERR_DEG or trans > MAX_TRANS_ERR_MM:
                bench.problems.append(
                    f"median error {rot:.3f} deg / {trans:.2f} mm exceeds "
                    f"{MAX_ROT_ERR_DEG} deg / {MAX_TRANS_ERR_MM} mm"
                )
    return metrics


def probe_units(results: list[CallResult]) -> float:
    """Total calibrate time in units of the speed probe."""
    return sum(r.latency_s / r.probe_s for r in results)


def per_layer(tracer: Tracer, traced: list[CallResult], untraced: list[CallResult],
              cycles: int) -> tuple[dict, dict]:
    """Per-layer metrics per pass over the file set, with their units."""
    values, units = {}, {}
    totals = tracer.layer_totals()
    for name, (calls, self_s) in totals.items():
        values[f"{name}.calls"] = calls // cycles
        values[f"{name}.self_ms"] = 1e3 * self_s / cycles
        units[f"{name}.calls"], units[f"{name}.self_ms"] = "count", "ms"

    def ratio(num: int, den: int) -> float:
        return num / den if den else 0.0

    c = tracer.counts
    counts = {
        "pipeline.ingest.accept_ratio":
            (ratio(c["ingest_accepted"], totals["pipeline.ingest"][0]), "ratio"),
        "selection.convergence_voting.carried_ratio":
            (ratio(c["voting_carried"], totals["selection.convergence_voting"][0]), "ratio"),
        "selection.convergence_voting.lines_max": (c["voting_lines_max"], "count"),
        "selection.convergence_voting.tensor_mb_max":
            (c["voting_tensor_bytes_max"] / 1e6, "MB-computed"),
        "solver.solve_quadratic_system.fail_ratio":
            (ratio(c["solve_failed"], totals["solver.solve_quadratic_system"][0]), "ratio"),
        "solver.solve_quadratic_system.candidates_mean":
            (ratio(c["solve_candidates"],
                   totals["solver.solve_quadratic_system"][0] - c["solve_failed"]), "count"),
        "solver.refine.lm_converged_ratio":
            (ratio(c["refine_lm_converged"], totals["solver.refine"][0]), "ratio"),
        "trace.overhead_frac": (probe_units(traced) / probe_units(untraced), "ratio"),
    }
    for name, (value, unit) in counts.items():
        values[name], units[name] = value, unit
    return values, units


def fmt(value) -> str:
    return "n/a" if value is None else repr(value)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help=f"smoke: {SMOKE_FILES} files per set-up batch, for the tests")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    batch_files = SMOKE_FILES if args.size == "smoke" else workload.batch_files
    batches = 1 if args.trace else SETUP_BATCHES

    workdir = Path(__file__).resolve().parent.parent / ".perfbench_work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    workdir.mkdir(parents=True)
    try:
        bench = Bench(args.workload, workload, args.seed, batch_files, batches, workdir)
        return measure(bench, args)
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it


def measure(bench: Bench, args) -> int:
    env = environment()
    if args.trace:
        bench.setup(0)
        bench.warm_up()
        untraced = bench.run_pass(args.seconds / 2, whole_cycles=True)
        cycles = len(untraced) // len(bench.inputs)
        untraced_digest = bench.digest()
        bench.digests.clear()
        modules = {"cli": cli, "fileio": fileio, "pipeline": pipeline}
        with Tracer(modules) as tracer:
            traced = bench.run_pass(0, whole_cycles=True, cycles=cycles)
        if bench.digest() != untraced_digest:
            bench.problems.append("traced outputs differ from untraced outputs")
        results = untraced + traced
        metrics, units = per_layer(tracer, traced, untraced, cycles)
        info = {"cycles": cycles, "files": len(bench.inputs), "spans": len(tracer.spans)}
        print(f"# {bench.name} seed={bench.seed} per layer, per pass over the files")
        for name, unit in units.items():
            print(f"{name:<48} {fmt(metrics[name]):>24} {unit}")
    else:
        setup_s = statistics.median(bench.setup(b) for b in range(SETUP_BATCHES))
        bench.warm_up()
        results = bench.run_pass(args.seconds, whole_cycles=False)
        report = end_to_end(bench, results, setup_s)
        metrics = {name: report[name] for name in END_TO_END}
        units = END_TO_END
        info = {"calls": len(results), "files": len(bench.inputs)}
        print(f"# {bench.name} seed={bench.seed} end-to-end, closed loop, 1 caller")
        for name, unit in REPORT.items():
            print(f"{name:<32} {fmt(report[name]):>24} {unit}")

    failed = sum(r.problem is not None for r in results)
    correct = failed == 0 and not bench.problems
    print(f"# env {json.dumps(env)}")
    print(f"# info {json.dumps(info)} digest={bench.digest()}")
    for problem in bench.problems:
        print(f"# CHECK FAILED {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0 if correct else 1

"""matstrata benchmark.

    python3 bench/run.py --workload graph-atlas|survey|numerics --seed N --seconds S --trace 0|1

Run from the repository root.  The program runs from the source tree
(PYTHONPATH=src).  A run measures whole rounds of its workload: at least
one, and another only while the longest round so far would still end
within S seconds.  It checks every output against the independent oracles
in oracles.py, and prints one JSON line last:
{"correct", "attempted", "failed", "metrics"}.  The line before it, and
bench/out/<workload>-seed<N>-trace<T>.json, hold the details and the
machine.  With --trace 1 one round runs in-process, plain and then traced,
and the metrics are the per-layer figures.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

import inputs
import oracles

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
WORKLOADS = ("graph-atlas", "survey", "numerics")
SETUP_SAMPLES = 7
NUMERICS_PASSES = 10  # passes per numerics round, over NUMERICS_DRAWS draws in turn
NUMERICS_DRAWS = 2
PROBE_PASSES = 4  # numerics passes in a graph-atlas or survey round, all over draw 0
PROCESS_TIMEOUT_S = 150
# One BLAS thread: the workloads are small dense matrices, on which the
# OpenBLAS default (one thread per core) runs slower with occasional stalls,
# and single-threaded results repeat bit for bit, so the estimator faults
# fail the same operations in every run.
CHILD_ENV = dict(
    os.environ,
    PYTHONPATH=str(ROOT / "src"),
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    MKL_NUM_THREADS="1",
)


# Program faults that fail a fixed set of benchmark inputs in every round;
# their failures count in "failed" without making the run incorrect.
KNOWN_FAULTS = {
    "own_scale_rank": "perturb.numeric_weyr ranks each power against that power's own largest "
    "singular value, so a power that is zero up to roundoff keeps full rank",
    "fixed_cluster_radius": "the fixed 1e-6 radius in perturb.eigen_clusters splits a defective "
    "eigenvalue whose computed copies scatter by (roundoff*cond)^(1/m)",
    "tangent_own_scale_rank": "tangent.numeric_rank ranks the tangent operator against its own "
    "largest singular value, so a scalar matrix moved by a unitary similarity gets a wrong codimension",
}


class ProcessResult:
    def __init__(self, argv, code, stdout, stderr, seconds, rss_mb):
        self.argv, self.code, self.stdout, self.stderr = argv, code, stdout, stderr
        self.seconds, self.rss_mb = seconds, rss_mb


def run_process(argv: list[str], stdin_text: str | None = None) -> ProcessResult:
    """Run a child to completion; wall time and its own peak RSS (wait4)."""
    start = perf_counter()
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=CHILD_ENV,
        stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    watchdog = threading.Timer(PROCESS_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        if stdin_text is not None:
            proc.stdin.write(stdin_text.encode())
            proc.stdin.close()
        out = proc.stdout.read()
        reader.join()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    seconds = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return ProcessResult(
        argv, proc.returncode, out.decode(), err[0].decode() if err else "", seconds,
        usage.ru_maxrss / 1024.0,
    )


def strata(argv: list[str]) -> ProcessResult:
    return run_process([sys.executable, "-m", "matstrata.cli", *argv])


def traced_worker(job: dict) -> dict:
    res = run_process([sys.executable, str(HERE / "worker.py")], json.dumps(job) + "\n")
    if res.code != 0:
        raise RuntimeError(f"benchmark worker failed ({res.code}): {res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


class NumericsWorker:
    """A worker process that runs one numerics pass per request."""

    def __init__(self, seed: int, draws: int):
        OUT_DIR.mkdir(exist_ok=True)
        self.stderr = open(OUT_DIR / "worker.stderr", "w")
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")], cwd=ROOT, env=CHILD_ENV,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self.stderr, text=True,
        )
        self.ask({"seed": seed, "draws": draws})

    def ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"benchmark worker died: {(OUT_DIR / 'worker.stderr').read_text()[-2000:]}")
        return json.loads(line)

    def finish(self) -> dict:
        summary = self.ask({"done": True})
        self.close()
        return summary

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=PROCESS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.stderr.close()


# Machine-speed calibration.  On the shared machine this benchmark was
# built on, the same work runs up to 1.6x slower for tens of seconds at a
# time, on every layer alike.  A fixed loop, timed between consecutive
# steps, tracks that speed: each step's time is divided by its slowdown,
# the median loop time around it over CALIBRATION_REF_S.  Times are thus
# reported for a machine on which the loop takes CALIBRATION_REF_S; the
# raw figures go to the detail line.
CALIBRATION_REF_S = 0.008
CALIBRATION_SAMPLES_PER_STEP = 3
_CAL_RNG = np.random.default_rng(0)
_CAL_MATRICES = [_CAL_RNG.standard_normal((6, 6)) for _ in range(40)]


def calibration_sample() -> float:
    """Time of a fixed mix of Python object work and small dense algebra."""
    start = perf_counter()
    table: dict = {}
    for i in range(6000):
        table.setdefault(tuple(sorted((i * 7919 % 97, i % 13, i % 7))), set()).add(i % 31)
    for M in _CAL_MATRICES:
        np.linalg.svd(M, compute_uv=False)
        np.linalg.eigvals(M)
    return perf_counter() - start


class Speedometer:
    """Calibration samples taken before the first step and after each one."""

    def __init__(self):
        self.sets = [self._sample_set()]

    @staticmethod
    def _sample_set() -> list[float]:
        return [calibration_sample() for _ in range(CALIBRATION_SAMPLES_PER_STEP)]

    def step_done(self) -> float:
        """Slowdown of the step that just ended (> 1: slower than the reference)."""
        self.sets.append(self._sample_set())
        return statistics.median(self.sets[-2] + self.sets[-1]) / CALIBRATION_REF_S


def measure_setup(tally) -> list[float]:
    """Fresh interpreters that import matstrata.cli and exit, each time
    divided by its slowdown; the first, which may compile bytecode, is not
    counted."""
    argv = [sys.executable, "-c", "import matstrata.cli"]
    samples = []
    speed = Speedometer()
    for _ in range(SETUP_SAMPLES + 1):
        res = run_process(argv)
        if res.code != 0:
            raise RuntimeError(f"importing matstrata.cli failed: {res.stderr[-2000:]}")
        slowdown = speed.step_done()
        tally.slowdowns.append(slowdown)
        samples.append(res.seconds / slowdown)
    return samples[1:]


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------


def interleave(main: list, probes: list) -> list:
    """Spread the probes evenly between the main steps, so that every
    metric samples the whole round rather than one stretch of it."""
    out = [("main", m) for m in main]
    for j, p in reversed(list(enumerate(probes))):
        out.insert(round((j + 0.5) * len(main) / len(probes)), ("probe", p))
    return out


def round_plan(workload: str, seed: int) -> list[tuple[str, object]]:
    """One round: the workload's own steps, with the reference probes that
    give the end-to-end metrics owned by the other workloads spread among
    them.  A step is a CLI argv list or a numerics pass index."""
    survey = inputs.probe_survey_argv(seed)
    n8, congr = inputs.N8_ARGV, inputs.PROBE_CONGR_ARGV
    if workload == "graph-atlas":
        probes = [0, survey, n8, 0, 0, survey, n8, 0]
        return interleave(inputs.graph_atlas_argvs(seed), probes)
    if workload == "survey":
        probes = [n8, 0, 0, congr, n8, 0, 0, n8]
        return interleave(inputs.survey_argvs(seed), probes)
    passes = [i % NUMERICS_DRAWS for i in range(NUMERICS_PASSES)]
    return interleave(passes, [n8, survey, n8, congr, survey, n8])


class Tally:
    """Operations, failures, problems and timings collected over a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.abstained = 0
        self.problems: list[str] = []
        self.wall: list[float] = []
        self.n8: list[float] = []
        self.rss: list[float] = []
        self.numerics: list[dict] = []
        self.slowdowns: list[float] = []
        self.raw_wall: list[float] = []
        self.call_times: dict[tuple, list[float]] = {}  # (kind, draw, call) -> repeats
        self.surveys: dict[tuple, tuple[int, list[float]]] = {}

    def problem(self, text: str) -> None:
        if len(self.problems) < 50:
            self.problems.append(text)

    def add_cli(self, argv, code, stdout, stderr, seconds) -> None:
        if code != 0:
            self.attempted += 1
            self.failed += 1
            self.problem(f"{' '.join(argv)} exited {code}: {stderr.strip()[-300:]}")
            return
        if argv[0] == "survey":
            problems, trials, failed, abstained = oracles.check_survey_output(argv, stdout)
            self.attempted += trials
            self.failed += failed
            self.abstained += abstained
            self.surveys.setdefault(tuple(argv), (trials, []))[1].append(seconds)
        else:
            problems = oracles.check_graph_output(argv, stdout)
            self.attempted += 1
            if argv == inputs.N8_ARGV:
                self.n8.append(seconds)
        for p in problems:
            self.problem(f"{' '.join(argv)}: {p}")
        if problems and argv[0] != "survey":
            self.failed += 1

    def add_numerics(self, summary: dict) -> None:
        self.attempted += summary["attempted"]
        self.failed += summary["failed"]
        for p in summary["problems"]:
            self.problem(p)
        self.numerics.append(summary)

    def add_pass(self, draw: int, times: dict) -> None:
        for kind, seconds in times.items():
            for j, t in enumerate(seconds):
                self.call_times.setdefault((kind, draw, j), []).append(t)

    def rate(self, kind: str) -> float:
        """Calls per second, each distinct call timed at the median of its
        repeats, so that a stall in one pass does not count."""
        medians = [statistics.median(ts) for (k, _, _), ts in self.call_times.items() if k == kind]
        return len(medians) / sum(medians)

    def survey_rate(self) -> float:
        """Survey trials per second, repeats of one command averaged."""
        trials = sum(t for t, _ in self.surveys.values())
        return trials / sum(statistics.mean(times) for _, times in self.surveys.values())


def check_dot_pairs(outputs: list[tuple], tally: Tally) -> None:
    """Each DOT output against the JSON output of the same graph."""
    docs = {}
    for argv, stdout in outputs:
        if argv[0] != "graph":
            continue
        try:
            docs[tuple(argv)] = oracles.read_graph(argv, stdout)
        except (ValueError, KeyError):
            continue  # already reported by check_graph_output
    for key, doc in docs.items():
        if "dot" not in key:
            continue
        twin = tuple(a for a in key if a not in ("--format", "dot"))
        twin_json = docs.get(twin) or docs.get(twin + ("--format", "json"))
        if twin_json is None:
            tally.problem(f"no JSON twin for {' '.join(key)}")
            continue
        for p in oracles.same_graph(twin_json, doc):
            tally.failed += 1
            tally.problem(f"{' '.join(key)}: {p}")


def plain_round(plan: list, seed: int, workload: str, tally: Tally) -> None:
    worker = NumericsWorker(seed, 1 + max(step for _, step in plan if isinstance(step, int)))
    wall = raw_wall = 0.0
    outputs = []
    speed = Speedometer()
    try:
        for role, step in plan:
            if isinstance(step, int):
                reply = worker.ask({"pass": step})
                slowdown = speed.step_done()
                tally.add_pass(step, {k: [t / slowdown for t in ts] for k, ts in reply["times"].items()})
                seconds = reply["seconds"]
            else:
                res = strata(step)
                slowdown = speed.step_done()
                seconds = res.seconds
                if role == "main":
                    tally.rss.append(res.rss_mb)
                tally.add_cli(step, res.code, res.stdout, res.stderr, seconds / slowdown)
                outputs.append((step, res.stdout))
            tally.slowdowns.append(slowdown)
            if role == "main":
                wall += seconds / slowdown
                raw_wall += seconds
        summary = worker.finish()
    except BaseException:
        worker.proc.kill()
        worker.close()
        raise
    if workload == "numerics":
        tally.rss.append(summary["peak_rss_mb"])
    tally.add_numerics(summary)
    check_dot_pairs(outputs, tally)
    tally.wall.append(wall)
    tally.raw_wall.append(raw_wall)


def traced_round(plan: list, seed: int, tally: Tally) -> dict:
    argvs = [step for _, step in plan if not isinstance(step, int)]
    passes = [step for _, step in plan if isinstance(step, int)]
    result = traced_worker({"seed": seed, "draws": 1 + max(passes), "passes": passes, "cli": argvs, "trace": True})
    outputs = []
    for out in result["cli"]:
        tally.add_cli(out["argv"], out["code"], out["stdout"], out["stderr"], 0.0)
        outputs.append((out["argv"], out["stdout"]))
    check_dot_pairs(outputs, tally)
    tally.add_numerics(result)
    for m in result["mismatches"]:
        tally.problem(f"traced output differs from the plain pass: {m}")
    return result


# ---------------------------------------------------------------------------


def machine() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": f"OPENBLAS_NUM_THREADS={CHILD_ENV['OPENBLAS_NUM_THREADS']} (set by the benchmark)",
        "commit": commit,
        "platform": platform.platform(),
    }


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "matstrata" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print("run from the repository root: src/matstrata and BENCHMARK.json are needed", file=sys.stderr)
        return 2
    # one CPU for the benchmark and every child, so that the calibration
    # loop and the program share whatever slows that CPU down
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    plan = round_plan(args.workload, args.seed)
    tally = Tally()
    detail: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine()}
    values: dict[str, float] = {}
    if args.trace:
        result = traced_round(plan, args.seed, tally)
        values = dict(result["layers"])
        values["perturb.abstain_count"] = tally.abstained
        values["trace.overhead_s"] = result["traced_wall_s"] - result["plain_wall_s"]
        detail.update(
            plain_wall_s=result["plain_wall_s"], traced_wall_s=result["traced_wall_s"],
            samples=result["samples"],
        )
    else:
        setup = measure_setup(tally)
        start, rounds, longest = perf_counter(), 0, 0.0
        # whole rounds only: another starts while it should end within --seconds
        while rounds == 0 or perf_counter() - start + longest <= args.seconds:
            began = perf_counter()
            plain_round(plan, args.seed, args.workload, tally)
            longest = max(longest, perf_counter() - began)
            rounds += 1
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(tally.wall),
            "peak_rss_mb": max(tally.rss),
            "graph_bundle_n8_s": statistics.mean(tally.n8),
            "survey_trials_per_s": tally.survey_rate(),
            "codim_per_s": tally.rate("codim"),
            "reduce_per_s": tally.rate("reduce"),
            "classify_per_s": tally.rate("classify"),
            "estimate_per_s": tally.rate("estimate"),
        }
        detail.update(
            rounds=rounds, setup_samples_s=setup, round_wall_s=tally.wall, raw_round_wall_s=tally.raw_wall,
            slowdown={"median": statistics.median(tally.slowdowns), "min": min(tally.slowdowns),
                      "max": max(tally.slowdowns), "ref_s": CALIBRATION_REF_S},
        )
    specs = metric_specs(bool(args.trace))
    missing = [s["name"] for s in specs if s["name"] not in values]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    last = tally.numerics[-1]
    detail.update(
        abstained_survey_trials=tally.abstained,
        known_faults=dict(KNOWN_FAULTS, failures_last_round=last["known_faults"]),
        estimate_outcomes_last_round=last["estimate_outcomes"],
        numerics_ops_last_round=last["ops"],
        problems=tally.problems,
    )
    correct = not tally.problems
    result_line = {"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "result": result_line}, indent=1, default=str) + "\n"
    )
    print(json.dumps(detail, default=str))
    print(json.dumps(result_line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

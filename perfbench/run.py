"""Benchmark of the nullfoliate pipeline: generate -> solve -> verify -> norms.

Run from the repository root:

    python3 perfbench/run.py --workload schw-L15-certify --seed 0 --seconds 30 --trace 0

Every stage runs as its own `python3 -m nullfoliate.cli` child process, as a
user runs it.  With --trace 0 the end-to-end metrics are reported: set-up
(the `generate` child, several times), the stage wall times and peak memory.
With --trace 1 each stage also runs a second time under perfbench/traced_stage.py,
and the per-layer metrics come from the spans of those traced children.

Every output is checked; a stage that exits non-zero or fails its check
counts as failed.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  The program is taken from
src/ next to this directory; without it the benchmark exits with code 2.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from layers import UNITS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

DEFAULT_SEED = 0
# Seeds other than DEFAULT_SEED move the Schwarzschild mass or the MMS
# epsilon by up to this relative amount; the reference values of
# reference.json hold only at DEFAULT_SEED.
SEED_BAND = 0.02
# A run must end within 180 s; children still running at this point are
# killed and count as failed.
DEADLINE_S = 170.0
# Each child sees one BLAS/OpenMP thread, so the only parallelism measured
# is the program's own --threads.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}

# Output checks.  Schwarzschild's canonical lapse is exactly 1, so Omega - 1
# is roundoff; the MMS bound is far below any discretisation change a
# correct solver makes at these resolutions (observed errors ~1e-11).
OMEGA_ROUNDOFF = 1e-12
MMS_S_ERROR = 1e-8
# Reference comparisons admit roundoff: |x - ref| <= RTOL |ref| + ATOL, with
# ATOL a tenth of each suite's default pass tolerance.
REF_RTOL = {"constraint": 1e-6, "transport": 1e-6, "norms": 1e-9}
REF_ATOL = {"constraint": 1e-11, "transport": 1e-9, "norms": 1e-12}


@dataclass(frozen=True)
class Workload:
    model: str          # "schwarzschild" (seeded mass) or "mms" (seeded epsilon)
    base: float         # mass or epsilon at DEFAULT_SEED
    lmax: int
    n_s: int
    dv: float
    v_end: float
    threads: int
    stages: tuple
    setup_runs: int

    @property
    def levels(self):
        return round((self.v_end - 1.0) / self.dv) + 1

    def parameter(self, seed):
        """The seeded physical parameter: base at DEFAULT_SEED, else in the band."""
        if seed == DEFAULT_SEED:
            return self.base
        return self.base * (1.0 + SEED_BAND * random.Random(seed).uniform(-1, 1))


# BENCHMARK.json records why each workload is in the set.
WORKLOADS = {
    # diagnostics dominate: many small padded transforms and the repeated
    # reconstruct; solve takes the full assemble_F path
    "schw-L15-certify": Workload(
        model="schwarzschild", base=0.1, lmax=15, n_s=32, dv=1 / 64,
        v_end=1.125, threads=1, stages=("solve", "verify", "norms"),
        setup_runs=3),
    # Picard sweeps, generator interpolation and lapse inversion on one
    # thread; no diagnostics run, so a diagnostics change must not move it
    "mms-L23-march": Workload(
        model="mms", base=1e-2, lmax=23, n_s=40, dv=1 / 256, v_end=1.25,
        threads=1, stages=("solve",), setup_runs=2),
    # the only workload that runs the thread pool of picard_window
    "mms-L23-march-t2": Workload(
        model="mms", base=1e-2, lmax=23, n_s=40, dv=1 / 256, v_end=1.25,
        threads=2, stages=("solve",), setup_runs=2),
}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "pipeline_s": "s",
                    "peak_rss_mb": "MB"}


# --------------------------------------------------------------------------
# child processes
# --------------------------------------------------------------------------

@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    code: int
    output: str


def child_env():
    env = dict(os.environ)
    env.pop("NULLFOLIATE_THREADS", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, log_path, deadline):
    """Run argv to completion; wall time and the child's own peak RSS.

    The child is killed if it is still running at `deadline` (monotonic).
    """
    start = time.perf_counter()
    with open(log_path, "w") as log:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_maxrss / 1024.0, proc.returncode,
                    Path(log_path).read_text())


def cli_argv(args, spans=None):
    if spans is None:
        return [sys.executable, "-m", "nullfoliate.cli", *args]
    return [sys.executable, str(HERE / "traced_stage.py"), str(spans), "--",
            *args]


class Tally:
    """Stage runs attempted and failed; failed_share is their ratio."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed_share(self):
        return self.failed / self.attempted if self.attempted else 0.0


def run_checked(tally, label, argv, log_path, deadline, check):
    """Run one stage child and its output check; record the outcome.

    `check(run)` returns a list of problems and is called only when the
    child exited 0.  Returns the run and whether it passed.
    """
    run = run_child(argv, log_path, deadline)
    problems = [] if run.code == 0 else [f"exit code {run.code}"]
    if not problems:
        try:
            problems = check(run)
        except (OSError, ValueError, KeyError, StopIteration) as err:
            problems = [f"unreadable output: {err!r}"]
    tally.record(label, problems)
    return run, not problems


# --------------------------------------------------------------------------
# output checks
# --------------------------------------------------------------------------

def _manifest(path):
    with open(Path(path) / "manifest.json") as fh:
        return json.load(fh)


def _field(path, manifest, name):
    entry = next(e for e in manifest["fields"] if e["name"] == name)
    dtype = {"f64le": "<f8", "c128le": "<c16"}[entry["dtype"]]
    return np.fromfile(Path(path) / entry["file"], dtype=dtype).reshape(
        entry["shape"])


def exact_graph(dataset):
    """s_exact(v) of a manufactured dataset, from its manifest and sidecar.

    s = 1 + A(v) + epsilon B(v) G(w), with A, B Chebyshev series on
    [v0, v_ext] and G the angular profile stored as mms_G.
    """
    manifest = _manifest(dataset)
    meta = manifest["meta"]["mms"]
    G = np.real(_field(dataset, manifest, "mms_G"))
    dom = [meta["v0"], meta["v_ext"]]
    Ch = np.polynomial.chebyshev.Chebyshev
    A = Ch(np.asarray(meta["A_coef"]), domain=dom)
    B = Ch(np.asarray(meta["B_coef"]), domain=dom)
    return lambda v: 1.0 + A(v) + meta["epsilon"] * B(v) * G


def check_generate(out):
    manifest = _manifest(out)
    if manifest.get("kind") != "geodesic_data":
        return ["dataset manifest has the wrong kind"]
    return []


def check_solve(w, dataset, out):
    manifest = _manifest(out)
    v_nodes = np.asarray(manifest["v_nodes"])
    problems = []
    if len(v_nodes) != w.levels or abs(v_nodes[-1] - w.v_end) > 1e-12:
        problems.append(f"foliation has {len(v_nodes)} levels ending at "
                        f"{v_nodes[-1]}, expected {w.levels} ending at {w.v_end}")
    s = _field(out, manifest, "s")
    log_omega = _field(out, manifest, "logOmega")
    if not (np.all(np.isfinite(s)) and np.all(np.isfinite(log_omega))):
        return problems + ["foliation is not finite"]
    if w.model == "schwarzschild":
        dev = float(np.max(np.abs(np.exp(log_omega) - 1.0)))
        if dev > OMEGA_ROUNDOFF:
            problems.append(f"max|Omega-1| = {dev:.3e} > {OMEGA_ROUNDOFF:g}")
    else:
        s_exact = exact_graph(dataset)
        err = max(float(np.max(np.abs(s[i] - s_exact(v))))
                  for i, v in enumerate(v_nodes))
        if err > MMS_S_ERROR:
            problems.append(f"max|s - s_exact| = {err:.3e} > {MMS_S_ERROR:g}")
    if not (Path(out) / "trace.csv").is_file():
        problems.append("trace.csv missing")
    return problems


def _compare(kind, values, reference):
    problems = []
    for key, ref in reference.items():
        if key not in values:
            problems.append(f"{kind} {key} missing")
            continue
        got = float(values[key])
        if abs(got - ref) > REF_RTOL[kind] * abs(ref) + REF_ATOL[kind]:
            problems.append(f"{kind} {key} = {got!r}, reference {ref!r}")
    return problems


def verify_verdict(out):
    with open(Path(out) / "verify_summary.json") as fh:
        summary = json.load(fh)
    ok = all(all(summary[s]["pass"].values()) for s in ("constraint", "transport"))
    return ("PASS" if ok else "FAIL"), summary


def check_verify(w, out, output, reference):
    verdict, summary = verify_verdict(out)
    problems = []
    if f"verification {verdict}" not in output:
        problems.append(f"verify printed a verdict other than {verdict}")
    # Schwarzschild must certify; the MMS verdict is reported as it comes
    if w.model == "schwarzschild" and verdict != "PASS":
        problems.append("Schwarzschild verification FAIL")
    if reference is not None:
        for suite in ("constraint", "transport"):
            problems += _compare(suite, summary[suite]["worst"],
                                 reference["verify"][suite])
    return problems


def check_norms(out, reference):
    with open(Path(out) / "norms.json") as fh:
        norms = json.load(fh)
    problems = []
    for key in ("O", "R"):
        value = float(norms.get(key, "nan"))
        if not (np.isfinite(value) and value >= 0.0):
            problems.append(f"norm {key} = {value!r} is not finite and >= 0")
    if reference is not None:
        problems += _compare("norms", norms, reference["norms"])
    return problems


# --------------------------------------------------------------------------
# the pipeline
# --------------------------------------------------------------------------

def _dir_bytes(path, names=None):
    path = Path(path)
    files = path.iterdir() if names is None else (path / n for n in names)
    return sum(f.stat().st_size for f in files if f.is_file())


class Bench:
    """One benchmark run of one workload in a scratch directory."""

    def __init__(self, name, seed, workdir, deadline):
        self.w = WORKLOADS[name]
        self.param = self.w.parameter(seed)
        self.work = workdir
        self.deadline = deadline
        self.tally = Tally()
        self.verdicts = []
        self.reference = None
        if seed == DEFAULT_SEED:
            with open(HERE / "reference.json") as fh:
                self.reference = json.load(fh).get(name)
        self._n = 0

    def _fresh(self, stem):
        self._n += 1
        path = self.work / f"{self._n:04d}-{stem}"
        path.mkdir(parents=True)
        return path

    def _stage(self, stage, args, out, check, traced):
        """Run one checked child; a traced child's spans are part of its output."""
        spans = out / "spans.json" if traced else None
        loaded = []

        def check_and_load(run):
            problems = check(run)
            if spans is not None:
                with open(spans) as fh:
                    loaded.append(json.load(fh))
            return problems

        label = f"{stage} (traced)" if traced else stage
        run, ok = run_checked(self.tally, label, cli_argv(args, spans),
                              out / "log.txt", self.deadline, check_and_load)
        return run, ok, (loaded[0] if loaded else None)

    def generate(self, traced=False):
        w = self.w
        out = self._fresh("dataset")
        flag = "--mass" if w.model == "schwarzschild" else "--epsilon"
        args = ["generate", "--model", w.model, "--lmax", str(w.lmax),
                "--n-s", str(w.n_s), flag, repr(self.param),
                "--out", str(out / "ds")]
        run, ok, trace = self._stage("generate", args, out,
                                     lambda r: check_generate(out / "ds"),
                                     traced)
        return out / "ds", run, ok, trace

    def stage(self, stage, dataset, foliation, traced=False):
        w, ref = self.w, self.reference
        out = self._fresh(stage)
        if stage == "solve":
            args = ["solve", "--data", str(dataset), "--out", str(out / "fol"),
                    "--dv", repr(w.dv), "--v-end", repr(w.v_end),
                    "--threads", str(w.threads)]
            check = lambda r: check_solve(w, dataset, out / "fol")
        elif stage == "verify":
            args = ["verify", "--data", str(dataset), "--foliation",
                    str(foliation), "--out", str(out / "rep")]
            check = lambda r: check_verify(w, out / "rep", r.output, ref)
        else:
            args = ["norms", "--data", str(dataset), "--foliation",
                    str(foliation), "--out", str(out / "rep")]
            check = lambda r: check_norms(out / "rep", ref)
        run, ok, trace = self._stage(stage, args, out, check, traced)
        if ok and stage == "verify":
            self.verdicts.append(verify_verdict(out / "rep")[0])
        return out, run, ok, trace

    def pipeline(self, dataset, traced=False):
        """Every stage once; stops at the first failed stage."""
        runs, traces, outs = {}, [], {}
        foliation = None
        for stage in self.w.stages:
            out, run, ok, trace = self.stage(stage, dataset, foliation, traced)
            runs[stage], outs[stage] = run, out
            if not ok:
                break
            traces.append(trace)
            if stage == "solve":
                foliation = out / "fol"
        return runs, traces, outs

    def repeat(self, seconds, one_rep):
        """Repeat one_rep until another would overrun `seconds`; at least once."""
        start = time.monotonic()
        reps = []
        while True:
            reps.append(one_rep())
            elapsed = time.monotonic() - start
            per_rep = elapsed / len(reps)
            now = time.monotonic()
            if (elapsed + per_rep > seconds or now + per_rep > self.deadline
                    or self.tally.failed):
                return reps

    # ---- untraced: end-to-end metrics ----

    def end_to_end(self, seconds):
        setup = []
        dataset = None
        for _ in range(self.w.setup_runs):
            ds, run, ok, _ = self.generate()
            setup.append(run)
            if not ok:
                return None
            if dataset is not None:
                shutil.rmtree(dataset.parent)
            dataset = ds

        def one_rep():
            runs, _, outs = self.pipeline(dataset)
            for out in outs.values():
                shutil.rmtree(out)
            return runs

        reps = self.repeat(seconds, one_rep)
        if self.tally.failed:
            return None
        stage_s = {st: statistics.median(r[st].wall_s for r in reps)
                   for st in self.w.stages}
        metrics = {
            "setup_s": statistics.median(r.wall_s for r in setup),
            "solve_s": stage_s["solve"],
            "pipeline_s": statistics.median(
                sum(r[st].wall_s for st in self.w.stages) for r in reps),
            "peak_rss_mb": max(r[st].rss_mb for r in reps
                               for st in self.w.stages),
        }
        samples = {"generate": [r.wall_s for r in setup],
                   **{st: [r[st].wall_s for r in reps] for st in self.w.stages}}
        report = {f"{st}_s samples": " ".join(f"{t:.4f}" for t in ts)
                  for st, ts in samples.items()}
        report.update({f"{st}_s": f"{v:.6g} s" for st, v in stage_s.items()})
        return metrics, report

    # ---- traced: per-layer metrics ----

    def per_layer(self, seconds):
        w = self.w
        dataset, plain_gen, ok, _ = self.generate()
        if not ok:
            return None
        traced_ds, traced_gen, ok, gen_trace = self.generate(traced=True)
        if not ok:
            return None
        gen_overhead = traced_gen.wall_s - plain_gen.wall_s
        facts_base = {"threads": w.threads, "levels": w.levels,
                      "dataset_bytes": _dir_bytes(traced_ds)}

        def one_rep():
            plain, _, plain_outs = self.pipeline(dataset)
            traced, traces, traced_outs = self.pipeline(traced_ds, traced=True)
            if self.tally.failed:
                return None
            fol = traced_outs["solve"] / "fol"
            with open(fol / "trace.csv") as fh:
                sweeps = sum(1 for _ in fh) - 1
            manifest = _manifest(fol)
            names = ["manifest.json"] + [e["file"] for e in manifest["fields"]]
            overhead = gen_overhead + sum(traced[st].wall_s - plain[st].wall_s
                                          for st in w.stages)
            facts = dict(facts_base, sweeps=sweeps,
                         foliation_bytes=_dir_bytes(fol, names),
                         overhead_s=overhead)
            for out in (*plain_outs.values(), *traced_outs.values()):
                shutil.rmtree(out)
            return layer_metrics([gen_trace] + traces, facts)

        reps = self.repeat(seconds, one_rep)
        if self.tally.failed:
            return None
        metrics = {k: statistics.median(r[k] for r in reps) for k in UNITS}
        return metrics, {"traced pipeline reps": str(len(reps))}


# --------------------------------------------------------------------------
# provenance and reporting
# --------------------------------------------------------------------------

def provenance(seed):
    import scipy
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        sha = res.stdout.strip() if res.returncode == 0 else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "nullfoliate").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas, "seed": seed, "default_seed": DEFAULT_SEED,
            "child_env": THREAD_ENV}


def _build():
    """Byte-compile the package, as an install would, before any timing."""
    res = subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                         capture_output=True, text=True)
    return res.returncode == 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nullfoliate" / "cli.py").is_file():
        print(f"nullfoliate sources not found under {SRC}", file=sys.stderr)
        return 2
    if not _build():
        print("byte-compiling the sources failed", file=sys.stderr)
        return 2

    start = time.monotonic()
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, workdir, start + DEADLINE_S)
    w = bench.w
    param_name = "mass" if w.model == "schwarzschild" else "epsilon"
    print(f"workload {args.workload}")
    print(f"inputs: {w.model} {param_name}={bench.param!r} L={w.lmax} "
          f"n_s={w.n_s} dv={w.dv!r} v=[1, {w.v_end}] ({w.levels} levels) "
          f"threads={w.threads} stages={'+'.join(w.stages)}")
    print("provenance: " + json.dumps(provenance(args.seed), sort_keys=True))
    try:
        if args.trace:
            result = bench.per_layer(args.seconds)
            units = UNITS
        else:
            result = bench.end_to_end(args.seconds)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    tally = bench.tally
    for problem in tally.problems:
        print(f"FAILED {problem}")
    if result is None:
        metrics, report = {}, {}
    else:
        metrics, report = result
    for key, value in report.items():
        print(f"{key}: {value}")
    if bench.verdicts:
        print(f"verify verdicts: {', '.join(sorted(set(bench.verdicts)))}")
    print(f"failed_share: {tally.failed}/{tally.attempted} = "
          f"{tally.failed_share:.6g}")
    for key, value in metrics.items():
        print(f"{key}: {value:.6g} {units[key]}")
    print(json.dumps({
        "correct": tally.failed == 0 and result is not None,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

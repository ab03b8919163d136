"""Byte-identity check of two source trees on the reference cases.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the `nullfoliate` package (the `src/` of a
checkout).  Both trees are byte-compiled first (`python -m compileall`),
as perfbench/run.py does before its timings: where PYTHONDONTWRITEBYTECODE
is set, a tree with a stale `__pycache__` would compile its modules anew in
every stage, and that cost and memory would read as a difference of the
trees.  Every reference case (the four dv = 1/64 cases below, and the
MMS solve of the benchmark's `mms-L23-march`: eps = 0.01, L = 23, n_s = 40,
dv = 1/256, v in [1, 1.25]) runs generate -> solve -> verify -> norms, and
the README's `convergence` study runs at its defaults, once with
PARENT_SRC and once with CHANGE_SRC on PYTHONPATH, each stage as its own
`python -m nullfoliate.cli` process with BLAS and OpenMP at one thread.
Every file the stages write is then compared byte for byte, and so are
each stage's standard output and exit code (kept as `<stage>.out`).
Each file that differs is printed, and each that exists on one side only
with its size in bytes; the exit code is 1 if any file differs or is
one-sided and 0 if none.  For a differing numeric file (a container's .bin
array, read with the dtype its manifest.json gives, or a CSV or JSON
report) the largest absolute and relative difference of its numbers is
printed too; a JSON report compares the key paths both sides hold.  The
relative one is taken over the entries whose parent value is nonzero; the
entries that left an exact zero are counted apart, with their largest
absolute value.  For a JSON report one more line is printed for each key
whose number moved, with its shift, and for each key path that only one
side holds.  Before a case's differing files, one line per stage gives
its wall time and peak RSS (`ru_maxrss`) on both trees; these single runs
are for reading, not for a verdict, and do not change the exit code.
Standard library only.
"""

import array
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}

DV = str(1.0 / 64.0)


def pipeline(gen_args, solve_args):
    """The four stages of a reference case, as {stage: CLI arguments}."""
    return {
        "generate": ["generate", *gen_args, "--out", "dataset"],
        "solve": ["solve", "--data", "dataset", "--out", "foliation",
                  *solve_args],
        "verify": ["verify", "--data", "dataset", "--foliation", "foliation",
                   "--out", "reports"],
        "norms": ["norms", "--data", "dataset", "--foliation", "foliation",
                  "--out", "reports"],
    }


# case -> {stage: CLI arguments}
CASES = {
    "minkowski-L15": pipeline(["--model", "minkowski", "--lmax", "15"],
                              ["--dv", DV, "--v-end", "2"]),
    "schwarzschild-L15-short": pipeline(
        ["--model", "schwarzschild", "--mass", "0.1", "--lmax", "15"],
        ["--dv", DV, "--v-end", "1.125"]),
    "schwarzschild-L15": pipeline(
        ["--model", "schwarzschild", "--mass", "0.1", "--lmax", "15"],
        ["--dv", DV, "--v-end", "2"]),
    "mms-L23": pipeline(["--model", "mms", "--lmax", "23", "--n-s", "40"],
                        ["--dv", DV, "--v-end", "2"]),
    # the benchmark's solve: one 64-step window, so 9 blocks of LAPSE_BLOCK
    # levels per sweep, where the other cases have at most 2
    "mms-L23-march": pipeline(["--model", "mms", "--epsilon", "0.01",
                               "--lmax", "23", "--n-s", "40"],
                              ["--dv", str(1.0 / 256.0), "--v-end", "1.25"]),
    # the README's study at its defaults (L = 23, tol = 1e-13): the one
    # documented run whose tol lies below the Picard monitor's roundoff
    # floor (about 2.5e-13), so its windows are accepted against the floor
    "convergence-L23": {"convergence": ["convergence", "--out", "reports"]},
}


def build(src):
    """Byte-compile the tree src, as an install would; exits if that
    fails."""
    res = subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)],
                         capture_output=True, text=True)
    if res.returncode != 0:
        sys.exit(f"{src}: compileall failed\n{res.stdout}{res.stderr}")


def run_stage(argv, workdir, env, out_path):
    """Run one CLI stage, its standard output into out_path and its exit
    code after it; returns the wall time in s and the peak RSS in MB."""
    t0 = time.perf_counter()
    with open(out_path, "wb") as out:
        proc = subprocess.Popen([sys.executable, "-m", "nullfoliate.cli",
                                 *argv], cwd=workdir, env=env, stdout=out,
                                stderr=subprocess.DEVNULL)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - t0
        out.write(f"exit {proc.returncode}\n".encode())
    if proc.returncode != 0:
        print(f"{workdir}: {argv[0]} exited {proc.returncode}",
              file=sys.stderr)
    return wall, usage.ru_maxrss / 1024.0


def run_case(src, workdir, stages):
    """Run the stages of a case in workdir, with relative paths so that the
    standard output of both trees can be compared; returns each stage's
    wall time and peak RSS."""
    env = dict(os.environ)
    env.pop("NULLFOLIATE_THREADS", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(Path(src).resolve())
    workdir.mkdir(parents=True)
    return {stage: run_stage(argv, workdir, env, workdir / f"{stage}.out")
            for stage, argv in stages.items()}


def differing(a, b):
    """Relative paths of the files under a and b whose bytes differ."""
    files = {p.relative_to(root) for root in (a, b)
             for p in root.rglob("*") if p.is_file()}
    out = []
    for rel in sorted(files):
        pa, pb = a / rel, b / rel
        if not (pa.is_file() and pb.is_file()) \
                or pa.read_bytes() != pb.read_bytes():
            out.append(rel)
    return out


def _number(x):
    """x as a float where it is a number or a numeric string, else x."""
    if isinstance(x, bool):
        return x
    try:
        return float(x)
    except (TypeError, ValueError):
        return x


def _entries(x, key=""):
    """(key path, value) of every leaf of a JSON document, depth first in
    key order; a list item is keyed by its index."""
    if isinstance(x, dict):
        items = sorted(x.items())
    elif isinstance(x, list):
        items = enumerate(x)
    else:
        yield key, x
        return
    for k, v in items:
        yield from _entries(v, f"{key}.{k}" if key else str(k))


def _report(path):
    """Key path -> value of every leaf of a JSON report."""
    return dict(_entries(json.loads(path.read_text())))


def _values(path):
    """The values a .bin or CSV file holds, in order; None for another
    kind."""
    if path.suffix == ".bin":
        manifest = json.loads((path.parent / "manifest.json").read_text())
        tag = next(f["dtype"] for f in manifest["fields"]
                   if f["file"] == path.name)
        vals = array.array("d", path.read_bytes())
        if sys.byteorder == "big":
            vals.byteswap()
        if tag == "c128le":
            return [complex(re, im) for re, im in zip(vals[::2], vals[1::2])]
        return list(vals)
    if path.suffix == ".csv":
        with open(path, newline="") as fh:
            return [_number(c) for row in csv.reader(fh) for c in row]
    return None


def _gap(x, y):
    """Absolute difference of two numbers, and the relative one to x, which
    is None where x is exactly 0."""
    d = abs(x - y)
    d = math.inf if d != d else d  # NaN on one side
    return d, d / abs(x) if x else None


def _pairs(pa, pb):
    """(parent, change) pairs of the values of two numeric files: of the
    key paths both hold for JSON reports, else in order; None for another
    kind of file or for value counts that differ."""
    if pa.suffix == ".json":
        ea, eb = _report(pa), _report(pb)
        return [(_number(ea[k]), _number(eb[k]))
                for k in sorted(ea.keys() & eb.keys())]
    va, vb = _values(pa), _values(pb)
    if va is None or vb is None or len(va) != len(vb):
        return None
    return list(zip(va, vb))


def shift(pa, pb):
    """' max abs ..., max rel ...' for two numeric files of the same layout,
    the relative maximum over the entries whose parent value is nonzero,
    with a note of the entries that left an exact zero and one where a
    non-numeric value differs; '' otherwise."""
    pairs = _pairs(pa, pb)
    if pairs is None:
        return ""
    big_abs = big_rel = zero_abs = 0.0
    n_zero = 0
    other = False
    for x, y in pairs:
        if isinstance(x, (float, complex)) and isinstance(y, (float, complex)):
            d, rel = _gap(x, y)
            big_abs = max(big_abs, d)
            if rel is not None:
                big_rel = max(big_rel, rel)
            elif d:
                n_zero, zero_abs = n_zero + 1, max(zero_abs, d)
        elif x != y:
            other = True
    note = f", {n_zero} left exact zero (max abs {zero_abs:.3g})" \
        if n_zero else ""
    note += ", a non-numeric value differs" if other else ""
    return f"  max abs {big_abs:.3g}, max rel {big_rel:.3g}{note}"


def moved(pa, pb):
    """One line for each number of a JSON report that moved, naming its
    key path with the absolute and relative shift, and one for each key
    path that only one side holds; none for other files."""
    if pa.suffix != ".json":
        return []
    ea, eb = _report(pa), _report(pb)
    lines = []
    for key in sorted(ea.keys() | eb.keys()):
        if key not in eb or key not in ea:
            side = "parent" if key in ea else "change"
            lines.append(f"    {key}: only in {side}")
            continue
        x, y = _number(ea[key]), _number(eb[key])
        if isinstance(x, float) and isinstance(y, float) and x != y:
            d, rel = _gap(x, y)
            lines.append(f"    {key}: abs {d:.3g}, " + (
                "left exact zero" if rel is None else f"rel {rel:.3g}"))
    return lines


def describe(a, b, rel):
    """The lines that report a file rel that differs under the trees a
    and b, or that only one of them holds."""
    pa, pb = a / rel, b / rel
    if not (pa.is_file() and pb.is_file()):
        side, p = ("parent", pa) if pa.is_file() else ("change", pb)
        return [f"only in {side}: {rel}, {p.stat().st_size} bytes"]
    return [f"differs: {rel}{shift(pa, pb)}", *moved(pa, pb)]


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: same_outputs.py PARENT_SRC CHANGE_SRC")
    parent, change = argv
    for src in (parent, change):
        if not (Path(src) / "nullfoliate").is_dir():
            sys.exit(f"{src}: no nullfoliate package there")
        build(src)
    n_diff = n_files = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for case, stages in CASES.items():
            a, b = Path(tmp) / "parent" / case, Path(tmp) / "change" / case
            cost_a = run_case(parent, a, stages)
            cost_b = run_case(change, b, stages)
            for stage, (wall_a, rss_a) in cost_a.items():
                wall_b, rss_b = cost_b[stage]
                print(f"{case} {stage}: parent {wall_a:.2f} s {rss_a:.1f} MB"
                      f", change {wall_b:.2f} s {rss_b:.1f} MB")
            diff = differing(a, b)
            n_files += sum(1 for p in a.rglob("*") if p.is_file())
            n_diff += len(diff)
            for rel in diff:
                print("\n".join(describe(a.parent, b.parent, case / rel)))
    print(f"{n_diff} of {n_files} files differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

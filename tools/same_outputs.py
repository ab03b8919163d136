"""Byte-identity check of two source trees on the reference cases.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory holding the `nullfoliate` package (the `src/` of a
checkout).  Every reference case runs generate -> solve -> verify -> norms
once with PARENT_SRC and once with CHANGE_SRC on PYTHONPATH, each stage as
its own `python -m nullfoliate.cli` process with BLAS and OpenMP at one
thread.  Every file the stages write is then compared byte for byte, and so
are each stage's standard output and exit code (kept as `<stage>.out`).
Each file that differs, or exists on one side only, is printed; the exit
code is 1 if any does and 0 if none.  Standard library only.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "VECLIB_MAXIMUM_THREADS": "1",
              "NUMEXPR_NUM_THREADS": "1"}

DV = str(1.0 / 64.0)

# case -> (generate arguments, solve arguments)
CASES = {
    "minkowski-L15": (["--model", "minkowski", "--lmax", "15"],
                      ["--dv", DV, "--v-end", "2"]),
    "schwarzschild-L15-short": (
        ["--model", "schwarzschild", "--mass", "0.1", "--lmax", "15"],
        ["--dv", DV, "--v-end", "1.125"]),
    "schwarzschild-L15": (
        ["--model", "schwarzschild", "--mass", "0.1", "--lmax", "15"],
        ["--dv", DV, "--v-end", "2"]),
    "mms-L23": (["--model", "mms", "--lmax", "23", "--n-s", "40"],
                ["--dv", DV, "--v-end", "2"]),
}


def run_case(src, workdir, gen_args, solve_args):
    """Run the four stages in workdir, with relative paths so that the
    standard output of both trees can be compared."""
    env = dict(os.environ)
    env.pop("NULLFOLIATE_THREADS", None)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(Path(src).resolve())
    stages = {
        "generate": ["generate", *gen_args, "--out", "dataset"],
        "solve": ["solve", "--data", "dataset", "--out", "foliation",
                  *solve_args],
        "verify": ["verify", "--data", "dataset", "--foliation", "foliation",
                   "--out", "reports"],
        "norms": ["norms", "--data", "dataset", "--foliation", "foliation",
                  "--out", "reports"],
    }
    workdir.mkdir(parents=True)
    for stage, argv in stages.items():
        proc = subprocess.run([sys.executable, "-m", "nullfoliate.cli", *argv],
                              cwd=workdir, env=env, capture_output=True)
        (workdir / f"{stage}.out").write_bytes(
            proc.stdout + f"exit {proc.returncode}\n".encode())
        if proc.returncode != 0:
            print(f"{workdir}: {stage} exited {proc.returncode}",
                  file=sys.stderr)


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


def main(argv):
    if len(argv) != 2:
        sys.exit("usage: same_outputs.py PARENT_SRC CHANGE_SRC")
    parent, change = argv
    for src in (parent, change):
        if not (Path(src) / "nullfoliate").is_dir():
            sys.exit(f"{src}: no nullfoliate package there")
    n_diff = n_files = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        for case, (gen_args, solve_args) in CASES.items():
            a, b = Path(tmp) / "parent" / case, Path(tmp) / "change" / case
            run_case(parent, a, gen_args, solve_args)
            run_case(change, b, gen_args, solve_args)
            diff = differing(a, b)
            n_files += sum(1 for p in a.rglob("*") if p.is_file())
            n_diff += len(diff)
            for rel in diff:
                print(f"differs: {case}/{rel}")
    print(f"{n_diff} of {n_files} files differ")
    return 1 if n_diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

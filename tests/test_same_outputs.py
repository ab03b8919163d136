"""tools/same_outputs.py reports what moved between two trees: the lines for
a differing JSON report and for a file that only one tree holds, and the
cost of each stage, and the byte-compilation of a tree.  The tool is
imported by path; only the CLI's help and compileall run."""

import importlib.util
import json
import os
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)


def _write(path, payload):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def test_json_report_names_moved_zero_and_one_sided_keys(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "change"
    rel = Path("case") / "reports" / "norms.json"
    _write(a / rel, {"O": "3.5", "O.N1_chihat": "0", "R.beta": "0",
                     "R.rho": "2"})
    _write(b / rel, {"O": "3.5", "R.beta": "1e-20", "R.rho": "2.5",
                     "R.sigma": "0"})
    assert same_outputs.differing(a, b) == [rel]
    assert same_outputs.describe(a, b, rel) == [
        "differs: case/reports/norms.json  max abs 0.5, max rel 0.25, "
        "1 left exact zero (max abs 1e-20)",
        "    O.N1_chihat: only in parent",
        "    R.beta: abs 1e-20, left exact zero",
        "    R.rho: abs 0.5, rel 0.25",
        "    R.sigma: only in change",
    ]


def test_one_sided_file_gives_its_size(tmp_path):
    a, b = tmp_path / "parent", tmp_path / "change"
    rel = Path("case") / "dataset" / "chihat.bin"
    (a / rel).parent.mkdir(parents=True)
    (a / rel).write_bytes(bytes(48))
    (b / "case").mkdir(parents=True)
    assert same_outputs.differing(a, b) == [rel]
    assert same_outputs.describe(a, b, rel) == [
        "only in parent: case/dataset/chihat.bin, 48 bytes"]
    assert same_outputs.describe(b, a, rel) == [
        "only in change: case/dataset/chihat.bin, 48 bytes"]


def test_stage_keeps_its_output_and_exit_code_and_reports_its_cost(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(TOOL.parents[1] / "src"))
    out = tmp_path / "help.out"
    wall, rss_mb = same_outputs.run_stage(["--help"], tmp_path, env, out)
    text = out.read_bytes()
    assert text.startswith(b"usage:") and text.endswith(b"\nexit 0\n")
    assert wall > 0.0 and rss_mb > 1.0


def test_build_byte_compiles_the_tree(tmp_path):
    """Both trees are compiled before their stages run, so neither pays
    for a stale __pycache__; a tree that does not compile stops the tool."""
    module = tmp_path / "src" / "pkg" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text("X = 1\n")
    same_outputs.build(tmp_path / "src")
    assert Path(importlib.util.cache_from_source(str(module))).is_file()
    (module.parent / "bad.py").write_text("X = (1,\n")
    with pytest.raises(SystemExit):
        same_outputs.build(tmp_path / "src")

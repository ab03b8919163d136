"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench
"""

import sys
import threading
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import ID, NAME, TID, Tracer, instrument, self_times  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tracer = Tracer(clock)

    def leaf(dt):
        clock.now += dt

    def middle():
        clock.now += 1.0
        leaf_t(2.0)
        clock.now += 0.5
        leaf_t(3.0)

    def outer():
        middle_t()
        clock.now += 4.0

    leaf_t = tracer.wrap("leaf", leaf)
    middle_t = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    selfs = self_times(tracer.spans)
    by_name = {}
    for sp in tracer.spans:
        by_name.setdefault(sp[NAME], []).append(selfs[sp[ID]])
    assert sorted(by_name["leaf"]) == [2.0, 3.0]
    assert by_name["middle"] == [1.5]
    assert by_name["outer"] == [4.0]


def test_self_time_ignores_spans_of_other_threads():
    # span = (id, name, start, end, parent, thread id, ok)
    spans = [
        (1, "window", 0.0, 10.0, None, 100, True),
        (2, "solve", 1.0, 3.0, 1, 100, True),
        # worker-thread spans overlap the window but are not its children
        (3, "node", 2.0, 8.0, None, 200, True),
        (4, "inner", 2.5, 4.5, 3, 200, True),
        (5, "node", 3.0, 9.0, None, 300, True),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 8.0, 2: 2.0, 3: 4.0, 4: 2.0, 5: 6.0}


def test_spans_keep_per_thread_parents():
    tracer = Tracer()
    worker = tracer.wrap("worker", lambda: None)

    def spawn():
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    tracer.wrap("caller", spawn)()
    spans = {sp[NAME]: sp for sp in tracer.spans}
    assert spans["worker"][4] is None
    assert spans["worker"][TID] != spans["caller"][TID]


def test_pool_busy_share_from_worker_spans():
    main = 1
    trace = {"main_thread": main, "spans": [
        (1, "solver.picard_window", 0.0, 10.0, None, main, True),
        (2, "solver.assemble_F", 0.0, 4.0, None, 7, True),
        (3, "solver.solve_lapse", 4.0, 5.0, None, 7, True),
        (4, "solver.assemble_F", 0.0, 6.0, None, 8, True),
    ]}
    facts = {"sweeps": 1, "threads": 2, "levels": 3, "foliation_bytes": 1,
             "dataset_bytes": 1, "overhead_s": 0.0}
    out = layers.layer_metrics([trace], facts)
    assert list(out) == list(layers.UNITS)
    assert out["solver.pool_busy_share"] == (5.0 + 6.0) / (2 * 10.0)
    assert out["solver.assemble_F.calls"] == 2
    assert out["solver.window_accept_ratio"] == 1.0
    assert out["comparison.reconstruct.calls"] == 0


def _bindings():
    """Every attribute of every nullfoliate module and class, by identity."""
    snap = {}
    for modname, mod in list(sys.modules.items()):
        if mod is None or not modname.startswith("nullfoliate"):
            continue
        for attr, value in vars(mod).items():
            snap[(modname, attr)] = value
            if isinstance(value, type) and value.__module__ == modname:
                for cattr, cvalue in vars(value).items():
                    snap[(modname, attr, cattr)] = cvalue
    return snap


def test_instrument_rebinds_imported_names_and_restores_them():
    from nullfoliate import cli  # noqa: F401  (loads every module)
    from nullfoliate import diagnostics, geodesic, solver, sphere, tensors
    before = _bindings()
    original_multiply = sphere.multiply
    tracer = Tracer()
    with instrument(tracer, layers.targets(), layers.PACKAGE):
        # names imported with `from .sphere import multiply` are rebound too
        assert tensors.multiply is sphere.multiply
        assert sphere.multiply is not original_multiply
        assert diagnostics.reconstruct is not before[
            ("nullfoliate.diagnostics", "reconstruct")]
        assert geodesic.interp_generator is sphere.interp_generator
        assert sphere.barycentric_interp is not before[
            ("nullfoliate.sphere", "barycentric_interp")]
        assert solver.Foliation.__dict__["load"] is not before[
            ("nullfoliate.solver", "Foliation", "load")]
        changed = [k for k, v in _bindings().items() if before.get(k) is not v]
        assert changed
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_instrument_restores_after_an_error():
    mod = types.ModuleType("fakepkg")
    sub = types.ModuleType("fakepkg.user")
    mod.f = sub.f = lambda: 1
    original = mod.f
    sys.modules.update({"fakepkg": mod, "fakepkg.user": sub})
    try:
        try:
            with instrument(Tracer(), {"fakepkg.f": (mod, "f")}, "fakepkg"):
                assert mod.f is not original and sub.f is mod.f
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert mod.f is original and sub.f is original
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.user"]


def test_failing_output_check_increments_failed_share(tmp_path):
    tally = run.Tally()
    deadline = run.time.monotonic() + 60
    ok_argv = [sys.executable, "-c", "print('fine')"]

    _, ok = run.run_checked(tally, "good", ok_argv, tmp_path / "a.log",
                            deadline, lambda r: [])
    assert ok and tally.failed == 0 and tally.failed_share == 0.0

    _, ok = run.run_checked(tally, "wrong answer", ok_argv, tmp_path / "b.log",
                            deadline, lambda r: ["max|Omega-1| too large"])
    assert not ok and tally.failed == 1 and tally.failed_share == 0.5

    crash = [sys.executable, "-c", "raise SystemExit(3)"]
    checked = []
    _, ok = run.run_checked(tally, "crash", crash, tmp_path / "c.log",
                            deadline, lambda r: checked.append(r) or [])
    assert not ok and checked == []
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.problems[-1] == "crash: exit code 3"


def test_schwarzschild_verify_fail_is_a_failed_check(tmp_path):
    rep = tmp_path / "rep"
    rep.mkdir()
    (rep / "verify_summary.json").write_text(
        '{"constraint": {"pass": {"gauss": false}, "worst": {"gauss": "1"}},'
        ' "transport": {"pass": {"loverline": true},'
        ' "worst": {"loverline": "0"}}}')
    w = run.WORKLOADS["schw-L15-certify"]
    problems = run.check_verify(w, rep, "verification FAIL: ...", None)
    assert problems == ["Schwarzschild verification FAIL"]

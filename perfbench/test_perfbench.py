"""Tests of the benchmark harness's own logic.

    python3 -m pytest perfbench

The last two tests run the benchmark as a subprocess on the csp-n40
workload (about half a minute together).
"""

import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

from nbrefute import certify, instances  # noqa: E402

import harness  # noqa: E402
import soundness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # outer [0, 10] > a [1, 4] > a1 [2, 3];  outer > b [5, 6]
    tracer = spans.Tracer([], clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    outer = tracer.begin("outer")
    a = tracer.begin("a")
    a1 = tracer.begin("a1")
    tracer.end(a1)
    tracer.end(a)
    b = tracer.begin("b")
    tracer.end(b)
    tracer.end(outer)
    st = spans.self_times(tracer.spans)
    assert st[id(outer)] == 10 - 3 - 1
    assert st[id(a)] == 3 - 1
    assert st[id(a1)] == 1
    assert st[id(b)] == 1
    assert a1.parent is a and b.parent is outer


def test_self_time_counts_overlapping_children_once():
    parent = spans.Span("p", 0.0, None, None)
    parent.end = 10.0
    kids = []
    for lo, hi in ((1.0, 4.0), (3.0, 6.0), (8.0, 9.0)):
        c = spans.Span("c", lo, parent, None)
        c.end = hi
        kids.append(c)
    st = spans.self_times([parent] + kids)
    assert st[id(parent)] == pytest.approx(10.0 - 5.0 - 1.0)


def _fake_module():
    mod = types.ModuleType("fakepkg.layer")
    exec(
        "import math\n"
        "from math import sqrt\n"
        "def outer(x):\n"
        "    return inner(x) + _private(x)\n"
        "def inner(x):\n"
        "    return x + 1\n"
        "def _private(x):\n"
        "    return 2 * x\n",
        mod.__dict__)
    return mod


def test_tracer_sees_calls_inside_the_module_and_restores_it():
    mod = _fake_module()
    original = mod.inner
    tracer = spans.Tracer([mod])
    assert tracer.wrapped_names() == ["layer.inner", "layer.outer"]
    with tracer:
        tracer.op = "op-1"
        assert mod.outer(1) == 4
    assert mod.inner is original
    names = [(s.name, s.parent.name if s.parent else None, s.op)
             for s in tracer.spans]
    assert names == [("layer.outer", None, "op-1"),
                     ("layer.inner", "layer.outer", "op-1")]


def test_missing_layer_is_absent_not_a_failure():
    mod = _fake_module()
    tracer = spans.Tracer([mod])
    absent = harness.absent_layers(tracer)
    assert "refute.flatten" in absent and "cli.main.gen" in absent
    with tracer:
        assert mod.outer(0) == 1


def test_probe_time_is_not_parent_self_time():
    mod = types.ModuleType("fakepkg.refute")
    exec("def flatten(x):\n    return x\n"
         "def refute_xor(x):\n    return flatten(x)\n", mod.__dict__)
    fake = types.SimpleNamespace(dim=7)
    # refute_xor [0, 10] > flatten [1, 2] > probe [3, 8]
    tracer = spans.Tracer([mod], clock=FakeClock([0, 1, 2, 3, 8, 10]))
    with tracer:
        mod.refute_xor(fake)
    st = spans.self_times(tracer.spans)
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["refute.flatten"].probe == {"flatten_dim": 7}
    assert by_name[spans.PROBE_SPAN].parent is by_name["refute.refute_xor"]
    assert st[id(by_name["refute.refute_xor"])] == 10 - 1 - 5


@pytest.mark.parametrize("n", [8, 12, 16])
def test_local_search_never_exceeds_brute_force(n):
    rng = np.random.default_rng(n)
    tables = [instances.predicate_table("3sat"),
              instances.predicate_table("parity"),
              rng.integers(0, 2, size=8).astype(float)]
    for seed in range(3):
        I = instances.sample_kxor(n, 3, 0.3, seed)
        lb = soundness.lower_bound(I, seed)
        assert lb <= instances.brute_opt(I)
        for table in tables:
            J = instances.sample_csp(table, n, 3, 0.01, seed)
            if J.m == 0 or not table.any():
                continue
            assert soundness.lower_bound(J, seed) <= instances.csp_brute_opt(J)


def test_local_search_finds_the_optimum_of_a_satisfiable_instance():
    planted = np.random.default_rng(0).choice([-1.0, 1.0], size=14)
    I = instances.sample_kxor(14, 3, 0.2, 3)
    clauses = {t: float(np.prod(planted[list(t)])) for t in I.clauses}
    I = instances.XorInstance(14, 3, clauses)
    assert soundness.lower_bound(I, 0) == instances.brute_opt(I) == 1.0


def test_fail_counts_raise_invalid_and_unsound_bound():
    I = instances.sample_kxor(10, 3, 0.3, 1)
    good = workloads.refutation_op("good", I, z=8, local_search=True)
    low = workloads.refutation_op("low", I, z=8, local_search=True)
    low.lower_bound = 1.5          # above every bound U <= 1
    invalid = workloads.refutation_op("invalid", I, z=8, local_search=False)
    tampered = certify.Certificate(
        "xor_refutation", 10,
        [{"name": "x", "claim": "c", "value": 0.9, "method": "exact"}],
        final_bound=0.5)           # final_bound != last step: validate fails
    invalid.call = lambda state: tampered
    raising = workloads.Op("raising", "cert", lambda state: 1 / 0,
                           lambda result, state: {})
    good.lower_bound = soundness.lower_bound(I, 0)
    passes = [harness.run_pass([good, low, invalid, raising])]
    attempted, failed, errors = harness.check_passes(passes)
    assert (attempted, failed) == (4, 3)
    assert [e["op"] for e in errors] == ["low", "invalid", "raising"]
    assert "below the local-search lower bound" in errors[0]["error"]
    assert "validate() failed" in errors[1]["error"]
    assert "ZeroDivisionError" in errors[2]["error"]


def test_digest_change_between_passes_fails_the_op():
    I = instances.sample_kxor(10, 3, 0.3, 1)
    op = workloads.refutation_op("flaky", I, z=8, local_search=False)
    p1 = harness.run_pass([op])
    p2 = harness.run_pass([op])
    p2.records[0].result.steps[-1]["claim"] = "changed"
    attempted, failed, _ = harness.check_passes([p1, p2])
    assert (attempted, failed) == (2, 1)


def test_digest_ignores_timestamp_only():
    cert = {"kind": "x", "meta": {"z": 6, "timestamp": "now"}}
    same = {"kind": "x", "meta": {"z": 6, "timestamp": "later"}}
    other = {"kind": "x", "meta": {"z": 7}}
    assert soundness.digest(cert) == soundness.digest(same)
    assert soundness.digest(cert) != soundness.digest(other)


def _bench(trace, hashseed, cwd=ROOT):
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "csp-n40",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170)
    return out


def test_reruns_and_traced_runs_give_identical_certificates():
    runs = []
    for trace, hashseed in ((0, 1), (0, 2), (1, 3)):
        out = _bench(trace, hashseed)
        assert out.returncode == 0, out.stderr
        *_, report, line = out.stdout.splitlines()
        runs.append((json.loads(report)["report"], json.loads(line)))
    (r0, l0), (r1, l1), (rt, lt) = runs
    assert l0["correct"] and l1["correct"] and lt["correct"]
    assert len(r0["digests"]) == 3
    assert r0["digests"] == r1["digests"] == rt["digests"]
    for key in ("bound_median", "informative_frac"):
        assert l0["metrics"][key]["value"] == l1["metrics"][key]["value"]
        assert r0[key] == rt[key]
    assert set(lt["metrics"]) == {name for name, _ in harness.PER_LAYER}
    assert set(l0["metrics"]) == {name for name, _ in harness.END_TO_END}


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _bench(0, 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == harness.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == harness.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)

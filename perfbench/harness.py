"""Runs one workload: set-up, timed passes, checks, metrics.

A pass runs the workload's fixed op list once, in order, one op at a time
(a closed loop with a single caller; nothing queues, so there is no waiting
time to report). Passes repeat while the next one is predicted to fit in
the run's time budget, and at least one always runs. Results are checked
only after all passes, outside every timed region.
"""

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

import nbrefute
from nbrefute import certify, cli, instances, linalg, nonbacktracking
from nbrefute import refute, walks

import soundness
import spans
import workloads

MODULES = (instances, refute, certify, linalg, nonbacktracking, walks, cli)
SETUP_REPEATS = 16
WAITING = ("not applicable: each workload is one process running its ops "
           "one after another, so no op waits in a queue")

# (name, unit) of the metrics a run reports, in BENCHMARK.json's order.
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"), ("cert_s_p50", "s"),
    ("peak_rss_mb", "MB"), ("bound_median", "1"),
    ("informative_frac", "1"), ("ok_frac", "1"),
]
SELF_TIMED = [
    "certify.lambda_certificate", "certify.inf_to_one_certificate",
    "certify.audit", "refute.refute_xor", "refute.refute_csp",
    "refute.flatten", "refute.split", "refute.residual_bound",
    "refute.flatten_degree_d", "refute.specnorm_upper",
    "refute.audit_refutation", "instances.sample_kxor",
    "instances.sample_csp", "instances.brute_opt", "instances.csp_brute_opt",
    "linalg.spectral_radius_upper", "linalg.brute_inf_to_one",
    "nonbacktracking.build", "nonbacktracking.ihara_bass_residual",
    "walks.rho_B_experiment", "walks.count_canonical",
    "cli.main.gen", "cli.main.refute", "cli.main.audit",
]
PER_LAYER = ([(f"{name}.self_s", "s") for name in SELF_TIMED] + [
    ("certify.lambda_certificate.calls", "count"),
    ("certify.lambda", "1"),
    ("certify.route_edge", "count"),
    ("certify.route_companion", "count"),
    ("refute.flatten_dim", "count"),
    ("refute.nnz_main", "count"),
    ("refute.nnz_residual", "count"),
    ("refute.residual_share", "1"),
    ("nonbacktracking.oriented_edges", "count"),
    ("trace_overhead_s", "s"),
])


class OpRecord:
    """One execution of an op: its latency, result and verdict."""

    def __init__(self, op, latency, result=None, error=None):
        self.op = op
        self.latency = latency
        self.result = result
        self.error = error
        self.facts = {}


class Pass:
    def __init__(self, wall, records, state):
        self.wall = wall
        self.records = records
        self.state = state


def clear_package_caches():
    """Drop every function cache in the package, so each pass does the work
    a fresh process would."""
    for module in MODULES:
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def run_pass(ops, tracer=None):
    """Run every op once. An op that raises is recorded as failed and the
    pass goes on."""
    clear_package_caches()
    state = {}
    records = []
    start = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        t = time.perf_counter()
        try:
            result = op.call(state)
        except Exception:   # an op that raises is a failed op, not a crash
            records.append(OpRecord(op, time.perf_counter() - t,
                                    error=traceback.format_exc(limit=3)))
            continue
        records.append(OpRecord(op, time.perf_counter() - t, result=result))
    return Pass(time.perf_counter() - start, records, state)


def run_passes(ops, seconds, tracer=None):
    """Passes until the next one would end past `seconds` (at least one)."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, tracer))
        if time.perf_counter() - start + passes[-1].wall > seconds:
            return passes


def check_passes(passes):
    """Check every record; a result whose digest differs from the first
    pass's is failed too. Returns (attempted, failed, errors)."""
    first = {}
    attempted = failed = 0
    errors = []
    for p in passes:
        for rec in p.records:
            attempted += 1
            if rec.error is None:
                try:
                    rec.facts = rec.op.check(rec.result, p.state) or {}
                    d = rec.facts.get("digest")
                    if d is not None and first.setdefault(rec.op.name, d) != d:
                        raise soundness.CheckFailed(
                            "digest differs from the first pass")
                except soundness.CheckFailed as exc:
                    rec.error = f"check failed: {exc}"
                except Exception:   # a check that crashes fails its op
                    rec.error = traceback.format_exc(limit=3)
            if rec.error is not None:
                failed += 1
                errors.append({"op": rec.op.name, "error": rec.error})
    return attempted, failed, errors


def median(values):
    return float(statistics.median(values)) if values else None


def attach_lower_bounds(ops, seed):
    for i, op in enumerate(ops):
        if op.instance is not None:
            op.lower_bound = soundness.lower_bound(
                op.instance, workloads.sub_seed(seed, 500, i))


def fingerprint(root):
    """Machine, BLAS and source version the numbers were measured on."""
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError):
        blas = {"name": "unknown", "version": "unknown"}
    blas["threads"] = os.environ.get("OPENBLAS_NUM_THREADS")
    return {
        "cores": len(os.sched_getaffinity(0)),
        "caches": caches,
        "blas": blas,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nbrefute": nbrefute.__version__,
        "commit": git_commit(root),
    }


def git_commit(root):
    """HEAD's commit id, or "unknown" outside a git checkout. git does not
    look for a repository above `root`."""
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, env=env,
                             timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def setup_time(name, seed):
    """Wall time of one fresh process that starts, imports numpy and the
    package, samples the workload's inputs, warms up and exits: the set-up
    a user pays on every command, each time from a cold process."""
    run_py = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "run.py")
    argv = [sys.executable, run_py, "--workload", name, "--seed", str(seed),
            "--seconds", "0", "--setup-only"]
    # No timeout: with one, subprocess polls the child every 50 ms and the
    # time reads in 50 ms steps. The parent has already run this set-up.
    t = time.perf_counter()
    subprocess.run(argv, check=True)
    return time.perf_counter() - t


def set_up(name, seed, workdir, tracer=None):
    """Sample the workload's inputs and warm up; returns the ops. With a
    tracer, sampling is traced under the op id "setup"."""
    if tracer is None:
        ops = workloads.WORKLOADS[name](seed, workdir)
    else:
        tracer.op = "setup"
        with tracer:
            ops = workloads.WORKLOADS[name](seed, workdir)
    workloads.warm_up()
    return ops


def outcome_metrics(passes):
    """Bound quality and latencies from the untraced passes."""
    cert = [r for p in passes for r in p.records if r.op.kind == "cert"]
    audit = [r for p in passes for r in p.records if r.op.kind == "audit"]
    first = [r for r in passes[0].records
             if r.op.kind == "cert" and "bound" in r.facts]
    bounds = [r.facts["bound"] for r in first]
    return {
        "wall_s": median([p.wall for p in passes]),
        "cert_s_p50": median([r.latency for r in cert]),
        "cert_samples": len(cert),
        "audit_s_p50": median([r.latency for r in audit]),
        "audit_samples": len(audit),
        "bound_median": median(bounds),
        "informative_frac": (sum(r.facts["informative"] for r in first)
                             / len(first)) if first else None,
        "residual_share": median([r.facts["residual_share"] for r in first
                                  if r.facts.get("residual_share")
                                  is not None]),
    }


def layer_metrics(tracer, n_passes):
    """Per-layer numbers from the traced set-up and traced passes: self time
    and calls per pass (set-up counted once), probe values as medians."""
    all_spans = tracer.spans
    self_t = spans.self_times(all_spans)
    edge_parents = spans.ancestors_of(all_spans, "nonbacktracking.build")
    totals = {}
    calls = {}
    probes = {}
    routes = {"edge": 0, "companion": 0}
    for s in all_spans:
        weight = 1.0 if s.op == "setup" else 1.0 / n_passes
        totals[s.name] = totals.get(s.name, 0.0) + weight * self_t[id(s)]
        calls[s.name] = calls.get(s.name, 0.0) + weight
        for key, value in (s.probe or {}).items():
            probes.setdefault(key, []).append(value)
        if s.name == "certify.lambda_certificate":
            route = "edge" if id(s) in edge_parents else "companion"
            routes[route] += weight
    out = {f"{name}.self_s": totals.get(name, 0.0) for name in SELF_TIMED}
    out["certify.lambda_certificate.calls"] = calls.get(
        "certify.lambda_certificate", 0.0)
    out["certify.lambda"] = median(probes.get("lambda", []))
    out["certify.route_edge"] = routes["edge"]
    out["certify.route_companion"] = routes["companion"]
    for key in ("flatten_dim", "nnz_main", "nnz_residual"):
        out[f"refute.{key}"] = median(probes.get(key, []))
    out["nonbacktracking.oriented_edges"] = (
        sum(probes.get("oriented_edges", [])) / n_passes)
    table = {name: {"self_s": totals[name], "calls": calls[name]}
             for name in sorted(totals)}
    return out, table


def absent_layers(tracer):
    """Layer metrics whose function the package does not (or no longer)
    define as a public module attribute; they read 0."""
    wrapped = set(tracer.wrapped_names())
    return [name for name in SELF_TIMED
            if name not in wrapped
            and not (name.startswith("cli.main.") and "cli.main" in wrapped)]


def run(name, seed, seconds, trace, root, workdir):
    """Run workload `name` and return (result line, report). The CLI ops
    write their files under `workdir`."""
    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer(MODULES) if trace else None
    ops = set_up(name, seed, workdir, tracer)
    attach_lower_bounds(ops, seed)
    budget = seconds / 2.0 if trace else seconds
    # Half the cold starts run before the timed passes and half after, so
    # their median spans the run instead of its first seconds.
    half = 0 if trace else SETUP_REPEATS // 2
    setups = [setup_time(name, seed) for _ in range(half)]
    plain = run_passes(ops, budget)
    setups += [setup_time(name, seed) for _ in range(half)]
    traced = []
    if trace:
        with tracer:
            traced = run_passes(ops, budget, tracer)
    attempted, failed, errors = check_passes(plain + traced)
    outcome = outcome_metrics(plain)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "fingerprint": fingerprint(root),
        "passes": len(plain), "pass_wall_s": [p.wall for p in plain],
        "setup_repeat_s": setups,
        "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted,
        "errors": errors[:10],
        "digests": {r.op.name: r.facts["digest"] for r in plain[0].records
                    if "digest" in r.facts},
        "lower_bounds": {op.name: op.lower_bound for op in ops
                         if op.lower_bound is not None},
        "waiting": WAITING,
    }
    report.update(outcome)
    if trace:
        values, table = layer_metrics(tracer, len(traced))
        values["refute.residual_share"] = outcome["residual_share"]
        values["trace_overhead_s"] = (median([p.wall for p in traced])
                                      - outcome["wall_s"])
        report.update({"traced_passes": len(traced),
                       "traced_pass_wall_s": [p.wall for p in traced],
                       "absent_layers": absent_layers(tracer),
                       "spans": table})
        metrics = {key: {"value": values[key] if values[key] is not None
                         else 0.0, "unit": unit} for key, unit in PER_LAYER}
    else:
        values = dict(outcome, setup_s=median(setups), peak_rss_mb=rss_mb,
                      ok_frac=1.0 - failed / attempted)
        metrics = {key: {"value": values[key], "unit": unit}
                   for key, unit in END_TO_END}
    line = {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
    return line, report

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nbrefute import (certify, cli, instances, linalg, nonbacktracking,
                      refute, walks)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_xor_is_deterministic(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, stdout, _ = run(capsys, "gen", "--kind", "xor", "--n", "12",
                          "--p", "0.3", "--seed", "5", "--out", str(out))
    assert code == 0
    assert "kind=xor" in stdout
    first = out.read_bytes()
    code, _, _ = run(capsys, "gen", "--kind", "xor", "--n", "12",
                     "--p", "0.3", "--seed", "5", "--out", str(out))
    assert code == 0
    assert out.read_bytes() == first
    d = json.loads(first)
    assert d["kind"] == "xor" and d["n"] == 12


def test_gen_rejects_bad_arity(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, _, stderr = run(capsys, "gen", "--kind", "xor", "--n", "2",
                          "--p", "0.3", "--out", str(out))
    assert code == 2
    assert "exceeds variable count" in stderr


def test_gen_csp_with_predicate(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "--kind", "csp", "--n", "10",
                     "--p", "0.001", "--seed", "3", "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    assert d["kind"] == "csp"
    assert d["truth_table"] == [0, 1, 1, 1, 1, 1, 1, 1]


def test_gen_csp_truth_table_override(tmp_path, capsys):
    out = tmp_path / "inst.json"
    code, _, _ = run(capsys, "gen", "--kind", "csp", "--n", "8",
                     "--p", "0.001", "--truth-table", "0,1,1,0,1,0,0,1",
                     "--out", str(out))
    assert code == 0
    d = json.loads(out.read_text())
    assert d["truth_table"] == [0, 1, 1, 0, 1, 0, 0, 1]


def test_refute_sound_mode(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run(capsys, "gen", "--kind", "xor", "--n", "12", "--p", "0.3",
        "--seed", "1", "--out", str(inst))
    code, stdout, _ = run(capsys, "refute", "--in", str(inst),
                          "--out", str(cert))
    assert code == 0
    assert "bound=" in stdout
    d = json.loads(cert.read_text())
    assert d["kind"] == "xor_refutation"
    assert d["sound"] is True
    assert "timestamp" in d["meta"]
    assert d["meta"]["mode"] == "gelfand"


def test_refute_has_no_mode_option(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "gen", "--kind", "xor", "--n", "12", "--p", "0.3",
        "--seed", "1", "--out", str(inst))
    with pytest.raises(SystemExit) as exc:
        cli.main(["refute", "--in", str(inst), "--mode", "estimate",
                  "--out", str(tmp_path / "cert.json")])
    assert exc.value.code == 2


def test_refute_rerun_identical_up_to_timestamp(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    run(capsys, "gen", "--kind", "xor", "--n", "12", "--p", "0.3",
        "--seed", "2", "--out", str(inst))
    certs = []
    for name in ("a.json", "b.json"):
        cert = tmp_path / name
        code, _, _ = run(capsys, "refute", "--in", str(inst),
                         "--out", str(cert))
        assert code == 0
        certs.append(json.loads(cert.read_text()))
    for d in certs:
        d["meta"].pop("timestamp")
    assert certs[0] == certs[1]


def test_refute_csp_instance(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run(capsys, "gen", "--kind", "csp", "--n", "10", "--p", "0.002",
        "--seed", "4", "--out", str(inst))
    code, _, _ = run(capsys, "refute", "--in", str(inst), "--out", str(cert))
    assert code == 0
    assert json.loads(cert.read_text())["kind"] == "csp_refutation"


def test_audit_roundtrip(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run(capsys, "gen", "--kind", "xor", "--n", "12", "--p", "0.3",
        "--seed", "1", "--out", str(inst))
    run(capsys, "refute", "--in", str(inst), "--out", str(cert))
    code, stdout, _ = run(capsys, "audit", "--in", str(inst),
                          "--cert", str(cert))
    assert code == 0
    report = json.loads(stdout)
    assert report["passed"] is True


def test_audit_detects_tampering(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run(capsys, "gen", "--kind", "xor", "--n", "12", "--p", "0.3",
        "--seed", "1", "--out", str(inst))
    run(capsys, "refute", "--in", str(inst), "--out", str(cert))
    d = json.loads(cert.read_text())
    d["final_bound"] = 0.01
    d["steps"][-1]["value"] = 0.01
    cert.write_text(json.dumps(d))
    code, stdout, _ = run(capsys, "audit", "--in", str(inst),
                          "--cert", str(cert))
    assert code == 3
    assert json.loads(stdout)["passed"] is False


def test_audit_infeasible_instance(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run(capsys, "gen", "--kind", "xor", "--n", "40", "--p", "0.02",
        "--seed", "1", "--out", str(inst))
    code, _, _ = run(capsys, "refute", "--in", str(inst), "--out", str(cert))
    assert code == 0
    code, stdout, _ = run(capsys, "audit", "--in", str(inst),
                          "--cert", str(cert))
    assert code == 4
    assert json.loads(stdout)["auditable"] is False


@pytest.mark.parametrize("kind, p, field", [("xor", "0.3", "clauses"),
                                           ("csp", "0.01", "constraints")])
def test_audit_empty_instance_is_bad_input(tmp_path, capsys, kind, p, field):
    # the oracle has nothing to evaluate: bad input, not a size refusal
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run(capsys, "gen", "--kind", kind, "--n", "8", "--p", p,
        "--seed", "1", "--out", str(inst))
    code, _, _ = run(capsys, "refute", "--in", str(inst), "--out", str(cert))
    assert code == 0
    d = json.loads(inst.read_text())
    d[field] = []
    inst.write_text(json.dumps(d))
    code, stdout, stderr = run(capsys, "audit", "--in", str(inst),
                               "--cert", str(cert))
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: no {field} to evaluate\n"


def test_audit_unknown_kind_is_bad_input(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "mystery"}))
    cert = tmp_path / "cert.json"
    cert.write_text("{}")
    code, _, stderr = run(capsys, "audit", "--in", str(inst),
                          "--cert", str(cert))
    assert code == 2
    assert "unknown instance kind" in stderr


@pytest.mark.parametrize("folder", ["plain", "infeasible-cases"])
def test_malformed_instance_is_exit_2_in_any_folder(tmp_path, capsys, folder):
    # exit 4 goes by the error's type, not by the word "infeasible" in
    # its message, which here would come from the path
    inst = tmp_path / folder / "inst.json"
    inst.parent.mkdir()
    inst.write_text(json.dumps({"kind": "xor", "n": 5}))
    code, _, stderr = run(capsys, "refute", "--in", str(inst),
                          "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert stderr.startswith("error: malformed instance")


def test_instance_kind_named_infeasible_is_exit_2(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"kind": "infeasible"}))
    code, _, stderr = run(capsys, "refute", "--in", str(inst),
                          "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert stderr == f"error: unknown instance kind 'infeasible' in {inst}\n"


@pytest.mark.parametrize("entry", ["bogus", "infeasible"])
def test_gen_bad_truth_table_entry_is_exit_2(tmp_path, capsys, entry):
    code, _, stderr = run(capsys, "gen", "--kind", "csp", "--n", "5",
                          "--p", "0.1", "--truth-table", f"{entry},1",
                          "--out", str(tmp_path / "inst.json"))
    assert code == 2
    assert f"'{entry}'" in stderr


@pytest.mark.parametrize("call", [
    lambda: instances.brute_opt(
        instances.XorInstance(30, 3, {(0, 1, 2): 1.0})),
    lambda: linalg.brute_inf_to_one(np.zeros((25, 2))),
    lambda: linalg.real_eigenvalues(np.zeros((2, 2))),
    lambda: nonbacktracking.build(np.ones((3, 3)) - np.eye(3)),
    lambda: refute.refute_xor(
        instances.XorInstance(121, 3, {(0, 1, 2): 1.0})),
    lambda: walks.trace_walk_sum(np.ones((6, 6)) - np.eye(6), 1, 2),
    lambda: walks.nbw_power_entry(np.ones((6, 6)) - np.eye(6), (0, 1),
                                  (1, 2), 2),
    lambda: walks.count_canonical(1, 2, 7, 6, 1),
    lambda: walks._canonical_census.__wrapped__(1, 3, 4),
], ids=["cube", "inf_to_one", "eigensolve", "bundle", "swap_block",
        "trace", "entry", "census_caps", "census_states"])
def test_every_cap_refusal_is_infeasible(monkeypatch, call):
    # the walkers' shared cap is checked in test_walks
    monkeypatch.setattr(linalg, "EIG_DIM_CAP", 1)
    monkeypatch.setattr(walks, "ENUM_CAP", 2)
    with pytest.raises(linalg.Infeasible, match="infeasible"):
        call()


def _xor_files(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    cert = tmp_path / "cert.json"
    run(capsys, "gen", "--kind", "xor", "--n", "8", "--p", "0.3",
        "--seed", "1", "--out", str(inst))
    run(capsys, "refute", "--in", str(inst), "--z", "4", "--out", str(cert))
    return inst, cert


@pytest.mark.parametrize("command, target, field", [
    ("refute", "inst", "clauses"), ("refute", "inst", None),
    ("audit", "inst", "clauses"), ("audit", "inst", None),
    ("audit", "cert", "n"), ("audit", "cert", None)])
def test_malformed_file_is_exit_2(tmp_path, capsys, command, target, field):
    # valid JSON that is not an instance or certificate object: a missing
    # field, or a top-level list (field None)
    inst, cert = _xor_files(tmp_path, capsys)
    path = inst if target == "inst" else cert
    d = json.loads(path.read_text())
    if field is None:
        d = [d]
    else:
        del d[field]
    path.write_text(json.dumps(d))
    if command == "refute":
        argv = ["refute", "--in", str(inst), "--out", str(tmp_path / "o")]
    else:
        argv = ["audit", "--in", str(inst), "--cert", str(cert)]
    code, _, stderr = run(capsys, *argv)
    assert code == 2
    assert stderr.startswith("error: malformed")


@pytest.mark.parametrize("field, value", [
    ("sound", "false"), ("sound", "no"), ("sound", 0), ("sound", None),
    ("informative", "yes"), ("informative", 1)])
def test_audit_non_boolean_flag_is_exit_2(tmp_path, capsys, field, value):
    # bool("false") is True: a flag that is not a JSON boolean must not
    # load as one
    inst, cert = _xor_files(tmp_path, capsys)
    d = json.loads(cert.read_text())
    d[field] = value
    cert.write_text(json.dumps(d))
    code, stdout, stderr = run(capsys, "audit", "--in", str(inst),
                               "--cert", str(cert))
    assert code == 2
    assert stdout == ""
    assert f"certificate field '{field}' is not a boolean" in stderr


@pytest.mark.parametrize("method, sound, message", [
    ("gelfand", True, "certificate field 'sound' is True, but"),
    ("gelfand", False, "unknown step method 'gelfand'"),
    ("eigensolve", True, "certificate field 'sound' is True, but"),
    ("exact", False, "certificate field 'sound' is False, but")])
def test_audit_old_step_or_wrong_sound_is_exit_2(tmp_path, capsys, method,
                                                 sound, message):
    # a gelfand step or a sound flag the steps do not give is bad input
    inst, cert = _xor_files(tmp_path, capsys)
    d = json.loads(cert.read_text())
    d["steps"][-1]["method"] = method
    d["sound"] = sound
    cert.write_text(json.dumps(d))
    code, stdout, stderr = run(capsys, "audit", "--in", str(inst),
                               "--cert", str(cert))
    assert code == 2
    assert stdout == ""
    assert message in stderr


def _csp_file(tmp_path, capsys):
    inst = tmp_path / "csp.json"
    run(capsys, "gen", "--kind", "csp", "--n", "8", "--p", "0.05",
        "--seed", "1", "--out", str(inst))
    return inst


@pytest.mark.parametrize("kind, field, value", [
    ("xor", "n", 8.9), ("xor", "k", "3"), ("xor", "vars", 0.9),
    ("xor", "weight", True), ("xor", "weight", "-1"),
    ("csp", "n", True), ("csp", "vars", 2.5), ("csp", "neg", -1.2),
    ("csp", "truth_table", True), ("csp", "truth_table", "1")])
def test_refute_non_integral_instance_field_is_exit_2(tmp_path, capsys, kind,
                                                      field, value):
    # each value once loaded, truncated or converted, as another instance
    inst = (_xor_files(tmp_path, capsys)[0] if kind == "xor"
            else _csp_file(tmp_path, capsys))
    d = json.loads(inst.read_text())
    items = d["clauses" if kind == "xor" else "constraints"]
    if field in ("n", "k"):
        d[field] = value
    elif field == "truth_table":
        d[field][1] = value
    elif field == "weight":
        items[0][field] = value
    else:
        items[0][field][1] = value
    inst.write_text(json.dumps(d))
    code, _, stderr = run(capsys, "refute", "--in", str(inst),
                          "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert f"instance field '{field}' holds {value!r}, not " in stderr


@pytest.mark.parametrize("kind, field", [
    ("xor", "vars"), ("csp", "vars"), ("csp", "neg")])
def test_refute_integer_past_int64_is_exit_2(tmp_path, capsys, kind, field):
    # an index or sign of 10**20 once crashed the int64 conversion with an
    # uncaught OverflowError (exit 1)
    inst = (_xor_files(tmp_path, capsys)[0] if kind == "xor"
            else _csp_file(tmp_path, capsys))
    d = json.loads(inst.read_text())
    d["clauses" if kind == "xor" else "constraints"][1][field][1] = 10 ** 20
    inst.write_text(json.dumps(d))
    code, stdout, stderr = run(capsys, "refute", "--in", str(inst),
                               "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: row 1 (")
    assert "100000000000000000000" in stderr
    assert stderr.endswith(" overflows int64\n")


def test_refute_variable_count_past_int64_is_exit_4(tmp_path, capsys):
    # n is a plain int: the swap block's cap refuses it by size
    inst, _ = _xor_files(tmp_path, capsys)
    d = json.loads(inst.read_text())
    d["n"] = 10 ** 20
    inst.write_text(json.dumps(d))
    code, _, stderr = run(capsys, "refute", "--in", str(inst),
                          "--out", str(tmp_path / "o.json"))
    assert code == 4
    assert "exceeds cap" in stderr


@pytest.mark.parametrize("value", ["abc", True])
def test_audit_non_numeric_step_value_is_exit_2(tmp_path, capsys, value):
    inst, cert = _xor_files(tmp_path, capsys)
    d = json.loads(cert.read_text())
    d["steps"][0]["value"] = value
    cert.write_text(json.dumps(d))
    code, _, stderr = run(capsys, "audit", "--in", str(inst),
                          "--cert", str(cert))
    assert code == 2
    assert "is not a number" in stderr


def test_refute_non_finite_weight_is_exit_2(tmp_path, capsys):
    # a NaN weight once reached the eigensolver ("Eigenvalues did not
    # converge")
    inst, _ = _xor_files(tmp_path, capsys)
    d = json.loads(inst.read_text())
    d["clauses"][0]["weight"] = float("nan")
    inst.write_text(json.dumps(d))
    assert '"weight": NaN' in inst.read_text()
    code, _, stderr = run(capsys, "refute", "--in", str(inst),
                          "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert "has non-finite weight nan" in stderr


def test_refute_repeated_clause_is_exit_2(tmp_path, capsys):
    inst, _ = _xor_files(tmp_path, capsys)
    d = json.loads(inst.read_text())
    clause = d["clauses"][0]
    d["clauses"].append({"vars": clause["vars"], "weight": -clause["weight"]})
    inst.write_text(json.dumps(d))
    code, _, stderr = run(capsys, "refute", "--in", str(inst),
                          "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert stderr.endswith(" appears more than once\n")


def test_linalg_error_is_exit_2(tmp_path, capsys, monkeypatch):
    # LinAlgError is a ValueError, so a failed factorization is bad input
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    inst, _ = _xor_files(tmp_path, capsys)
    monkeypatch.setattr(refute, "refute_xor", fail)
    code, _, stderr = run(capsys, "refute", "--in", str(inst),
                          "--out", str(tmp_path / "o.json"))
    assert code == 2
    assert stderr == "error: Matrix is not positive definite\n"


def _console(*argv):
    # a fresh interpreter under a timeout, so an argument that makes the
    # command loop forever fails the test instead of hanging the suite
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "nbrefute.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=60)


@pytest.mark.parametrize("argv", [
    ("check-identity", "--n", "1"),
    ("check-identity", "--n", "0"),
    ("check-identity", "--trials", "0"),
    ("check-identity", "--trials", "-3"),
    ("walks", "--experiment", "rho", "--seeds", "0"),
])
def test_degenerate_arguments_are_exit_2(argv):
    proc = _console(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: --")


def test_missing_file_is_exit_2(tmp_path, capsys):
    code, _, stderr = run(capsys, "refute", "--in",
                          str(tmp_path / "absent.json"),
                          "--out", str(tmp_path / "cert.json"))
    assert code == 2
    assert "error" in stderr


def test_invalid_json_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, stderr = run(capsys, "refute", "--in", str(bad),
                          "--out", str(tmp_path / "cert.json"))
    assert code == 2
    assert "invalid JSON" in stderr


def test_check_identity(capsys):
    code, stdout, _ = run(capsys, "check-identity", "--n", "5",
                          "--trials", "10", "--seed", "1")
    assert code == 0
    assert "max residual over 10 trials at n=5" in stdout
    residual = float(stdout.strip().rsplit(" ", 1)[-1])
    assert residual <= 1e-8


def test_check_identity_over_the_bundle_cap_is_exit_4(capsys, monkeypatch):
    monkeypatch.setattr(linalg, "EIG_DIM_CAP", 1)
    code, _, stderr = run(capsys, "check-identity", "--n", "5",
                          "--trials", "1")
    assert code == 4
    assert stderr.startswith("error: bundle infeasible: ")
    assert stderr.endswith(" exceeds cap 1\n")


def test_walks_census_command(capsys):
    code, stdout, _ = run(capsys, "walks", "--experiment", "census",
                          "--q", "2", "--z", "2", "--t", "1",
                          "--v-max", "5")
    assert code == 0
    report = json.loads(stdout)
    assert report["q"] == 2 and report["z"] == 2
    assert {"v": 5, "e": 4, "count": 1} in report["counts"]


def test_walks_census_infeasible(capsys):
    code, _, stderr = run(capsys, "walks", "--experiment", "census",
                          "--q", "2", "--z", "8", "--t", "1")
    assert code == 4
    assert "infeasible" in stderr


def test_walks_rho_command(tmp_path, capsys):
    out = tmp_path / "rho.jsonl"
    code, stdout, _ = run(capsys, "walks", "--experiment", "rho",
                          "--n", "30", "--d", "3", "--seeds", "3",
                          "--out", str(out))
    assert code == 0
    assert "median rho/sqrt(d)" in stdout
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    for line in lines:
        record = json.loads(line)
        assert record["n"] == 30


def _csp_files(tmp_path, capsys):
    inst = tmp_path / "csp.json"
    cert = tmp_path / "csp-cert.json"
    run(capsys, "gen", "--kind", "csp", "--n", "8", "--predicate", "3sat",
        "--p", "0.05", "--seed", "1", "--out", str(inst))
    run(capsys, "refute", "--in", str(inst), "--z", "4", "--out", str(cert))
    return inst, cert


@pytest.mark.parametrize("instance_kind", ["xor", "csp"])
def test_audit_certificate_of_other_kind_is_exit_2(tmp_path, capsys,
                                                   instance_kind):
    # the oracle of one kind once read the other kind's instance and
    # crashed with an AttributeError
    xor_inst, xor_cert = _xor_files(tmp_path, capsys)
    csp_inst, csp_cert = _csp_files(tmp_path, capsys)
    inst, cert = ((xor_inst, csp_cert) if instance_kind == "xor"
                  else (csp_inst, xor_cert))
    code, stdout, stderr = run(capsys, "audit", "--in", str(inst),
                               "--cert", str(cert))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: cannot audit a ")


def test_audit_certificate_of_other_size_is_exit_2(tmp_path, capsys):
    _, cert = _xor_files(tmp_path, capsys)
    inst = tmp_path / "other.json"
    run(capsys, "gen", "--kind", "xor", "--n", "9", "--p", "0.3",
        "--seed", "1", "--out", str(inst))
    code, stdout, stderr = run(capsys, "audit", "--in", str(inst),
                               "--cert", str(cert))
    assert code == 2
    assert stdout == ""
    assert stderr == ("error: cannot audit a certificate for n = 8 "
                      "against an instance with n = 9\n")


def test_audit_norm_certificate_against_instance_is_exit_2(tmp_path,
                                                            capsys):
    # refused by kind, not read as a matrix (a TypeError would exit 1);
    # the sizes agree, so only the kind can refuse it
    inst, _ = _xor_files(tmp_path, capsys)
    cert = tmp_path / "norm.json"
    norm = certify.inf_to_one_certificate(np.ones((8, 8)) - np.eye(8))
    cert.write_text(json.dumps(norm.to_json_dict()))
    code, stdout, stderr = run(capsys, "audit", "--in", str(inst),
                               "--cert", str(cert))
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: cannot audit a 'inf_to_one' "
                             "certificate against a XorInstance")

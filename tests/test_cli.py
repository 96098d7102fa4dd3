import argparse
import ast
import dataclasses
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from driftlab import cli, verify
from driftlab.basis import Filtration, Partition, Process, SampleSpace, StoppingTime
from driftlab.cli import main
from driftlab.enlargement import EnlargedBasis, validate_enlargement
from driftlab.rational import Q, rat
from driftlab.serialize import (
    basis_to_json,
    dumps,
    horizon_to_json,
    instance_from_json,
    instance_to_json,
    process_to_json,
)
from reference import worked_four_point, worked_six_point


def write(path, doc):
    path.write_text(dumps(doc), encoding="utf-8")
    return str(path)


def read(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_validate_basis(tmp_path):
    six = worked_six_point()
    inp = write(tmp_path / "b.json", basis_to_json(six["eb"].space, six["eb"].base))
    out = tmp_path / "r.json"
    assert main(["validate", "--input", inp, "--output", str(out)]) == 0
    assert read(out)["ok"] is True


def test_validate_instance(tmp_path):
    six = worked_six_point()
    inp = write(tmp_path / "i.json", instance_to_json(six["eb"]))
    out = tmp_path / "r.json"
    assert main(["validate", "--input", inp, "--output", str(out)]) == 0
    assert read(out)["ok"] is True


def test_validate_flags_broken_instance(tmp_path):
    six = worked_six_point()
    doc = instance_to_json(six["eb"])
    doc["prob"] = ["1/2"] * 6  # mass 3, not 1
    inp = write(tmp_path / "bad.json", doc)
    out = tmp_path / "r.json"
    assert main(["validate", "--input", inp, "--output", str(out)]) == 3
    rep = read(out)
    assert rep["ok"] is False
    assert rep["errors"] == ["BAD_PROBABILITY: total mass != 1"]  # listed once
    assert rep["error"] == "VALIDATION_FAILED"


def test_requests_after_an_argument_error_are_unchanged(tmp_path):
    """The parser is built once per process; a failed parse leaves it usable."""
    six = worked_six_point()
    inp = write(tmp_path / "i.json", instance_to_json(six["eb"]))
    with pytest.raises(SystemExit) as exc:
        main(["check-viability", "--input", inp, "--no-such-flag"])
    assert exc.value.code == 2
    reports = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        assert main(["check-viability", "--input", inp, "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["verdict"] is True


def test_schema_errors_exit_2(tmp_path):
    out = tmp_path / "r.json"
    assert main(["validate", "--output", str(out)]) == 2
    assert read(out)["error"] == "SCHEMA_ERROR"
    bad = tmp_path / "x.json"
    bad.write_text("{{{", encoding="utf-8")
    assert main(["validate", "--input", str(bad), "--output", str(out)]) == 2


def test_an_unwritable_output_is_a_schema_error_on_stdout(tmp_path, capsys):
    """--output in a missing directory exits 2, reporting the path on stdout, for an
    --input command and a seeded one alike."""
    six = worked_six_point()
    inp = write(tmp_path / "i.json", instance_to_json(six["eb"]))
    out = str(tmp_path / "missing" / "r.json")
    for argv in (["check-viability", "--input", inp], ["generate", "--instances", "1"]):
        assert main([*argv, "--output", out]) == 2
        rep = json.loads(capsys.readouterr().out)
        assert rep["error"] == "SCHEMA_ERROR"
        assert out in rep["message"]
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command", ["validate", "check-viability"])
def test_an_input_that_is_not_utf8_is_a_schema_error(tmp_path, capsys, command):
    """An --input file that does not decode as UTF-8 exits 2 with a report naming it."""
    bad = tmp_path / "f.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main([command, "--input", str(bad)]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert rep["error"] == "SCHEMA_ERROR"
    assert str(bad) in rep["message"] and "UTF-8" in rep["message"]


@pytest.mark.parametrize("command", ["validate", "deflator", "check-viability"])
def test_deeply_nested_json_is_a_schema_error(tmp_path, command):
    """Nesting past the parser's recursion limit exits 2 with a report, not a traceback."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
    out = tmp_path / "r.json"
    assert main([command, "--input", str(deep), "--output", str(out)]) == 2
    rep = read(out)
    assert rep["error"] == "SCHEMA_ERROR"
    assert "recursion" in rep["message"]


@pytest.mark.parametrize("argv", [
    ["validate", "--horizon", "7"],
    ["kernel-eval", "--horizon", "1"],
    ["generate", "--horizon", "2"],
    ["verify-theorems", "--horizon", "2"],
    ["generate", "--input", "/nonexistent"],
    ["verify-theorems", "--input", "/nonexistent"],
    ["generate", "--workers", "4"],
    ["verify-theorems", "--workers", "2"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:2]))
def test_flags_a_command_ignores_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["verify-theorems", "--instances", "-3"],
    ["verify-theorems", "--instances", "0"],
    # verify-theorems has no --workers option any more; a worker count
    # below one is still refused, now as an unknown flag.
    ["verify-theorems", "--workers", "-2"],
    ["verify-theorems", "--workers", "0"],
    ["generate", "--instances", "-3"],
    ["generate", "--instances", "0"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_counts_below_one_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_drift_command(tmp_path):
    six = worked_six_point()
    doc = instance_to_json(six["eb"])
    X = six["asset"]  # positive martingale on this instance
    doc["process"] = process_to_json(X)
    inp = write(tmp_path / "d.json", doc)
    out = tmp_path / "r.json"
    assert main(["drift", "--input", inp, "--output", str(out)]) == 0
    got = read(out)["drift"]
    assert got["dim"] == 1
    from driftlab.enlargement import drift_operator
    want = drift_operator(six["eb"], X)
    import driftlab.serialize as ser
    assert ser.process_from_json(got, n=6, ticks=1) == want


def test_factors_command(tmp_path):
    six = worked_six_point()
    inp = write(tmp_path / "i.json", instance_to_json(six["eb"]))
    out = tmp_path / "r.json"
    assert main(["factors", "--input", inp, "--output", str(out)]) == 0
    rep = read(out)
    assert rep["support"]["ok"] is True
    assert rep["positivity"] is True
    assert rep["width"] == 2


def test_check_viability_six_point(tmp_path):
    six = worked_six_point()
    inp = write(tmp_path / "i.json", instance_to_json(six["eb"]))
    out = tmp_path / "r.json"
    assert main(["check-viability", "--input", inp, "--output", str(out)]) == 0
    rep = read(out)
    assert rep["verdict"] is True
    vals = {v for row in rep["deflator"]["values"] for vs in row for v in vs}
    assert vals == {"1/1", "3/4", "3/2"}


def test_check_viability_four_point(tmp_path):
    four = worked_four_point()
    inp = write(tmp_path / "i.json", instance_to_json(four["eb"]))
    out = tmp_path / "r.json"
    assert main(["check-viability", "--input", inp, "--output", str(out)]) == 0
    rep = read(out)
    assert rep["verdict"] is False
    assert rep["witness"]["atom"] == [3]
    assert rep["witness"]["certificate"]["status"] == "no-deflator"


def test_deflator_command(tmp_path):
    six = worked_six_point()
    doc = basis_to_json(six["eb"].space, six["eb"].base)
    doc["asset"] = process_to_json(six["asset"])
    inp = write(tmp_path / "a.json", doc)
    out = tmp_path / "r.json"
    assert main(["deflator", "--input", inp, "--output", str(out)]) == 0
    rep = read(out)
    assert rep["found"] is True
    assert "deflator" in rep
    assert rep["oracle"]["status"] == "deflator"


def test_deflator_refuses_a_connector_off_its_table(tmp_path, monkeypatch):
    """A found search whose assembled D leaves its own jump table exits 3; no connector is printed.

    The asset drifts, so the search finds a connector with nonzero jumps;
    Process.from_jump_table is then made to shift D by one at outcome 1,
    tick 1, which only the connector's path check can see.
    """
    six = worked_six_point()
    doc = basis_to_json(six["eb"].space, six["eb"].base)
    doc["asset"] = process_to_json(Process.from_scalar_paths(
        [[0, 1], [0, 1], [0, 1], [0, -2], [0, -2], [0, -2]]))
    inp = write(tmp_path / "a.json", doc)
    out = tmp_path / "r.json"
    build = Process.from_jump_table

    def shifted(n, filt, table, dim=1):
        rows = [list(row) for row in build(n, filt, table, dim).values]
        rows[1][1] = tuple(x + 1 for x in rows[1][1])
        return Process(dim, rows)

    monkeypatch.setattr(Process, "from_jump_table", staticmethod(shifted))
    assert main(["deflator", "--input", inp, "--output", str(out)]) == 3
    rep = read(out)
    assert rep["error"] == "INTERNAL_INVARIANT"
    assert rep["detail"] == {"reason": "jump-off-table", "outcome": 1, "tick": 1}
    assert "connector" not in rep


@pytest.mark.parametrize("command, edit, flags", [
    ("deflator", {}, ["--horizon", "-1"]),
    ("deflator", {"prob": ["1/1", "1/1"]}, []),
    ("deflator", {"horizon": [None, 0]}, []),
    ("deflator", {"asset": 3}, []),
    ("deflator", {"asset": "dim"}, []),
    ("deflator", {"asset": process_to_json(Process.from_scalar_paths([[1, 1], [0, 2]]))}, []),
    ("deflator", {"horizon": "x"}, ["--horizon", "1"]),
    ("deflator", {"horizon": [1]}, ["--horizon", "1"]),
    ("deflator", {"horizon": [True, 1]}, ["--horizon", "1"]),
    ("drift", {"process": None}, []),
], ids=["negative-horizon-flag", "total-mass-two", "horizon-not-a-stopping-time",
        "asset-number", "asset-string", "asset-not-adapted", "flag-over-bad-horizon-string",
        "flag-over-bad-horizon-length", "flag-over-bad-horizon-bool", "drift-process-null"])
def test_deflator_rejects_malformed_input(tmp_path, command, edit, flags):
    """Malformed deflator input, or a drift process that is no object, exits 2.

    The document's own horizon is checked even when --horizon overrides it.
    """
    top = Partition([[0, 1]])
    filt = Filtration(top, ((top, Partition([[0], [1]])),))
    space = SampleSpace(("u", "d"), ("1/2", "1/2"))
    X = process_to_json(Process.from_scalar_paths([[0, 1], [0, 2]]))
    if command == "deflator":
        doc = {**basis_to_json(space, filt), "asset": X}
    else:
        eb = EnlargedBasis(space, filt, filt, StoppingTime.constant(2, 1))
        doc = {**instance_to_json(eb), "process": X}
    doc.update(edit)
    inp = write(tmp_path / "a.json", doc)
    out = tmp_path / "r.json"
    assert main([command, "--input", inp, "--output", str(out)] + flags) == 2
    assert read(out)["error"] == "SCHEMA_ERROR"


def test_verify_theorems_deterministic(tmp_path):
    a, b = (tmp_path / n for n in ("a.json", "b.json"))
    argv = ["verify-theorems", "--seed", "9", "--instances", "16"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rep = read(a)
    assert rep["ok"] is True
    assert rep["instances"] == 16


def test_verify_theorems_rotates_seven_batteries(tmp_path):
    """Fourteen instances run each of the seven batteries twice; none is an accessible kernel."""
    out = tmp_path / "v.json"
    assert main(["verify-theorems", "--seed", "0", "--instances", "14",
                 "--output", str(out)]) == 0
    rep = read(out)
    assert rep["summary"] == {name: {"instances": 2, "failures": 0}
                              for name in ("connector-oracle", "drift-factorization",
                                           "full-viability", "jump-identity",
                                           "inaccessible-kernel", "density-crosscheck",
                                           "survival-crosscheck")}
    assert [r["battery"] for r in rep["results"]] == [name for name, _ in verify.BATTERIES] * 2


def _doubled_at(Z, i):
    """Z with outcome i's values doubled from tick 1 on."""
    rows = list(Z.values)
    rows[i] = rows[i][:1] + tuple(tuple(2 * v for v in x) for x in rows[i][1:])
    return Process(Z.dim, tuple(rows))


@pytest.mark.parametrize("outcome", range(4))
def test_batteries_refuse_a_deflator_doubled_at_one_outcome(monkeypatch, outcome):
    """A verdict or connector deflator off at one outcome fails its battery's recheck."""
    true_verdict, found = 2, 0  # seeds: a true verdict on 4 outcomes, a found connector
    assert verify.viability_battery(true_verdict)["ok"] is True
    assert verify.connector_oracle_battery(found)["ok"] is True
    real_verdict, real_deflator = verify.full_viability_verdict, verify.deflator_from_connector

    def doubled_verdict(eb, rep):
        report = real_verdict(eb, rep)
        return dataclasses.replace(report, deflator=_doubled_at(report.deflator, outcome))

    monkeypatch.setattr(verify, "full_viability_verdict", doubled_verdict)
    monkeypatch.setattr(verify, "deflator_from_connector",
                        lambda *args: _doubled_at(real_deflator(*args), outcome))
    out = verify.viability_battery(true_verdict)
    assert out["verdict"] is True
    assert out["reasons"] == ["common deflator fails its plain-arithmetic recheck on the driver"]
    out = verify.connector_oracle_battery(found)
    assert out["found"] is True
    assert out["reasons"] == ["deflator fails its plain-arithmetic recheck"]


@pytest.mark.parametrize("outcome", range(6))
def test_deflator_refuses_a_deflator_doubled_at_one_outcome(tmp_path, monkeypatch, outcome):
    """A printed deflator off at one outcome fails the command's recheck: exit 3, no deflator."""
    six = worked_six_point()
    doc = basis_to_json(six["eb"].space, six["eb"].base)
    doc["asset"] = process_to_json(six["asset"])
    inp = write(tmp_path / "a.json", doc)
    out = tmp_path / "r.json"
    real_deflator = cli.deflator_from_connector
    monkeypatch.setattr(cli, "deflator_from_connector",
                        lambda *args: _doubled_at(real_deflator(*args), outcome))
    assert main(["deflator", "--input", inp, "--output", str(out)]) == 3
    rep = read(out)
    assert rep["error"] == "INTERNAL_INVARIANT"
    assert rep["message"] == "deflator fails its plain-arithmetic recheck"
    assert "deflator" not in rep


def test_verify_theorems_forced(tmp_path):
    out = tmp_path / "f.json"
    assert main(["verify-theorems", "--seed", "4", "--instances", "8",
                 "--force-failure", "--output", str(out)]) == 0
    assert read(out)["force_failure"] is True


def test_verify_theorems_failure_reports_an_error(tmp_path, monkeypatch):
    """A failing battery exits 3 with an "error" beside "ok": false."""
    def failing(seed, instances, force_failure=False):
        result = {"battery": "jump-identity", "ok": False, "reasons": ["broken"]}
        return {"ok": False, "results": [result]}
    monkeypatch.setattr("driftlab.cli.run_verify", failing)
    out = tmp_path / "f.json"
    assert main(["verify-theorems", "--output", str(out)]) == 3
    rep = read(out)
    assert rep["ok"] is False
    assert rep["error"] == "BATTERY_FAILED"


def test_generate_round_trips(tmp_path):
    out = tmp_path / "g.json"
    assert main(["generate", "--seed", "21", "--instances", "6",
                 "--output", str(out)]) == 0
    rep = read(out)
    assert len(rep["instances"]) == 6
    for doc in rep["instances"]:
        eb = instance_from_json(doc)
        assert validate_enlargement(eb).ok


# An inaccessible event with two cells: q, the jump scales and phi are
# chosen, and qbar follows from the cell tilt identity.
INACCESSIBLE_EVENT = {
    "q": ["1/2", "1/4"],
    "qbar": ["1/2", "3/10"],
    "jump_scale": ["1/1", "2/1"],
    "base_coeff": ["1/2", "-1/1"],
    "pair_rows": [["1/1"], ["1/1"]],
    "drive_mean": ["1/1"],
    "phi": ["1/4"],
}


def test_kernel_eval_inaccessible(tmp_path):
    inp = write(tmp_path / "k.json", {"inaccessible": INACCESSIBLE_EVENT})
    out = tmp_path / "r.json"
    assert main(["kernel-eval", "--input", inp, "--output", str(out)]) == 0
    rep = read(out)
    assert rep["kind"] == "inaccessible"
    assert [rat(v) for v in rep["values"]] == [Q(3, 5), Q(-1, 2)]
    assert rep["reduced_equation"] == rep["quotient_identity"] == [True, True]


def test_kernel_eval_accessible(tmp_path):
    """kernel-eval has no accessible kind: an `accessible` document is a schema error."""
    doc = {"accessible": {
        "p": ["1/2", "1/2"],
        "pbar": ["3/4", "1/4"],
        "n_vals": [["1/1"], ["-1/1"]],
        "d_vals": ["0/1", "0/1"],
        "phi": ["1/2"],
    }}
    inp = write(tmp_path / "k.json", doc)
    out = tmp_path / "r.json"
    assert main(["kernel-eval", "--input", inp, "--output", str(out)]) == 2
    assert read(out)["error"] == "SCHEMA_ERROR"


def test_kernel_eval_rejects_tampered_data(tmp_path):
    doc = {"inaccessible": {**INACCESSIBLE_EVENT,
                            "qbar": ["3/10", "1/2"]}}  # tilt identity broken on purpose
    inp = write(tmp_path / "k.json", doc)
    out = tmp_path / "r.json"
    assert main(["kernel-eval", "--input", inp, "--output", str(out)]) == 3
    rep = read(out)
    assert rep["error"] == "DATA_INVARIANT_VIOLATED"


def test_removed_series_inputs_are_refused_and_weight_is_ignored(tmp_path):
    """No command diagnoses series, no kernel kind is `continuous`, no kernel reads `weight`.

    The argument parser refuses `diagnose-series`, the kernel loader refuses
    a `continuous` event, and an inaccessible event's `weight` is ignored
    like any other unknown field.
    """
    series = write(tmp_path / "s.json", {"jumps": [0.5, 0.25]})
    with pytest.raises(SystemExit) as exc:
        main(["diagnose-series", "--input", series])
    assert exc.value.code == 2
    out = tmp_path / "r.json"
    continuous = write(tmp_path / "c.json", {"continuous": {
        "base_coeff": ["1/1"], "pair_rows": [["1/1"]], "phi": ["1/2"]}})
    assert main(["kernel-eval", "--input", continuous, "--output", str(out)]) == 2
    assert read(out)["error"] == "SCHEMA_ERROR"
    reports = []
    for name, doc in (("plain", INACCESSIBLE_EVENT),
                      ("weighted", {**INACCESSIBLE_EVENT, "weight": "0/1"})):
        inp = write(tmp_path / f"{name}.json", {"inaccessible": doc})
        assert main(["kernel-eval", "--input", inp, "--output", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert [rat(v) for v in json.loads(reports[1])["values"]] == [Q(3, 5), Q(-1, 2)]


def test_a_rational_too_long_to_print_is_an_engine_error(tmp_path):
    """A report value past the interpreter's digit limit exits 3, not with a traceback.

    Each asset value has about 2500 digits, so the input loads; the
    connector the deflator report prints has denominators past 4300
    digits.  The interpreter's limit is left as it is.
    """
    doc = {"outcomes": ["a", "b", "c"], "prob": ["1/3", "1/3", "1/3"],
           "filtration": {"initial": [[0, 1, 2]],
                          "ticks": [{"pre": [[0, 1, 2]], "at": [[0], [1], [2]]}]},
           "asset": {"dim": 1, "values": [
               [["1/1"], [f"1/{7 * 10 ** 2501 + 1}"]],
               [["1/1"], ["3/2"]],
               [["1/1"], [f"1/{3 * 10 ** 2501 + 7}"]]]}}
    inp = write(tmp_path / "long.json", doc)
    out = tmp_path / "r.json"
    assert main(["validate", "--input", inp, "--output", str(out)]) == 0
    assert main(["deflator", "--input", inp, "--output", str(out)]) == 3
    rep = read(out)
    assert rep["error"] == "RATIONAL_TOO_LONG"
    assert min(rep["detail"]["bits"]) > 4300 * 3  # numerator and denominator bit lengths


def test_readme_command_table_matches_the_parser():
    """README's command table lists exactly the subcommands the parser registers."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("\n| command", 1)[1].split("\n\n", 1)[0]
    documented = re.findall(r"^\| `([a-z-]+)`", table, flags=re.MULTILINE)
    subparsers = next(action for action in cli._build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert sorted(documented) == sorted(subparsers.choices)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=3),
    max_leaves=12)


def _valid_documents():
    """A well-formed input document per command, from the worked instances."""
    six = worked_six_point()
    eb = six["eb"]
    instance = instance_to_json(eb)
    return {
        "validate": instance,
        "drift": {**instance, "process": process_to_json(six["asset"])},
        "factors": instance,
        "check-viability": instance,
        "deflator": {**basis_to_json(eb.space, eb.base),
                     "asset": process_to_json(six["asset"]),
                     "horizon": horizon_to_json(eb.horizon)},
        "kernel-eval": {"inaccessible": INACCESSIBLE_EVENT},
    }


VALID_DOCUMENTS = _valid_documents()


def _node_paths(node, path=()):
    """The key path to every node of a JSON tree, the root included."""
    yield path
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _node_paths(child, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("command", sorted(VALID_DOCUMENTS))
@given(data=st.data())
def test_any_document_gives_a_report(command, data):
    """A valid document with one node replaced by any JSON never raises.

    The exit code is 0, 2 or 3 and a JSON report is written; it carries an
    "error" exactly when the exit code is nonzero.
    """
    doc = VALID_DOCUMENTS[command]
    path = data.draw(st.sampled_from(list(_node_paths(doc))), label="path")
    with tempfile.TemporaryDirectory() as tmp:
        inp = write(Path(tmp) / "in.json", _replace(doc, path, data.draw(json_values)))
        out = Path(tmp) / "r.json"
        code = main([command, "--input", inp, "--output", str(out)])
        assert code in (0, 2, 3)
        rep = read(out)
        assert ("error" in rep) == (code != 0)


@pytest.mark.parametrize("command", ["check-viability", "deflator"])
@given(data=st.data())
def test_validate_accepts_what_the_command_accepts(command, data):
    """On a valid document with one node replaced, validate exits 0 exactly when the command does.

    `validate` runs the loader of the command whose document it is, so a
    document that passes it is one the command takes.
    """
    doc = VALID_DOCUMENTS[command]
    path = data.draw(st.sampled_from(list(_node_paths(doc))), label="path")
    with tempfile.TemporaryDirectory() as tmp:
        inp = write(Path(tmp) / "in.json", _replace(doc, path, data.draw(json_values)))
        out = str(Path(tmp) / "r.json")
        checked = main(["validate", "--input", inp, "--output", out])
        ran = main([command, "--input", inp, "--output", out])
    assert (checked == 0) == (ran == 0)


def test_validate_checks_a_basis_horizon_and_asset(tmp_path):
    """validate lists a horizon that is not a stopping time, and rejects a malformed one."""
    doc = VALID_DOCUMENTS["deflator"]
    out = tmp_path / "r.json"
    cases = [({"horizon": [0, 1, 1, 1, 1, 1]}, 3, "NOT_A_STOPPING_TIME"),
             ({"horizon": [None, 0]}, 2, None),
             ({"horizon": [True, 1, 1, 1, 1, 1]}, 2, None),
             ({"asset": {"dim": 1, "values": []}}, 2, None)]
    for edit, code, listed in cases:
        inp = write(tmp_path / "b.json", {**doc, **edit})
        assert main(["validate", "--input", inp, "--output", str(out)]) == code
        rep = read(out)
        if listed:
            assert rep["ok"] is False
            assert [e.split(":")[0] for e in rep["errors"]] == [listed]
        else:
            assert rep["error"] == "SCHEMA_ERROR"
    instance = {**VALID_DOCUMENTS["check-viability"], "process": {"dim": 0, "values": []}}
    inp = write(tmp_path / "i.json", instance)
    assert main(["validate", "--input", inp, "--output", str(out)]) == 2


def test_cli_reads_no_private_serialize_name():
    """The schema lives in `serialize`; `cli` reaches it only through public loaders."""
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    named = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "serialize"}
    named |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and node.module == "serialize" for alias in node.names}
    assert sorted(name for name in named if name.startswith("_")) == []

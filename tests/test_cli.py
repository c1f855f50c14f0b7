import json

import numpy as np
import pytest

from loxpairs import serialize as sz
from loxpairs.cli import main
from loxpairs.qmatrix import conjugate_by


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _generate(tmp_path, name="pair.json", seed="7", field="quaternion",
              mode="strong"):
    path = tmp_path / name
    code = main(["generate", "--n", "3", "--field", field, "--seed", seed,
                 "--mode", mode, "--out", str(path)])
    assert code == 0
    return path


def test_generate_deterministic_bytes(tmp_path):
    p1 = _generate(tmp_path, "a.json")
    p2 = _generate(tmp_path, "b.json")
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_output_is_valid_pair(tmp_path):
    path = _generate(tmp_path)
    obj = sz.loads(path.read_text())
    sz.validate_against_schema(obj, "pair")
    space, A, B = sz.pair_from_json(obj)
    assert space.is_isometry(A) and space.is_isometry(B)


def test_invariants_schema_valid(tmp_path, capsys):
    path = _generate(tmp_path)
    code, out = _run(capsys, "invariants", "--in", str(path))
    assert code == 0
    sz.validate_against_schema(json.loads(out), "invariant_tuple")


def test_invariants_pretty(tmp_path, capsys):
    path = _generate(tmp_path)
    outp = tmp_path / "t.json"
    code, out = _run(capsys, "invariants", "--in", str(path),
                     "--out", str(outp), "--pretty")
    assert code == 0
    assert "X1:" in out and "Re" in out


def test_classify(tmp_path, capsys):
    path = _generate(tmp_path)
    code, out = _run(capsys, "classify", "--in", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["A"]["is_loxodromic"] and obj["B"]["is_loxodromic"]


def test_conjugacy_test_round_trip(tmp_path, capsys):
    path = _generate(tmp_path)
    space, A, B = sz.pair_from_json(sz.loads(path.read_text()))
    rng = np.random.default_rng(5)
    C = space.random_isometry(rng)
    other = tmp_path / "pair2.json"
    other.write_text(sz.dumps(sz.pair_to_json(
        space, conjugate_by(C, A), conjugate_by(C, B))))
    code, out = _run(capsys, "conjugacy-test", "--in", str(path),
                     "--in", str(other))
    assert code == 0
    obj = json.loads(out)
    assert obj["conjugate"] is True
    assert obj["stage"] == "verified"
    assert obj["residual"] <= 1e-7
    assert obj["conjugator"] is not None


def test_conjugacy_test_rejects(tmp_path, capsys):
    p1 = _generate(tmp_path, "p1.json", seed="1")
    p2 = _generate(tmp_path, "p2.json", seed="2")
    code, out = _run(capsys, "conjugacy-test", "--in", str(p1),
                     "--in", str(p2))
    assert code == 0
    obj = json.loads(out)
    assert obj["conjugate"] is False
    assert obj["stage"] in ("real-trace", "tuple")
    assert obj["conjugator"] is None


def test_twist_bend_command(tmp_path, capsys):
    path = _generate(tmp_path)
    space, A, B = sz.pair_from_json(sz.loads(path.read_text()))
    from loxpairs.spectral import eigen_frame
    from loxpairs.twistbend import TwistBendParams, identity_params
    k0 = identity_params(eigen_frame(space, A))
    kap = TwistBendParams(1.1, 0.2, 0.3, -0.1, k0.k1, k0.k2, k0.k3)
    kpath = tmp_path / "kappa.json"
    kpath.write_text(sz.dumps(sz.kappa_to_json(kap)))
    code, out = _run(capsys, "twist-bend", "--in", str(path),
                     "--in", str(kpath))
    assert code == 0
    obj = json.loads(out)
    assert set(obj["tilde"]) == {"X1", "X2", "X3", "A1", "A3"}
    K = sz.matrix_from_json(obj["K"])
    assert (K @ A - A @ K).max_abs() < 1e-8 * (1 + A.max_abs())


def _graph_file(tmp_path):
    """A genus-2 gluing graph of one generated pants and its mirror."""
    path = _generate(tmp_path)
    space, A, B = sz.pair_from_json(sz.loads(path.read_text()))
    from loxpairs.twistbend import PantsGroup, identity_params
    g1 = PantsGroup(space, A, B)
    edges = [(0, 0, 1, 1), (0, 1, 1, 0), (0, 2, 1, 2)]
    kappas = [identity_params(g1.frames[e[1]]) for e in edges]
    gpath = tmp_path / "graph.json"
    gpath.write_text(sz.dumps(sz.graph_to_json(
        space, [(A, B), (B.inverse(), A.inverse())], edges, kappas)))
    return gpath


def test_assemble_command(tmp_path, capsys):
    gpath = _graph_file(tmp_path)
    code, out = _run(capsys, "assemble", "--in", str(gpath))
    assert code == 0
    obj = json.loads(out)
    assert obj["genus"] == 2
    assert obj["parameter_count"] == 72
    assert obj["relation_residual"] < 1e-6


def test_missing_input_exit_2(capsys):
    code, _ = _run(capsys, "invariants")
    assert code == 2


def test_missing_file_exit_2(capsys):
    code, _ = _run(capsys, "invariants", "--in", "/nonexistent/pair.json")
    assert code == 2


def test_malformed_json_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _ = _run(capsys, "invariants", "--in", str(bad))
    assert code == 2


def test_bad_tol_exit_2(capsys):
    code, _ = _run(capsys, "generate", "--tol", "-1")
    assert code == 2


def test_bad_dimension_exit_2(tmp_path, capsys):
    code, _ = _run(capsys, "generate", "--n", "1")
    assert code == 2
    path = _generate(tmp_path)
    obj = sz.loads(path.read_text())
    obj["space"]["n"] = "x"
    bad = tmp_path / "bad_n.json"
    bad.write_text(json.dumps(obj))
    code, _ = _run(capsys, "invariants", "--in", str(bad))
    assert code == 2


@pytest.mark.parametrize("command", ["conjugacy-test", "twist-bend"])
def test_wrong_input_count_exit_2(tmp_path, capsys, command):
    path = _generate(tmp_path)
    code = main([command, "--in", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: {command}")


def _drop_key(path, key):
    """Rewrite the JSON file at path without its top-level key."""
    obj = sz.loads(path.read_text())
    del obj[key]
    path.write_text(sz.dumps(obj))


def test_schema_invalid_kappa_exit_2(tmp_path, capsys):
    path = _generate(tmp_path)
    space, A, B = sz.pair_from_json(sz.loads(path.read_text()))
    from loxpairs.spectral import eigen_frame
    from loxpairs.twistbend import identity_params
    kpath = tmp_path / "kappa.json"
    kpath.write_text(sz.dumps(sz.kappa_to_json(
        identity_params(eigen_frame(space, A)))))
    _drop_key(kpath, "psi")
    code = main(["twist-bend", "--in", str(path), "--in", str(kpath)])
    err = capsys.readouterr().err
    assert code == 2
    assert "'psi' is a required property" in err


def test_schema_invalid_graph_exit_2(tmp_path, capsys):
    gpath = _graph_file(tmp_path)
    _drop_key(gpath, "pants")
    code = main(["assemble", "--in", str(gpath)])
    err = capsys.readouterr().err
    assert code == 2
    assert "'pants' is a required property" in err

import argparse
import json
import re

import numpy as np
import pytest

from loxpairs import cli
from loxpairs import serialize as sz
from loxpairs.cli import main
from loxpairs.qmatrix import QArray, conjugate_by


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def _generate(tmp_path, name="pair.json", seed="7", field="quaternion",
              mode="strong", n="3"):
    path = tmp_path / name
    code = main(["generate", "--n", n, "--field", field, "--seed", seed,
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


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("n", ["3", "4", "5"])
def test_invariants_schema_valid(tmp_path, capsys, n, field):
    # the command does not validate its own output; this test does
    path = _generate(tmp_path, field=field, n=n)
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


def test_conjugacy_test_verification_failure_exit_3(tmp_path, capsys,
                                                    monkeypatch):
    from loxpairs.qmatrix import QArray
    from test_classify import push_polish
    path = _generate(tmp_path)
    space, A, B = sz.pair_from_json(sz.loads(path.read_text()))
    C = space.random_isometry(np.random.default_rng(5))
    other = tmp_path / "pair2.json"
    other.write_text(sz.dumps(sz.pair_to_json(
        space, conjugate_by(C, A), conjugate_by(C, B))))
    push_polish(monkeypatch, QArray.eye(space.dim)
                + QArray(1e-6 * np.eye(space.dim)[::-1]))
    code = main(["conjugacy-test", "--in", str(path), "--in", str(other)])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("verification failed: invariants matched")


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


def test_conjugacy_test_of_two_spaces_exit_2(tmp_path, capsys):
    p3 = _generate(tmp_path, "p3.json", n="3")
    p4 = _generate(tmp_path, "p4.json", n="4")
    code = main(["conjugacy-test", "--in", str(p3), "--in", str(p4)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "pair files live in different spaces" in captured.err


def _no_constants(name):
    raise AssertionError(f"{name} is not JSON")


def test_conjugacy_test_tuple_rejection_is_valid_json(tmp_path, capsys):
    # same spectra, B conjugated alone: rejected at the tuple stage,
    # which has no residual; the file must still be RFC 8259 JSON
    from loxpairs.generate import generate_pair
    from loxpairs.hermitian import HermitianSpace
    space = HermitianSpace(3, "complex")
    A, B = generate_pair(space, seed=1)
    rng = np.random.default_rng(3)
    C, Q = space.random_isometry(rng), space.random_isometry(rng)
    p1, p2, outp = (tmp_path / name for name in ("p1.json", "p2.json",
                                                 "out.json"))
    p1.write_text(sz.dumps(sz.pair_to_json(space, A, B)))
    p2.write_text(sz.dumps(sz.pair_to_json(space, conjugate_by(C, A),
                                           conjugate_by(Q, B))))
    code, _ = _run(capsys, "conjugacy-test", "--in", str(p1), "--in",
                   str(p2), "--out", str(outp))
    assert code == 0
    obj = json.loads(outp.read_text(), parse_constant=_no_constants)
    assert obj["conjugate"] is False and obj["stage"] == "tuple"
    assert obj["residual"] is None and obj["conjugator"] is None


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
    K = sz.matrix_from_json(obj["K"], space.dim)
    assert (K @ A - A @ K).max_abs() < 1e-8 * (1 + A.max_abs())


def test_twist_bend_reports_the_frame_of_a_before_the_product(tmp_path,
                                                              capsys):
    # a zero A makes AB singular; the error is A's spectrum, since the
    # frames of A and B are taken before (AB)^-1 is formed
    path = _generate(tmp_path)
    space, A, _ = sz.pair_from_json(sz.loads(path.read_text()))
    from loxpairs.spectral import eigen_frame
    from loxpairs.twistbend import identity_params
    kpath = tmp_path / "kappa.json"
    kpath.write_text(sz.dumps(sz.kappa_to_json(
        identity_params(eigen_frame(space, A)))))
    obj = sz.loads(path.read_text())
    obj["A"] = [[[0.0] * 4] * space.dim] * space.dim
    path.write_text(json.dumps(obj))
    code = main(["twist-bend", "--in", str(path), "--in", str(kpath)])
    assert code == 2
    assert capsys.readouterr().err == \
        "degenerate input: eigenvalue classes are not simple\n"


def _elliptic(space, rng):
    """An elliptic isometry with four simple unit eigenvalues: a unitary
    diagonal in an H-orthonormal basis, conjugated by a random
    isometry."""
    s = 1.0 / np.sqrt(2.0)
    P = QArray(np.array([[s, 0, 0, s], [0, 1, 0, 0], [0, 0, 1, 0],
                         [s, 0, 0, -s]]))
    E = P @ QArray.diag(np.exp(1j * np.array([0.4, 1.1, 1.9, 2.6]))) \
        @ P.inverse()
    return conjugate_by(space.random_isometry(rng), E)


@pytest.mark.parametrize("field", ["quaternion", "complex"])
def test_twist_bend_reports_a_before_the_identity_product(tmp_path, capsys,
                                                          field):
    # B = A^-1 makes (AB)^-1 the identity, whose classes are not simple;
    # the error is A's own, since A and B are framed before the product
    from loxpairs.spectral import eigen_frame
    from loxpairs.twistbend import identity_params
    space, G, _ = sz.pair_from_json(sz.loads(
        _generate(tmp_path, field=field).read_text()))
    A = _elliptic(space, np.random.default_rng(5))
    assert space.is_isometry(A)
    path, kpath = tmp_path / "elliptic.json", tmp_path / "kappa.json"
    path.write_text(sz.dumps(sz.pair_to_json(space, A, A.inverse())))
    kpath.write_text(sz.dumps(sz.kappa_to_json(
        identity_params(eigen_frame(space, G)))))
    code = main(["twist-bend", "--in", str(path), "--in", str(kpath)])
    assert code == 2
    assert capsys.readouterr().err == \
        "degenerate input: no attracting/repelling eigenvalue pair\n"


@pytest.mark.parametrize("command", ["invariants", "conjugacy-test"])
@pytest.mark.parametrize("field", ["quaternion", "complex"])
def test_overflowing_characteristic_polynomial_is_degenerate_input(
        tmp_path, capsys, field, command):
    # A scaled by 1e200 has finite entries but characteristic
    # coefficients that are not: a degenerate input, exit 2
    path = _generate(tmp_path, field=field)
    space, A, B = sz.pair_from_json(sz.loads(path.read_text()))
    big = tmp_path / "big.json"
    big.write_text(sz.dumps(sz.pair_to_json(space, A.scale(1e200), B)))
    second = ["--in", str(path)] if command == "conjugacy-test" else []
    code = main([command, "--in", str(big), *second])
    assert code == 2
    assert capsys.readouterr().err.startswith("degenerate input: ")


def _graph_file(tmp_path, field="quaternion"):
    """A genus-2 gluing graph of one generated pants and its mirror."""
    path = _generate(tmp_path, field=field)
    space, A, B = sz.pair_from_json(sz.loads(path.read_text()))
    from loxpairs.twistbend import identity_params, pants_groups
    g1, = pants_groups(space, [(A, B)])
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


@pytest.mark.parametrize("field", ["quaternion", "complex"])
def test_assemble_negative_pants_index_exit_2(tmp_path, capsys, field):
    # a pants index below 0 is out of range, as one past the last is
    gpath = _graph_file(tmp_path, field=field)
    obj = sz.loads(gpath.read_text())
    obj["edges"][0][0] = -1
    gpath.write_text(sz.dumps(obj))
    code = main(["assemble", "--in", str(gpath)])
    captured = capsys.readouterr()
    assert code == 2 and not captured.out
    assert captured.err == "error: bad or reused slot (-1, 0)\n"


def test_generate_negative_seed_exit_2(tmp_path, capsys):
    out = tmp_path / "pair.json"
    code = main(["generate", "--seed", "-1", "--out", str(out)])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith("error: bad seed -1")


@pytest.mark.parametrize("field", ["quaternion", "complex"])
def test_generate_strong_below_n3_exit_2(tmp_path, capsys, field):
    # no pair of H^2 is non-singular, so strong mode refuses before it
    # draws; weak mode still generates
    out = tmp_path / "pair.json"
    code = main(["generate", "--n", "2", "--field", field, "--mode",
                 "strong", "--out", str(out)])
    assert code == 2 and not out.exists()
    assert capsys.readouterr().err.startswith(
        "error: strong mode needs n >= 3")
    _generate(tmp_path, field=field, mode="weak", n="2")


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


@pytest.mark.parametrize("n", [3.9, "3", True])
def test_non_integer_n_exit_2(tmp_path, capsys, n):
    # pair.json requires an integer n, and pair files are checked against
    # it; int() would have read 3.9 and "3" as 3 and true as 1
    path = _generate(tmp_path, field="complex")
    obj = sz.loads(path.read_text())
    obj["space"]["n"] = n
    bad = tmp_path / "bad_n.json"
    bad.write_text(json.dumps(obj))
    code = main(["classify", "--in", str(bad)])
    assert code == 2
    assert "is not of type 'integer'" in capsys.readouterr().err


def test_integer_valued_float_n_is_read(tmp_path, capsys):
    # 3.0 is an integer under the schemas' draft 2020-12
    path = _generate(tmp_path, field="complex")
    obj = sz.loads(path.read_text())
    obj["space"]["n"] = 3.0
    other = tmp_path / "n_float.json"
    other.write_text(json.dumps(obj))
    assert _run(capsys, "classify", "--in", str(other)) \
        == _run(capsys, "classify", "--in", str(path))


def _extra_key(obj):
    obj["C"] = 1


def _extra_space_key(obj):
    obj["space"]["x"] = 1


@pytest.mark.parametrize("corrupt", [_extra_key, _extra_space_key])
@pytest.mark.parametrize("argv", [["classify", "@"], ["invariants", "@"],
                                  ["conjugacy-test", "@", "pair"],
                                  ["conjugacy-test", "pair", "@"],
                                  ["twist-bend", "@", "kappa"]])
def test_pair_file_is_checked_against_its_schema(tmp_path, capsys, corrupt,
                                                 argv):
    # a key that pair.json does not allow fails the file, "@" marking
    # the one edited
    path = _generate(tmp_path, field="complex")
    space, A, _ = sz.pair_from_json(sz.loads(path.read_text()))
    from loxpairs.spectral import eigen_frame
    from loxpairs.twistbend import identity_params
    kpath = tmp_path / "kappa.json"
    kpath.write_text(sz.dumps(sz.kappa_to_json(
        identity_params(eigen_frame(space, A)))))
    obj = sz.loads(path.read_text())
    corrupt(obj)
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps(obj))
    files = {"@": bad, "pair": path, "kappa": kpath}
    command, *ins = argv
    assert main([command, *[x for f in ins for x in ("--in", str(files[f]))]]
                ) == 2
    assert "Additional properties are not allowed" in capsys.readouterr().err


def _reuse_calls(tmp_path):
    path = _generate(tmp_path)
    other = _generate(tmp_path, "other.json", seed="8")
    return [["conjugacy-test", "--in", str(path), "--in", str(other)],
            ["classify", "--in", str(path)],
            ["generate", "--field", "octonion"],
            ["invariants", "--in", str(path)]]


def _outcomes(capsys, calls):
    outcomes = []
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse's rejection
            code = exc.code
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    return outcomes


def test_reused_parser_gives_what_a_fresh_parser_gives(tmp_path, capsys,
                                                      monkeypatch):
    calls = _reuse_calls(tmp_path)
    seen = []
    handler, n_in, options = cli._COMMANDS["classify"]

    def spy(args):
        seen.append(list(args.infile))
        return handler(args)

    monkeypatch.setitem(cli._COMMANDS, "classify", (spy, n_in, options))
    cli._parser.cache_clear()
    reused = _outcomes(capsys, calls)
    # the earlier call's two --in do not reach classify
    assert seen == [[calls[1][-1]]]
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", cli.build_parser)
        fresh = _outcomes(capsys, calls)
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, 2, 0]
    assert "invalid choice: 'octonion'" in reused[2][2]


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli._parser.cache_clear()
    path = _generate(tmp_path)
    for _ in range(9):
        assert main(["classify", "--in", str(path)]) == 0
    capsys.readouterr()
    # subparsers are named "loxpairs <command>"
    assert built.count("loxpairs") <= 1


def test_bad_tol_exit_2(tmp_path, capsys):
    # the library checks tol: classify_element and conjugacy_test
    path = _generate(tmp_path)
    for tol in ("0", "-1", "nan"):
        for argv in (["classify", "--in", str(path)],
                     ["conjugacy-test", "--in", str(path), "--in", str(path)]):
            assert main([*argv, "--tol", tol]) == 2
            assert "tol must be positive" in capsys.readouterr().err


def test_generate_too_large_an_n_exit_2(capsys):
    assert main(["generate", "--n", str(2 ** 50), "--field", "complex"]) == 2
    assert "too large" in capsys.readouterr().err


_OPTIONS = {
    "generate": {"--n", "--field", "--seed", "--mode", "--out"},
    "classify": {"--in", "--tol", "--out"},
    "invariants": {"--in", "--out", "--pretty"},
    "conjugacy-test": {"--in", "--mode", "--tol", "--out"},
    "twist-bend": {"--in", "--out"},
    "assemble": {"--in", "--out"},
}


@pytest.mark.parametrize("command", sorted(_OPTIONS))
def test_help_lists_only_the_options_read(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    listed = set(re.findall(r"^ +(--[a-z]+)", out, re.M)) - {"--help"}
    assert listed == _OPTIONS[command]


@pytest.mark.parametrize("argv", [
    ["assemble", "--in", "graph.json", "--tol", "1e-3"],
    ["classify", "--in", "pair.json", "--seed", "1"],
    ["generate", "--tol", "1e-3"],
    ["invariants", "--in", "pair.json", "--mode", "strong"]])
def test_option_a_command_does_not_read_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


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


def _ragged_row(obj):
    obj["A"][0].pop()


def _string_entry(obj):
    obj["A"][1][2][0] = "x"


def _infinite_entry(obj):
    obj["A"][1][2][0] = float("inf")


def _small_matrix(obj):
    obj["A"] = [row[:3] for row in obj["A"][:3]]


def _scalar_matrix(obj):
    obj["A"] = 5


def _wrong_n(obj):
    obj["space"]["n"] = 4


def _huge_n(obj):
    # the shape check must come before anything of size n is allocated
    obj["space"]["n"] = 100000


@pytest.mark.parametrize("command", ["classify", "invariants",
                                     "conjugacy-test"])
@pytest.mark.parametrize("corrupt", [_ragged_row, _string_entry,
                                     _infinite_entry, _small_matrix,
                                     _scalar_matrix, _wrong_n, _huge_n])
def test_malformed_pair_file_exit_2(tmp_path, capsys, command, corrupt):
    path = _generate(tmp_path)
    obj = sz.loads(path.read_text())
    corrupt(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    argv = [command, "--in", str(bad)]
    if command == "conjugacy-test":
        argv += ["--in", str(path)]
    code = main(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("degenerate input: ")


def _pants_ragged_row(obj):
    obj["pants"][0]["A"][0].pop()


def _pants_three_rows(obj):
    obj["pants"][0]["A"] = obj["pants"][0]["A"][:3]


def _pants_small_matrix(obj):
    obj["pants"][0]["A"] = [row[:3] for row in obj["pants"][0]["A"][:3]]


def _pants_string_entry(obj):
    obj["pants"][1]["B"][1][2][0] = "x"


def _pants_null_entry(obj):
    obj["pants"][1]["B"][1][2][0] = None


def _pants_infinite_entry(obj):
    obj["pants"][1]["B"][1][2][0] = float("inf")


def _pants_zero_matrix(obj):
    obj["pants"][0]["A"] = [[[0.0] * 4] * 4] * 4


def _pants_huge_n(obj):
    obj["space"]["n"] = 100000


@pytest.mark.parametrize("field", ["quaternion", "complex"])
@pytest.mark.parametrize("corrupt", [_pants_ragged_row, _pants_three_rows,
                                     _pants_small_matrix, _pants_string_entry,
                                     _pants_null_entry, _pants_infinite_entry,
                                     _pants_zero_matrix, _pants_huge_n])
def test_malformed_graph_file_exit_2(tmp_path, capsys, field, corrupt):
    gpath = _graph_file(tmp_path, field)
    obj = sz.loads(gpath.read_text())
    corrupt(obj)
    gpath.write_text(json.dumps(obj))
    code = main(["assemble", "--in", str(gpath)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("degenerate input: ")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field", ["quaternion", "complex"])
def test_overflowing_pair_file_exit_2_without_nan(tmp_path, capsys, field):
    """An entry of 1e150 overflows the characteristic polynomial to NaN;
    the NaN must fail the gates, not pass them."""
    path = _generate(tmp_path, field=field)
    obj = sz.loads(path.read_text())
    obj["A"][0][0] = [1e150, 1e150, 0.0, 0.0]
    path.write_text(json.dumps(obj))
    outp = tmp_path / "out.json"
    for argv in ([], ["--out", str(outp)]):
        code, out = _run(capsys, "classify", "--in", str(path), *argv)
        assert code == 2
        assert "NaN" not in out
    assert not outp.exists()


@pytest.mark.parametrize("content", [
    b'{"space": {"n": ' + b"1" * 5000 + b', "field": "complex"}}',
    b'{"space": "\x80"}'], ids=["huge-integer", "not-utf8"])
@pytest.mark.parametrize("command", ["classify", "invariants",
                                     "conjugacy-test", "twist-bend",
                                     "assemble"])
def test_unparseable_file_exit_2(tmp_path, capsys, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    n_in = 2 if command in ("conjugacy-test", "twist-bend") else 1
    code = main([command, *["--in", str(bad)] * n_in])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("degenerate input: invalid JSON")


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


@pytest.mark.parametrize("key,value", [("t", "Infinity"), ("t", "NaN"),
                                       ("t", "1e300"), ("psi", "Infinity"),
                                       ("xi", "[NaN, 0.0]")])
def test_twist_bend_rejects_unusable_kappa(tmp_path, capsys, key, value):
    # non-finite parameters are a parse error; a finite t whose K
    # overflows is a degenerate twist-bend; neither prints NaN
    path = _generate(tmp_path)
    space, A, B = sz.pair_from_json(sz.loads(path.read_text()))
    from loxpairs.spectral import eigen_frame
    from loxpairs.twistbend import identity_params
    obj = sz.kappa_to_json(identity_params(eigen_frame(space, A)))
    obj[key] = "@"
    kpath = tmp_path / "kappa.json"
    kpath.write_text(json.dumps(obj).replace('"@"', value))
    code, out = _run(capsys, "twist-bend", "--in", str(path),
                     "--in", str(kpath))
    assert code == 2
    assert "NaN" not in out and "Infinity" not in out

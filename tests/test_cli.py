import argparse
import json
import subprocess
import sys

import numpy as np
import pytest

import pcpkit.construct
import pcpkit.fileio
import pcpkit.pairs
from pcpkit import PairXY, reconstruct, verify_decomposition
from pcpkit.cli import build_parser, main
from pcpkit.errors import PcpkitError
from pcpkit.fileio import load_certificate, load_pair_document, save_pair_document

from conftest import FIXTURES


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv, "--json")
    return code, json.loads(out)


# ---------------------------------------------------------------- check-pair

def test_check_pair_pass(capsys):
    code, out, _ = run(capsys, "check-pair", FIXTURES / "cyclic_a1.json")
    assert code == 0
    assert "all necessary conditions hold" in out


def test_check_pair_norm_gap_failure(capsys):
    code, out, _ = run(capsys, "check-pair", FIXTURES / "cyclic_a2.json")
    assert code == 2
    assert "(e)" in out and "FAIL" in out
    assert "gap(X) = 6" in out


def test_check_pair_json_payload(capsys):
    code, payload = run_json(capsys, "check-pair", FIXTURES / "cyclic_a2.json")
    assert code == 2
    assert payload["holds"] == {"a": True, "b": True, "c": True, "d": True, "e": False}
    assert payload["x_gap"] == pytest.approx(6.0, abs=1e-9)


def test_check_pair_prints_a_gap_that_the_bound_left_unread(capsys, monkeypatch):
    """The norm bound settles (e) for this fixture, so no SVD runs until the CLI reads
    gap(Y) for its "norm gaps" line; the printed value is the SVD's."""
    svds = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svds.append(1) or svd(*a, **k))
    pair, _ = load_pair_document(FIXTURES / "permutation_retry_pair.json")
    assert pair.report.all_hold and svds == []
    code, out, _ = run(capsys, "check-pair", FIXTURES / "permutation_retry_pair.json")
    assert code == 0 and svds == [1]
    assert "gap(X) = 6, gap(Y) = 9.42510018" in out


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_check_pair_json_stays_json_beside_entries_near_the_largest_float(capsys):
    """Entries of 1e308 make ||Y||_1 overflow; the gaps stay finite, so the pair passes
    and ``--json`` prints neither NaN nor Infinity."""
    code, out, _ = run(capsys, "check-pair", FIXTURES / "huge_entries_pair.json", "--json")
    payload = json.loads(out, parse_constant=_no_constant)
    assert code == 0 and all(payload["holds"].values())


def test_check_pair_malformed_file(capsys):
    code, _, err = run(capsys, "check-pair", FIXTURES / "broken.json")
    assert code == 1
    assert "not valid JSON" in err


def test_check_pair_missing_file(capsys):
    code, _, err = run(capsys, "check-pair", FIXTURES / "no_such_file.json")
    assert code == 1
    assert "cannot read" in err


# ----------------------------------------------------------------- decompose

def test_decompose_recursive_needs_permutation(capsys):
    code, payload = run_json(capsys, "decompose", FIXTURES / "permutation_retry_pair.json",
                             "--method", "recursive")
    assert code == 3
    assert payload["status"] == "not-applicable"
    assert payload["witness"]["position"] == [2, 3]
    assert payload["witness"]["radicand"] < 0


def test_decompose_recursive_with_perms_and_verify(capsys, tmp_path):
    cert = tmp_path / "cert.json"
    code, payload = run_json(capsys, "decompose", FIXTURES / "permutation_retry_pair.json",
                             "--method", "recursive", "--perms", "--out", cert)
    assert code == 0
    assert payload["m"] == 3
    assert payload["residual_x"] < 1e-8 and payload["residual_y"] < 1e-8
    assert cert.exists()

    code, out, _ = run(capsys, "decompose", FIXTURES / "permutation_retry_pair.json",
                       "--verify", cert)
    assert code == 0
    assert "verified" in out

    # the same certificate does not fit a different pair
    code, out, _ = run(capsys, "decompose", FIXTURES / "comparison_pair.json",
                       "--verify", cert)
    assert code == 2
    assert "FAILED" in out


def test_decompose_searches_permutations_at_n8(capsys, tmp_path):
    """The n = 8 fixture fails its identity ordering in both orientations; the
    permutation search, exhaustive up to n = 8, certifies it."""
    pair = FIXTURES / "search_n8_pair.json"
    code, payload = run_json(capsys, "decompose", pair, "--method", "recursive")
    assert code == 3
    assert payload["status"] == "not-applicable"
    assert payload["witness"]["reason"] == "negative radicand"

    cert = tmp_path / "cert8.json"
    code, payload = run_json(capsys, "decompose", pair, "--method", "recursive", "--perms",
                             "--out", cert)
    assert code == 0
    assert payload["permutation"] != list(range(8))
    assert payload["residual_x"] < 1e-8 and payload["residual_y"] < 1e-8

    code, payload = run_json(capsys, "decompose", pair, "--verify", cert)
    assert code == 0 and payload["verified"] is True


def test_decompose_prints_a_permutation_only_when_it_is_not_the_identity(capsys):
    """Text and ``--json`` output come from one result: the n = 8 search's permutation
    is the JSON ``permutation`` and its own text line; an identity permutation is in the
    JSON but prints no line."""
    argv = ("decompose", FIXTURES / "search_n8_pair.json", "--method", "recursive", "--perms")
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["permutation"] == [2, 5, 4, 6, 1, 0, 3, 7]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "permutation: [2, 5, 4, 6, 1, 0, 3, 7]\n" in out

    argv = ("decompose", FIXTURES / "cyclic_a1.json", "--method", "recursive", "--perms")
    code, payload = run_json(capsys, *argv)
    assert code == 0 and payload["permutation"] == [0, 1, 2]
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.startswith("method: recursive\n") and "permutation" not in out


def test_decompose_verify_shipped_certificate(capsys):
    code, payload = run_json(capsys, "decompose", FIXTURES / "permutation_retry_pair.json",
                             "--verify", FIXTURES / "permutation_retry_certificate.json")
    assert code == 0
    assert payload["verified"] is True
    assert payload["m"] == 3
    assert payload["method"] == "recursive"


def test_decompose_comparison_route(capsys, monkeypatch):
    rebuilt = []
    generated = pcpkit.pairs._generated
    monkeypatch.setattr(pcpkit.pairs, "_generated",
                        lambda V, W: rebuilt.append(V) or generated(V, W))
    code, payload = run_json(capsys, "decompose", FIXTURES / "comparison_pair.json",
                             "--method", "comparison")
    assert code == 0
    assert payload["method"] == "comparison"
    assert payload["residual_x"] < 1e-8
    # the residuals printed are those of the route's own verification
    assert len(rebuilt) == 1


def test_method_choices_are_auto_and_the_routes():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    (method,) = [a for a in sub.choices["decompose"]._actions if a.dest == "method"]
    assert sorted(method.choices) == sorted(["auto", *pcpkit.construct.ROUTES])
    assert method.default == "auto"


@pytest.mark.parametrize("route", ["comparison", "recursive"])
def test_decompose_method_runs_the_rebound_route(capsys, monkeypatch, route):
    """``--method <route>`` looks the route up on ``construct`` when it runs."""
    declined = pcpkit.construct.ConstructorOutcome("not-applicable", route, reason="rebound")
    monkeypatch.setattr(pcpkit.construct, f"decompose_{route}", lambda pair, *a, **k: declined)
    code, out, _ = run(capsys, "decompose", FIXTURES / "comparison_pair.json", "--method", route)
    assert code == 3
    assert out.startswith(f"method: {route}\nstatus: not-applicable (rebound)\n")


def test_decompose_rejects_violated_pair(capsys):
    code, payload = run_json(capsys, "decompose", FIXTURES / "cyclic_a2.json")
    assert code == 2
    assert payload["status"] == "conditions-violated"


def test_decompose_auto_inconclusive(capsys):
    code, payload = run_json(capsys, "decompose", FIXTURES / "inconclusive_pair.json")
    assert code == 3
    assert payload["status"] == "not-applicable"
    assert set(payload["methods"]) == {"comparison", "recursive"}


def test_decompose_prints_why_each_route_declined(capsys):
    """Without ``--json``, a route that does not apply prints its witness, and the
    auto route the reason of every method it tried."""
    code, out, _ = run(capsys, "decompose", FIXTURES / "inconclusive_pair.json")
    assert code == 3
    assert "methods: {'comparison': 'comparison matrix of X is not positive semidefinite'" in out
    code, out, _ = run(capsys, "decompose", FIXTURES / "inconclusive_pair.json",
                       "--method", "recursive")
    assert code == 3
    assert "witness: {'position': [2, 3]" in out and "'reason': 'negative radicand'" in out


def test_decompose_isotropic_pair(capsys, tmp_path):
    cert = tmp_path / "iso.json"
    code, _, _ = run(capsys, "decompose", FIXTURES / "isotropic_n3.json", "--out", cert)
    assert code == 0
    dec, _ = load_certificate(cert)
    pair, _ = load_pair_document(FIXTURES / "isotropic_n3.json")
    assert verify_decomposition(dec, pair, tol=1e-8)


def test_decompose_out_to_missing_directory(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir"
    code, out, err = run(capsys, "decompose", FIXTURES / "isotropic_n3.json",
                         "--out", missing / "c.json")
    assert code == 1
    assert err.startswith("error: cannot write ")
    pair, _ = load_pair_document(FIXTURES / "isotropic_n3.json")
    with pytest.raises(PcpkitError, match="cannot write"):
        save_pair_document(missing / "pair.json", pair)


# --------------------------------------------------------------- check-state

def test_check_state_entangled_by_realignment(capsys):
    code, out, _ = run(capsys, "check-state", FIXTURES / "cyclic_a2.json")
    assert code == 2
    assert "entangled (by the realignment criterion)" in out


def test_check_state_separable_with_certificate(capsys, tmp_path):
    cert = tmp_path / "state_cert.json"
    code, payload = run_json(capsys, "check-state", FIXTURES / "isotropic_n3.json",
                             "--out", cert)
    assert code == 0
    assert payload["verdict"] == "separable"
    dec, _ = load_certificate(cert)
    pair, _ = load_pair_document(FIXTURES / "isotropic_n3.json")
    assert verify_decomposition(dec, pair, tol=1e-8)


def test_check_state_inconclusive(capsys):
    code, payload = run_json(capsys, "check-state", FIXTURES / "inconclusive_pair.json")
    assert code == 4
    assert payload["verdict"] == "inconclusive"


def test_check_state_extreme_ratio_pair(capsys):
    """The comparison split declines this pair instead of raising, and the
    row-by-row route certifies it."""
    code, payload = run_json(capsys, "check-state", FIXTURES / "extreme_ratio_pair.json")
    assert code == 0
    assert payload["verdict"] == "separable"


def test_check_state_dense_input(capsys):
    code, payload = run_json(capsys, "check-state", FIXTURES / "dense_state_n2.json")
    assert code == 0
    assert payload["form"] == "dense"
    assert payload["verdict"] == "separable"


def test_check_state_reads_its_file_once(capsys, monkeypatch):
    reads = []
    load = pcpkit.fileio._load_json
    monkeypatch.setattr(pcpkit.fileio, "_load_json", lambda path: reads.append(path) or load(path))
    for name in ("isotropic_n3.json", "dense_state_n2.json"):
        reads.clear()
        code, _ = run_json(capsys, "check-state", FIXTURES / name)
        assert code == 0
        assert reads == [str(FIXTURES / name)]


def test_pair_failing_d_beside_a_large_entry(capsys, tmp_path):
    """check-state calls the pair entangled, also on the dense partial transpose,
    and no decompose route certifies it, however small its Y residual would be
    beside y12 = 1e10."""
    state = tmp_path / "state.json"
    save_pair_document(state, PairXY([[1.0, 0.9, 0.0], [0.9, 1.0, 0.0], [0.0, 0.0, 1.0]],
                                     [[1.0, 1e10, 1.0], [1e-20, 1.0, 1.0], [1.0, 1.0, 1.0]]))
    code, payload = run_json(capsys, "check-state", state)
    assert code == 2
    assert (payload["verdict"], payload["criterion"]) == ("entangled", "ppt")
    assert payload["witnesses"]["d"]["position"] == [1, 2]
    for extra in ((), ("--normalize",)):
        code, payload = run_json(capsys, "check-state", state, "--dense-crosscheck", *extra)
        assert code == 2
        assert payload["dense_crosscheck"]["agrees"] is True
    for extra in ((), ("--method", "recursive", "--perms")):
        code, payload = run_json(capsys, "decompose", state, *extra,
                                 "--out", tmp_path / "cert.json")
        assert code == 2
        assert payload["status"] == "conditions-violated"
    assert not (tmp_path / "cert.json").exists()


def test_check_state_dense_crosscheck(capsys):
    code, payload = run_json(capsys, "check-state", FIXTURES / "dense_state_n2.json",
                             "--dense-crosscheck")
    assert code == 0
    assert payload["dense_crosscheck"]["agrees"] is True


def test_check_state_normalize(capsys):
    code, payload = run_json(capsys, "check-state", FIXTURES / "isotropic_n3.json",
                             "--normalize")
    assert code == 0
    assert payload["trace"] == pytest.approx(1.0, abs=1e-12)


def test_check_state_rejects_invalid(capsys, tmp_path):
    bad = tmp_path / "bad_pair.json"
    save_pair_document(bad, PairXY(np.eye(2), np.array([[1.0, -0.5], [0.5, 1.0]])))
    code, out, _ = run(capsys, "check-state", bad)
    assert code == 2
    assert "not a state" in out


def test_check_state_normalize_needs_a_positive_trace(capsys, tmp_path):
    zero = tmp_path / "zero_pair.json"
    save_pair_document(zero, PairXY(np.zeros((2, 2)), np.zeros((2, 2))))
    code, out, err = run(capsys, "check-state", zero, "--normalize")
    assert code == 1 and out == ""
    assert err == "error: cannot normalize: the state has non-positive trace\n"


def test_check_state_json_reports_an_invalid_pair(capsys, tmp_path):
    bad = tmp_path / "bad_pair.json"
    save_pair_document(bad, PairXY(np.eye(2), np.array([[1.0, -0.5], [0.5, 1.0]])))
    code, payload = run_json(capsys, "check-state", bad)
    assert code == 2
    assert payload["verdict"] == "invalid" and payload["form"] == "pair"
    assert payload["holds"] == {"a": True, "b": False, "c": True, "d": True, "e": True}


# ------------------------------------------------------------------- abs-ppt

def test_abs_ppt_passing_spectrum(capsys):
    code, out, _ = run(capsys, "abs-ppt", "--n", "2", "--lambdas", "0.4,0.2,0.2,0.2")
    assert code == 0
    assert "stays PPT" in out


def test_abs_ppt_failing_spectrum(capsys):
    code, payload = run_json(capsys, "abs-ppt", "--n", "2", "--lambdas", "1,0,0,0")
    assert code == 2
    assert payload["passes"] is False
    assert payload["failing_ordering"] == 0


def test_abs_ppt_certify_writes_files(capsys, tmp_path):
    lam = ",".join(["%.9f" % (1.0 / 9.0)] * 9)
    code, payload = run_json(capsys, "abs-ppt", "--n", "3", "--lambdas", lam,
                             "--certify", "--out-dir", tmp_path)
    assert code == 0
    assert len(payload["certificates"]) == 2
    for path in payload["certificates"]:
        dec, meta = load_certificate(path)
        assert meta["ordering_index"] in (0, 1)
        assert dec.m > 0
        rebuilt = reconstruct(dec)
        assert np.all(np.linalg.eigvalsh(rebuilt.X) > -1e-10)


def test_abs_ppt_certify_reports_an_ordering_it_cannot_certify(capsys, tmp_path):
    """The check passes this spectrum within its PSD floor (smallest eigenvalue about
    -4.4e-10), but the comparison split declines its one ordering: no file is written,
    the ordering is listed as uncertified, and the exit code is 3."""
    lam = "0.5000000005,0.25,0.2,0.09"
    code, out, _ = run(capsys, "abs-ppt", "--n", "2", "--lambdas", lam,
                       "--certify", "--out-dir", tmp_path)
    assert code == 3
    assert "ordering 0: min eigenvalue -4.41176512e-10 -> PASS" in out
    assert "ordering 0: no certificate (comparison matrix of X is not positive " \
           "semidefinite)" in out
    assert "stays PPT" in out
    code, payload = run_json(capsys, "abs-ppt", "--n", "2", "--lambdas", lam,
                             "--certify", "--out-dir", tmp_path)
    assert code == 3
    assert payload["passes"] is True and payload["uncertified"] == [0]
    assert "certificates" not in payload
    assert list(tmp_path.iterdir()) == []


def test_abs_ppt_lambdas_from_file(capsys, tmp_path):
    spec = tmp_path / "spectrum.txt"
    spec.write_text("0.25 0.25, 0.25\n0.25\n")
    code, _, _ = run(capsys, "abs-ppt", "--n", "2", "--lambdas", f"@{spec}")
    assert code == 0


def test_abs_ppt_rejects_sampler_flags(capsys):
    code, out, _ = run(capsys, "abs-ppt", "--n", "2", "--lambdas", "0.25,0.25,0.25,0.25")
    assert code == 0
    assert out.splitlines()[0] == "n = 2: 1 realizable orderings"
    for flag in ("--samples", "--seed"):
        with pytest.raises(SystemExit) as exc:
            main(["abs-ppt", "--n", "2", "--lambdas", "0.25,0.25,0.25,0.25", flag, "5"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_abs_ppt_certify_into_missing_directory(capsys, tmp_path):
    missing = tmp_path / "no" / "such" / "dir"
    code, out, err = run(capsys, "abs-ppt", "--n", "2", "--lambdas", "0.25,0.25,0.25,0.25",
                         "--certify", "--out-dir", missing)
    assert code == 1
    assert err.startswith("error: cannot write ")
    assert out == ""


def test_abs_ppt_bad_inputs(capsys):
    code, _, err = run(capsys, "abs-ppt", "--n", "2", "--lambdas", "a,b,c,d")
    assert code == 1
    assert "must be numbers" in err

    code, _, err = run(capsys, "abs-ppt", "--n", "2", "--lambdas", "0.5,0.5")
    assert code == 1


# ------------------------------------------------------------------ plumbing

def test_console_module_invocation():
    proc = subprocess.run(
        [sys.executable, "-m", "pcpkit.cli", "check-pair",
         str(FIXTURES / "cyclic_a1.json")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "all necessary conditions hold" in proc.stdout


@pytest.mark.parametrize("n, lam", [
    (2, "1.7e308,2.4e307,2.4e307,2.4e307"),        # answered PASS
    (2, "1.7e308,1.6e308,1.5e308,1.4e308"),        # answered FAIL
    (3, "1.7e308,1.7e308,1.7e308,1.7e308,1e308,1e308,1e308,1e308,1e308"),  # a traceback
])
def test_abs_ppt_refuses_a_spectrum_that_overflows(capsys, n, lam):
    code, out, err = run(capsys, "abs-ppt", "--n", n, "--lambdas", lam)
    assert code == 1 and out == ""
    assert err.startswith("error: spectrum entries above") and "overflow" in err


def test_abs_ppt_reports_the_negative_entry_of_a_huge_spectrum():
    """The step from 1e308 to -1e308 overflows to +inf, a sorted step; the spectrum is
    refused for its negative entry, and nothing but that error reaches stderr (the
    process runs without the suite's warning filter, so a warning would be printed)."""
    proc = subprocess.run(
        [sys.executable, "-m", "pcpkit", "abs-ppt", "--n", "2",
         "--lambdas", "1e308,-1e308,-1e308,-1e308"],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: spectrum has a negative entry (-1.000e+308)\n"

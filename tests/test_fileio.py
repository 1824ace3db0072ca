import json
import re

import numpy as np
import pytest

from pcpkit import PairXY, decompose_comparison
from pcpkit.cli import main
from pcpkit.errors import PcpkitError
from pcpkit.fileio import (
    load_certificate,
    load_pair_document,
    load_state,
    save_certificate,
    save_pair_document,
)

from conftest import FIXTURES, random_decomposable_pair


def _write(path, vs, ws):
    path.write_text(json.dumps({"n": 2, "m": len(vs), "method": "test", "vs": vs, "ws": ws}))
    return path


MALFORMED = ["1.5", True, [1.0, 2.0, 3.0], [1.0], [[1.0, 2.0], 0.0], [True, 0.0], ["1", 0.0], None]


@pytest.mark.parametrize("bad", MALFORMED)
@pytest.mark.parametrize("key", ["vs", "ws"])
def test_load_certificate_names_a_malformed_entry(tmp_path, key, bad):
    doc = {"vs": [[1.0, [0.5, -0.5]], [2.0, 3]], "ws": [[1, 2], [[3, 0], 4.0]]}
    doc[key][1][0] = bad
    with pytest.raises(PcpkitError, match=rf"{key}\[2\]\[1\]: expected a number or \[re, im\]"):
        load_certificate(_write(tmp_path / "c.json", doc["vs"], doc["ws"]))


@pytest.mark.parametrize("bad", MALFORMED)
@pytest.mark.parametrize("key", ["X", "Y"])
def test_load_pair_document_names_a_malformed_entry(tmp_path, key, bad):
    doc = {"n": 2, "X": [[1.0, [0.5, -0.5]], [[0.5, 0.5], 3]], "Y": [[1, 2], [0.5, 3.0]]}
    doc[key][1][1] = bad
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(PcpkitError, match=rf"{key}\[2\]\[2\]: expected a number or \[re, im\]"):
        load_pair_document(path)


def test_load_certificate_rejects_vectors_of_unequal_length(tmp_path):
    path = _write(tmp_path / "c.json", [[1.0, 2.0], [1.0, 2.0]], [[1.0, 2.0], [1.0, 2.0, 3.0]])
    with pytest.raises(PcpkitError, match=r"ws\[2\] has 3 entries, expected 2"):
        load_certificate(path)


def test_certificate_round_trip_reads_every_entry_exactly(tmp_path):
    """The n = 30 diagonally dominant comparison certificate (465 terms, bare
    reals beside [re, im] pairs) loads as the arrays that were saved, and as a
    scalar-by-scalar reading of its file."""
    A = random_decomposable_pair(np.random.default_rng(3), 30, 30)
    boost = np.diag(1.5 * (np.abs(A.X).sum(axis=1) - np.abs(np.diag(A.X))))
    dec = decompose_comparison(PairXY(A.X + boost, A.Y + boost)).decomposition
    assert dec.m == 465
    path = tmp_path / "cert.json"
    save_certificate(path, dec, "comparison")
    loaded, meta = load_certificate(path)
    doc = json.loads(path.read_text())
    for key, stored, got in (("vs", dec.V, loaded.V), ("ws", dec.W, loaded.W)):
        scalar = np.array([[complex(*z) if isinstance(z, list) else complex(z) for z in v]
                           for v in doc[key]]).T
        assert np.array_equal(got, stored) and np.array_equal(got, scalar)
    assert meta["method"] == "comparison"


def test_pair_round_trip_reads_every_entry_exactly(tmp_path):
    """An n = 30 pair (bare reals beside [re, im] pairs in X, bare reals in Y)
    loads as the arrays that were saved, and as a scalar-by-scalar reading of
    its file."""
    pair = random_decomposable_pair(np.random.default_rng(5), 30, 30)
    path = tmp_path / "pair.json"
    save_pair_document(path, pair, label="round trip")
    loaded, meta = load_pair_document(path)
    doc = json.loads(path.read_text())
    for key, stored, got in (("X", pair.X, loaded.X), ("Y", pair.Y, loaded.Y)):
        scalar = np.array([[complex(*z) if isinstance(z, list) else complex(z) for z in row]
                           for row in doc[key]])
        assert np.array_equal(got, stored) and np.array_equal(got, scalar)
    assert meta == {"label": "round trip"}


PAIR = {"n": 2, "X": [[1.0, 0.0], [0.0, 1.0]], "Y": [[1.0, 0.0], [0.0, 1.0]]}
MALFORMED_FILES = [
    pytest.param("pair", [PAIR], "top level must be an object", id="pair-not-an-object"),
    pytest.param("pair", {**PAIR, "X": []}, "X: expected a non-empty list of rows",
                 id="pair-no-rows"),
    pytest.param("pair", {**PAIR, "Y": [[1.0, 0.0], [0.0]]},
                 "Y: row 2 has length 1, expected 2", id="pair-ragged-rows"),
    pytest.param("pair", {**PAIR, "X": [[], []]}, "X[1]: expected a non-empty list of entries",
                 id="pair-empty-rows"),
    pytest.param("pair", {"n": 2, "X": PAIR["X"]}, "missing required field 'Y'",
                 id="pair-missing-field"),
    pytest.param("pair", {**PAIR, "n": 0}, "field 'n' must be a positive integer",
                 id="pair-bad-n"),
    pytest.param("pair", {**PAIR, "n": 3},
                 "X is (2, 2) and Y is (2, 2), expected (3, 3) for both", id="pair-wrong-shape"),
    pytest.param("state", {"rho": [[1.0]]}, "missing required field 'n'",
                 id="state-missing-field"),
    pytest.param("state", {"n": "1", "rho": [[1.0]]}, "field 'n' must be a positive integer",
                 id="state-bad-n"),
    pytest.param("state", {"n": 2, "rho": [[1.0]]}, "rho is (1, 1), expected (4, 4)",
                 id="state-wrong-shape"),
    pytest.param("certificate", {"vs": [], "ws": [[1.0]]}, "missing or empty field 'vs'",
                 id="certificate-empty-field"),
    pytest.param("certificate", {"vs": [[1.0]]}, "missing or empty field 'ws'",
                 id="certificate-missing-field"),
    pytest.param("certificate", {"vs": [[]], "ws": [[1.0]]},
                 "vs[1]: expected a non-empty list of entries", id="certificate-empty-vector"),
]


@pytest.mark.parametrize("kind, doc, message", MALFORMED_FILES)
def test_a_malformed_file_names_its_location(tmp_path, capsys, kind, doc, message):
    """Each malformed pair, state or certificate file raises a ``PcpkitError`` that
    names the file and the field, and the command reading it exits 1 with that message."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    load = {"pair": load_pair_document, "state": load_state, "certificate": load_certificate}
    with pytest.raises(PcpkitError, match="^" + re.escape(f"{path}: {message}") + "$"):
        load[kind](path)
    argv = {"pair": ["check-pair", path], "state": ["check-state", path],
            "certificate": ["decompose", FIXTURES / "comparison_pair.json", "--verify", path]}
    assert main([str(a) for a in argv[kind]]) == 1
    assert capsys.readouterr().err == f"error: {path}: {message}\n"

import json

import numpy as np
import pytest

from pcpkit import PairXY, decompose_comparison
from pcpkit.errors import PcpkitError
from pcpkit.fileio import load_certificate, save_certificate

from conftest import random_decomposable_pair


def _write(path, vs, ws):
    path.write_text(json.dumps({"n": 2, "m": len(vs), "method": "test", "vs": vs, "ws": ws}))
    return path


@pytest.mark.parametrize("bad", ["1.5", True, [1.0, 2.0, 3.0], [1.0], [[1.0, 2.0], 0.0],
                                 [True, 0.0], ["1", 0.0], None])
@pytest.mark.parametrize("key", ["vs", "ws"])
def test_load_certificate_names_a_malformed_entry(tmp_path, key, bad):
    doc = {"vs": [[1.0, [0.5, -0.5]], [2.0, 3]], "ws": [[1, 2], [[3, 0], 4.0]]}
    doc[key][1][0] = bad
    with pytest.raises(PcpkitError, match=rf"{key}\[2\]\[1\]: expected a number or \[re, im\]"):
        load_certificate(_write(tmp_path / "c.json", doc["vs"], doc["ws"]))


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

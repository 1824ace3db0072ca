"""The known-truth corpus of ``scripts/known_truth.py`` on a seeded slice."""

import importlib.util
from pathlib import Path


def load_corpus():
    path = Path(__file__).resolve().parents[1] / "scripts" / "known_truth.py"
    spec = importlib.util.spec_from_file_location("known_truth", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_corpus_member_is_answered_against_its_truth():
    """Half of every family and size at seed 0, plain and as images: no member
    raises or is answered against its truth, and every rank-one pair is certified."""
    rows = load_corpus().run(seed=0, fraction=0.5)
    assert [r for r in rows if r["raised"] or r["against truth"]] == []
    assert [r for r in rows if r["family"] == "rank-one" and r["inconclusive"]] == []
    # the permutation search reaches n = 8: (BB^T, BB^T) there, 50 per form, is mostly
    # certified (9 inconclusive per form; 46 and 44 when the search stopped at n = 7)
    eight = [r for r in rows if r["family"] == "BB^T, B >= 0" and r["n"] == 8]
    assert len(eight) == 2 and all(r["inconclusive"] <= 15 for r in eight)
    assert {r["family"] for r in rows} == {"BB^T, B >= 0", "DNN, n <= 4", "rank-one",
                                           "5-cycle X_c", "cyclic, a!=1", "cyclic, a=1"}
    # (J, Y_a) fails realignment for every a != 1 and is certified at a = 1
    cyclic = {(r["family"], r["form"]): r for r in rows if r["family"].startswith("cyclic")}
    assert cyclic["cyclic, a!=1", "plain"]["entangled"] == 190
    assert cyclic["cyclic, a=1", "plain"]["separable"] == 10
    assert cyclic["cyclic, a=1", "image"]["separable"] == 10

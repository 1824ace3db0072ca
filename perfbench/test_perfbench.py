"""Self-tests of the benchmark: seeding, generator labels, oracle, tracer counts.

Run with ``python3 -m pytest perfbench -q`` from the root of a checkout.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pcpkit  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

IN_PROCESS = ("verdict-large", "search-small", "spectra")
COUNTS = ("calls_per_op", "attempts_per_op", "useful_ratio", "yield", ".calls",
          "cldui.verdict.")


def _inputs(workload, r):
    """A comparable rendering of round r: arrays, argv and written files."""
    out = []
    for op in workload.make_round(r):
        if isinstance(op, wl.CliCall):
            out.append([a.replace(str(workload.workdir), "") for a in op.argv])
            out += [Path(a).read_text() for a in op.argv if a.startswith(str(workload.workdir))
                    and a.endswith(".json") and Path(a).exists()]
        else:
            out.append((op.label, op.n, [np.asarray(v).tobytes() for v in op.data.values()]))
    return out


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name, tmp_path):
    make = wl.WORKLOADS[name]
    a, b, c = (make(seed, tmp_path / str(k)) for k, seed in enumerate((7, 7, 8)))
    for r in (0, 1):
        assert _inputs(a, r) == _inputs(b, r)
        assert _inputs(a, r) != _inputs(c, r)
    assert _inputs(a, 0) != _inputs(a, 1)


def test_pair_generator_labels():
    rng = np.random.default_rng(3)
    for n in (5, 30, 100):
        X, Y = wl.decomposable_pair(rng, n)
        assert not oracle.condition_d_violated(X, Y)
        assert np.linalg.eigvalsh(X).min() > -1e-9 * np.abs(X).max()
        X, Y = wl.ppt_entangled_pair(rng, n)
        assert oracle.condition_d_violated(X, Y)
        X, Y = wl.realignment_entangled_pair(rng, n)
        assert not oracle.condition_d_violated(X, Y)
        assert oracle.norm_gap(X) > oracle.norm_gap(Y) + 1.0
        X, Y = wl.diagonally_dominant_pair(rng, n)
        off = np.abs(X).sum(axis=1) - np.abs(np.diag(X))
        assert (np.diag(X).real > off).all() and not oracle.condition_d_violated(X, Y)


def test_spectrum_generator_labels():
    rng = np.random.default_rng(4)
    for n in (3, 4, 5):
        first = oracle.ordering_basis(pcpkit.enumerate_orderings(n)[0].slots, n)
        for _ in range(20):
            lam = wl.passing_spectrum(rng, n)
            assert oracle.inside_gurvits_barnum_ball(lam)
            assert lam.min() >= 0 and abs(lam.sum() - 1) < 1e-12 and (np.diff(lam) <= 0).all()
            lam = wl.failing_spectrum(rng, n)
            assert not oracle.inside_gurvits_barnum_ball(lam)
            assert oracle.spectrum_fails_in_basis(first, lam, n)


def test_oracle_rejects_a_perturbed_certificate():
    rng = np.random.default_rng(5)
    V, W = wl._random_factors(rng, 6, 9)
    X, Y = wl._pair_of(V, W)
    assert oracle.certificate_holds(V, W, X, Y)
    W2 = W.copy()
    W2[0, 0] *= 1 + 1e-6
    assert not oracle.certificate_holds(V, W2, X, Y)


def _small(name, tmp_path, seed, monkeypatch, rounds=1):
    cls = wl.WORKLOADS[name]
    monkeypatch.setattr(cls, "fixed_rounds", rounds)
    monkeypatch.setattr(cls, "trace_rounds", rounds)
    return cls(seed, tmp_path / f"{name}-{seed}")


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_small_run_confirms_every_label(name, tmp_path, monkeypatch):
    workload = _small(name, tmp_path, 11, monkeypatch)
    workload.prepare()
    workload.prepare_oracle()
    result = run.measure(workload, 0.0)
    assert result["run"].attempted > 0
    assert result["run"].failed == 0


@pytest.mark.parametrize("name", IN_PROCESS)
def test_counts_repeat_for_a_seed(name, tmp_path, monkeypatch):
    rounds = 4 if name == "search-small" else 1
    first, second = (run.measure_traced(_small(name, tmp_path / str(k), 12, monkeypatch, rounds), 0.0)
                     for k in range(2))
    counts = {k: v for k, v in first["metrics"].items() if any(c in k for c in COUNTS)}
    assert counts["pairs.check_necessary.calls_per_op"][0] > 0
    assert counts == {k: second["metrics"][k] for k in counts}


@pytest.mark.parametrize("name", ("verdict-large", "search-small"))
def test_decided_frac_repeats_for_a_seed(name, tmp_path, monkeypatch):
    fracs = []
    for k in range(2):
        workload = _small(name, tmp_path / str(k), 13, monkeypatch)
        workload.prepare()
        workload.prepare_oracle()
        fracs.append(run.measure(workload, 0.0)["metrics"]["decided_frac"])
    assert fracs[0] == fracs[1]

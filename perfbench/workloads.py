"""The four workloads: seeded inputs, the operation each one times, and its oracle.

Every workload produces its inputs in rounds.  Round ``r`` of seed ``s`` is
drawn from ``SeedSequence([s, r, salt])`` and has a fixed composition, so a
run that completes whole rounds always mixes the input classes in the same
proportions, and the same seed always yields the same inputs.  The program
only ever sees the generated matrices, spectra and files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Calls go through the package namespace so that the tracer's rebinding of
# ``pcpkit.<name>`` reaches them.
import pcpkit

import oracle
from tracer import Aggregate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = ROOT / "tests" / "fixtures"

DECOMPOSABLE, PPT, REALIGNMENT = "decomposable", "ppt-entangled", "realignment-entangled"
SPECTRUM_PASS, SPECTRUM_FAIL = "abs-ppt", "not-abs-ppt"


@dataclass
class Op:
    label: str
    n: int
    data: dict = field(default_factory=dict)


# ------------------------------------------------------------------ generators

def round_rng(seed: int, r: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed % 2**63, r, salt]))


def _random_factors(rng, n: int, m: int):
    V = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    W = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    return V, W


def _pair_of(V, W):
    A = V * W
    return A @ A.conj().T, ((np.abs(V) ** 2) @ (np.abs(W) ** 2).T).astype(complex)


def decomposable_pair(rng, n: int):
    """X = sum (v.w)(v.w)*, Y = |V|^2 |W|^2^T for random V, W with m in [n, 2n+1] terms."""
    return _pair_of(*_random_factors(rng, n, int(rng.integers(n, 2 * n + 2))))


def diagonally_dominant_pair(rng, n: int):
    """A decomposable pair plus one diagonal term per index, so X is diagonally dominant."""
    X, Y = _pair_of(*_random_factors(rng, n, n))
    boost = 1.5 * (np.abs(X).sum(axis=1) - np.abs(np.diag(X)))
    return X + np.diag(boost), Y + np.diag(boost)


def ppt_entangled_pair(rng, n: int):
    """A decomposable pair with one y_ij lowered below |x_ij|^2 / y_ji."""
    X, Y = decomposable_pair(rng, n)
    i, j = rng.choice(n, size=2, replace=False)
    Y[i, j] = rng.uniform(0.2, 0.8) * abs(X[i, j]) ** 2 / Y[j, i].real
    return X, Y


def realignment_entangled_pair(rng, n: int):
    """A permuted direct sum of 3x3 cyclic blocks (a != 1), padded with 1x1 blocks.

    Each cyclic block has gap(X_b) = 6c > gap(Y_b) and |x_ij|^2 = y_ij y_ji,
    and both norms add over a direct sum, so PPT holds and realignment fails.
    """
    X = np.zeros((n, n), complex)
    Y = np.zeros((n, n), complex)
    for b in range(n // 3):
        c = rng.uniform(0.5, 2.0)
        a = rng.uniform(1.5, 4.0) ** rng.choice([-1, 1])
        s = slice(3 * b, 3 * b + 3)
        X[s, s] = c
        Y[s, s] = c * np.array([[1, a, 1 / a], [1 / a, 1, a], [a, 1 / a, 1]])
    for k in range(3 * (n // 3), n):
        X[k, k] = Y[k, k] = rng.uniform(0.5, 2.0)
    p = rng.permutation(n)
    return X[np.ix_(p, p)], Y[np.ix_(p, p)]


def passing_spectrum(rng, n: int) -> np.ndarray:
    """A Dirichlet spectrum pulled into the Gurvits-Barnum ball (purity <= 1/(d-1)).

    Every state in that ball is separable, so the spectrum is absolutely PPT.
    """
    d = n * n
    delta = rng.dirichlet(np.ones(d)) - 1.0 / d
    t_max = np.sqrt((1.0 / (d - 1) - 1.0 / d) / (delta @ delta))
    lam = 1.0 / d + min(1.0, t_max * rng.uniform(0.3, 0.95)) * delta
    return np.sort(lam)[::-1]


def failing_spectrum(rng, n: int) -> np.ndarray:
    """One eigenvalue in [0.6, 0.9], the rest Dirichlet(0.5): far from absolutely PPT."""
    top = rng.uniform(0.6, 0.9)
    rest = (1.0 - top) * rng.dirichlet(np.full(n * n - 1, 0.5))
    return np.sort(np.concatenate([[top], rest]))[::-1]


PAIR_MAKERS = {
    DECOMPOSABLE: decomposable_pair,
    PPT: ppt_entangled_pair,
    REALIGNMENT: realignment_entangled_pair,
}


# ------------------------------------------------------------------ workloads

class Workload:
    """Base: ``execute`` is the timed call, ``check`` the oracle run after it."""

    name = ""
    salt = 0
    fixed_rounds = 1      # rounds always completed; ``decided_frac`` is taken over them
    trace_rounds = 1      # rounds replayed by the traced run
    composition: dict = {}

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def prepare(self) -> None:
        """One-time program-side preparation, part of ``setup_s``."""

    def prepare_oracle(self) -> None:
        """Reference data for the checks; not part of ``setup_s``."""

    def make_round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def execute(self, op: Op):
        raise NotImplementedError

    def execute_traced(self, op: Op, tracer):
        with tracer.section():
            return self.execute(op)

    def check(self, op: Op, out) -> tuple[bool, bool]:
        """(correct, decided) for one operation's result."""
        raise NotImplementedError

    def finish_round(self, r: int) -> None:
        """Drop per-round scratch data once its checks are done."""


class VerdictWorkload(Workload):
    """``separability_verdict`` on generated pairs, one verdict per operation."""

    def prepare(self) -> None:
        X, Y = decomposable_pair(np.random.default_rng(0), 4)
        pcpkit.separability_verdict(pcpkit.PairXY(X, Y))

    def make_round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r, self.salt)
        ops = [Op(label, n, dict(zip("XY", PAIR_MAKERS[label](rng, n))))
               for n, mix in self.composition.items()
               for label, count in mix.items() for _ in range(count)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def execute(self, op: Op):
        return pcpkit.separability_verdict(pcpkit.PairXY(op.data["X"], op.data["Y"]))

    def check(self, op: Op, out) -> tuple[bool, bool]:
        if op.label == PPT:
            return out.verdict == "entangled" and out.criterion == "ppt", True
        if op.label == REALIGNMENT:
            return out.verdict == "entangled" and out.criterion == "realignment", True
        if out.verdict == "separable":
            cert = out.certificate
            return oracle.certificate_holds(cert.V, cert.W, op.data["X"], op.data["Y"]), True
        return out.verdict == "inconclusive", False


class VerdictLarge(VerdictWorkload):
    name = "verdict-large"
    salt = 1
    fixed_rounds = 20
    trace_rounds = 2
    composition = {
        30: {DECOMPOSABLE: 4, PPT: 1, REALIGNMENT: 1},
        60: {DECOMPOSABLE: 4, PPT: 1, REALIGNMENT: 1},
        100: {DECOMPOSABLE: 6, PPT: 1, REALIGNMENT: 1},
    }


class SearchSmall(VerdictWorkload):
    name = "search-small"
    salt = 2
    fixed_rounds = 200
    trace_rounds = 50
    composition = {5: {DECOMPOSABLE: 1}, 6: {DECOMPOSABLE: 1}}


class Spectra(Workload):
    """``abs_ppt_check`` per spectrum, plus every ordering's certificate when it passes."""

    name = "spectra"
    salt = 3
    fixed_rounds = 3
    trace_rounds = 1
    composition = {
        3: {SPECTRUM_FAIL: 1, SPECTRUM_PASS: 4},
        4: {SPECTRUM_FAIL: 1, SPECTRUM_PASS: 2},
        5: {SPECTRUM_FAIL: 1, SPECTRUM_PASS: 2},
    }

    def prepare(self) -> None:
        self.tables = {n: pcpkit.enumerate_orderings(n) for n in self.composition}

    def prepare_oracle(self) -> None:
        self.bases = {n: [oracle.ordering_basis(t.slots, n) for t in tables]
                      for n, tables in self.tables.items()}

    def make_round(self, r: int) -> list[Op]:
        rng = round_rng(self.seed, r, self.salt)
        makers = {SPECTRUM_PASS: passing_spectrum, SPECTRUM_FAIL: failing_spectrum}
        ops = [Op(label, n, {"lam": makers[label](rng, n)})
               for n, mix in self.composition.items()
               for label, count in mix.items() for _ in range(count)]
        return [ops[i] for i in rng.permutation(len(ops))]

    def execute(self, op: Op):
        tables = self.tables[op.n]
        lam = op.data["lam"]
        passes, failing = pcpkit.abs_ppt_check(op.n, lam, orderings=tables)
        certs = [pcpkit.certify_special_separable(t, lam) for t in tables] if passes else []
        return passes, failing, certs

    def check(self, op: Op, out) -> tuple[bool, bool]:
        passes, failing, certs = out
        lam, bases = op.data["lam"], self.bases[op.n]
        if op.label == SPECTRUM_FAIL:
            return (not passes and failing is not None
                    and oracle.spectrum_fails_in_basis(bases[failing], lam, op.n)), True
        return passes and len(certs) == len(bases) and all(
            cert.ok and oracle.certificate_holds(cert.decomposition.V, cert.decomposition.W,
                                                 *oracle.rotated_pair(U, lam, op.n))
            for U, cert in zip(bases, certs)), True


@dataclass
class CliCall:
    argv: list[str]
    expect: frozenset
    pair: tuple | None = None          # (X, Y) the command reads, for certificate checks
    cert: str | None = None            # certificate the command writes on success
    needs: str | None = None           # file that must exist for the call to run
    certify: tuple | None = None       # (n, lambdas, out_dir) for abs-ppt --certify

    @property
    def label(self) -> str:
        return " ".join(self.argv[:2])


class Cli(Workload):
    """Sequential ``python -m pcpkit`` processes over all four subcommands."""

    name = "cli"
    salt = 4
    fixed_rounds = 2
    trace_rounds = 1
    composition = {
        "check-pair": "2 fixtures, decomposable and PPT-entangled n=30",
        "decompose": "fixture with --perms, diagonally dominant n=30, decomposable n=6 "
                     "with --perms; each --out followed by --verify",
        "check-state": "2 fixtures, decomposable, PPT- and realignment-entangled n=30",
        "abs-ppt": "pass and fail at n=3, 3 fails at n=5, pass at n=5 with --certify",
    }

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PCPKIT_SEED")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.walls: dict[str, list[float]] = {}
        self.import_ms: list[float] = []

    def _run(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(argv, cwd=self.workdir, env=self.env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=150)

    def prepare(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self._run([sys.executable, "-m", "pcpkit", "check-pair", str(FIXTURES / "cyclic_a1.json")])

    def prepare_oracle(self) -> None:
        self.bases5 = [oracle.ordering_basis(t.slots, 5) for t in pcpkit.enumerate_orderings(5)]

    def make_round(self, r: int) -> list[CliCall]:
        rng = round_rng(self.seed, r, self.salt)
        d = self.workdir / f"round{r}"
        (d / "certs").mkdir(parents=True, exist_ok=True)

        def pair_file(name, X, Y):
            path = d / f"{name}.json"
            path.write_text(json.dumps({"n": X.shape[0], "X": _emit(X), "Y": _emit(Y)}))
            return str(path), (X, Y)

        def fixture(name):
            path = FIXTURES / f"{name}.json"
            return str(path), oracle.read_pair_file(path)

        dec30, dec30_xy = pair_file("dec30", *decomposable_pair(rng, 30))
        ppt30, _ = pair_file("ppt30", *ppt_entangled_pair(rng, 30))
        cyc30, _ = pair_file("cyc30", *realignment_entangled_pair(rng, 30))
        dd30, dd30_xy = pair_file("dd30", *diagonally_dominant_pair(rng, 30))
        dec6, dec6_xy = pair_file("dec6", *decomposable_pair(rng, 6))
        retry, retry_xy = fixture("permutation_retry_pair")
        # Three failing n=5 calls cost the same (start-up plus one enumeration),
        # which puts a homogeneous cluster where the upper percentile falls.
        spectra = [(n, maker(rng, n)) for n, maker in
                   [(3, passing_spectrum), (3, failing_spectrum), (5, failing_spectrum),
                    (5, failing_spectrum), (5, failing_spectrum), (5, passing_spectrum)]]

        def code(*codes):
            return frozenset(codes)

        calls = [
            CliCall(["check-pair", str(FIXTURES / "cyclic_a1.json")], code(0)),
            CliCall(["check-pair", str(FIXTURES / "cyclic_a2.json")], code(2)),
            CliCall(["check-pair", dec30], code(0)),
            CliCall(["check-pair", ppt30], code(2)),
        ]
        for k, (path, xy, extra, codes) in enumerate([
            (retry, retry_xy, ["--method", "recursive", "--perms"], code(0)),
            (dd30, dd30_xy, [], code(0)),
            (dec6, dec6_xy, ["--perms"], code(0, 3)),
        ]):
            cert = str(d / f"cert{k}.json")
            calls.append(CliCall(["decompose", path, *extra, "--out", cert], codes, xy, cert))
            calls.append(CliCall(["decompose", path, "--verify", cert], code(0), needs=cert))
        calls += [
            CliCall(["check-state", str(FIXTURES / "inconclusive_pair.json")], code(4)),
            CliCall(["check-state", str(FIXTURES / "dense_state_n2.json")], code(0)),
            CliCall(["check-state", dec30], code(0, 4)),
            CliCall(["check-state", ppt30], code(2)),
            CliCall(["check-state", cyc30], code(2)),
        ]
        for n, lam in spectra:
            argv = ["abs-ppt", "--n", str(n), "--lambdas", ",".join(repr(float(x)) for x in lam)]
            passes = oracle.inside_gurvits_barnum_ball(lam)
            if n == 5 and passes:
                argv += ["--certify", "--out-dir", str(d / "certs")]
                calls.append(CliCall(argv, code(0), certify=(n, lam, d / "certs")))
            else:
                calls.append(CliCall(argv, code(0) if passes else code(2)))
        return calls

    def execute(self, call: CliCall):
        if call.needs is not None and not Path(call.needs).exists():
            return None
        return self._run([sys.executable, "-m", "pcpkit", *call.argv])

    def execute_traced(self, call: CliCall, tracer):
        if call.needs is not None and not Path(call.needs).exists():
            return None
        spans = self.workdir / "spans.json"
        start = time.perf_counter()
        proc = self._run([sys.executable, str(HERE / "launch.py"), str(spans), *call.argv])
        self.walls.setdefault(call.argv[0], []).append((time.perf_counter() - start) * 1e3)
        doc = json.loads(spans.read_text())
        spans.unlink()
        self.import_ms.append(doc.pop("import_ns") / 1e6)
        tracer.agg.merge(Aggregate.from_json(doc))
        return proc

    def check(self, call: CliCall, proc) -> tuple[bool, bool]:
        code = proc.returncode
        if code not in call.expect:
            sys.stderr.write(f"cli: {call.argv[:2]} exited {code}, expected {sorted(call.expect)}\n"
                             f"{proc.stderr[-500:]}")
            return False, code in (0, 2)
        if code == 0 and call.cert is not None:
            V, W = oracle.read_certificate_file(Path(call.cert))
            return oracle.certificate_holds(V, W, *call.pair), True
        if call.certify is not None:
            n, lam, out_dir = call.certify
            paths = [out_dir / f"ordering_{idx}_certificate.json" for idx in range(len(self.bases5))]
            return all(path.exists() and oracle.certificate_holds(
                *oracle.read_certificate_file(path), *oracle.rotated_pair(U, lam, n))
                for path, U in zip(paths, self.bases5)), True
        return True, code in (0, 2)

    def finish_round(self, r: int) -> None:
        shutil.rmtree(self.workdir / f"round{r}", ignore_errors=True)


def _emit(M: np.ndarray) -> list:
    return [[z.real if z.imag == 0.0 else [z.real, z.imag] for z in map(complex, row)] for row in M]


WORKLOADS = {w.name: w for w in (VerdictLarge, SearchSmall, Spectra, Cli)}

"""Command line interface.

Subcommands:

* ``check-pair``   -- evaluate the five necessary conditions on a pair file.
* ``decompose``    -- run a construction route and optionally write or verify
                      a certificate file.
* ``check-state``  -- separability analysis of a pair file or a dense state
                      file (detected by the presence of a ``rho`` field).
* ``abs-ppt``      -- spectrum test across realizable orderings, optionally
                      writing a separability certificate per ordering.

Each ``cmd_*`` returns one result, ``(JSON payload, text lines, exit code)``, and
:func:`main` prints either the lines or, with ``--json``, the payload.

Exit codes: 0 success/pass, 1 I/O or parse failure, 2 condition violated /
entangled / test failed, 3 construction not applicable, 4 inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import abssep, cldui, construct, fileio, linalg
from . import tolerances as tol
from .errors import ConditionsViolatedError, NotClduiError, PcpkitError
from .pairs import PairXY, residuals

EXIT_OK = 0
EXIT_IO = 1
EXIT_VIOLATED = 2
EXIT_NOT_APPLICABLE = 3
EXIT_INCONCLUSIVE = 4

_CONDITION_TEXT = {
    "a": "(a) X Hermitian positive semidefinite",
    "b": "(b) Y real with non-negative entries",
    "c": "(c) diagonals of X and Y agree",
    "d": "(d) |x_ij|^2 <= y_ij y_ji",
    "e": "(e) 1-norm/trace-norm gap of X <= that of Y",
}


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    return value


def _report_payload(report) -> dict:
    return {
        "holds": {c: getattr(report, f"holds_{c}") for c in "abcde"},
        "x_gap": report.x_gap,
        "y_gap": report.y_gap,
        "witnesses": _jsonable(report.witnesses),
    }


def cmd_check_pair(args) -> tuple[dict, list[str], int]:
    pair, _ = fileio.load_pair_document(args.pair)
    report = pair.report
    lines = [f"pair: {args.pair} (n = {pair.n})"]
    for c in "abcde":
        ok = getattr(report, f"holds_{c}")
        line = f"{_CONDITION_TEXT[c]:<48} {'PASS' if ok else 'FAIL'}"
        if not ok and c in report.witnesses:
            line += f"  witness: {_jsonable(report.witnesses[c])}"
        lines.append(line)
    lines.append(f"norm gaps: gap(X) = {report.x_gap:.9g}, gap(Y) = {report.y_gap:.9g}")
    lines.append("verdict: all necessary conditions hold" if report.all_hold else
                 f"verdict: conditions {report.failing()} violated; not decomposable")
    return ({"n": pair.n, **_report_payload(report)}, lines,
            EXIT_OK if report.all_hold else EXIT_VIOLATED)


_METHODS = {"auto": lambda pair, perms: construct.decompose_auto(pair, search_permutations=perms),
            **construct.ROUTES}


def cmd_decompose(args) -> tuple[dict, list[str], int]:
    pair, _ = fileio.load_pair_document(args.pair)

    if args.verify is not None:
        dec, meta = fileio.load_certificate(args.verify)
        res = residuals(dec, pair)
        ok = res.within()
        return ({"verified": ok, "residual_x": res.x, "residual_y": res.y,
                 "m": dec.m, "method": meta.get("method")},
                [f"certificate: {args.verify} ({dec.m} terms)",
                 f"residuals: X {res.x:.3e}, Y {res.y:.3e}",
                 f"verdict: {'verified' if ok else 'FAILED verification'}"],
                EXIT_OK if ok else EXIT_VIOLATED)

    out = _METHODS[args.method](pair, args.perms)
    payload = {"method": out.method, "status": out.status, "reason": out.reason}
    lines = [f"method: {out.method}",
             f"status: {out.status}" + (f" ({out.reason})" if out.reason else "")]
    if out.ok:
        payload.update({"m": out.decomposition.m, "residual_x": out.residuals.x,
                        "residual_y": out.residuals.y})
        lines += [f"terms: {out.decomposition.m}",
                  f"residuals: X {out.residuals.x:.3e}, Y {out.residuals.y:.3e}"]
        if out.permutation is not None:
            payload["permutation"] = list(out.permutation)
            if payload["permutation"] != sorted(out.permutation):
                lines.append(f"permutation: {payload['permutation']}")
        if args.out:
            fileio.save_certificate(args.out, out.decomposition, out.method, out.permutation)
            payload["certificate"] = str(args.out)
            lines.append(f"certificate written to {args.out}")
        return payload, lines, EXIT_OK
    for key in ("witness", "methods"):
        if out.info.get(key) is not None:
            payload[key] = _jsonable(out.info[key])
            lines.append(f"{key}: {payload[key]}")
    return payload, lines, (EXIT_VIOLATED if out.status == construct.CONDITIONS_VIOLATED
                            else EXIT_NOT_APPLICABLE)


def cmd_check_state(args) -> tuple[dict, list[str], int]:
    pair, source = fileio.load_state(args.state)

    if args.normalize:
        weight = cldui.ClduiState(pair).trace
        if weight <= 0.0:
            raise PcpkitError("cannot normalize: the state has non-positive trace")
        pair = PairXY(pair.X / weight, pair.Y / weight)

    report = pair.report
    lines = [f"state: {args.state} ({source} form, n = {pair.n})"]
    payload = {"n": pair.n, "form": source, **_report_payload(report)}
    if not report.holds_abc:
        payload["verdict"] = "invalid"
        return payload, lines + [f"not a state: conditions {report.failing()} fail"], EXIT_VIOLATED

    verdict = cldui.separability_verdict(pair)
    state = cldui.ClduiState(pair)
    trace = state.trace
    lines.append(f"trace: {trace:.9g}")
    lines.append(f"ppt criterion: {'PASS' if report.holds_d else 'FAIL'}")
    lines.append(
        f"realignment criterion: {'PASS' if report.holds_e else 'FAIL'} "
        f"(gap(X) = {report.x_gap:.9g}, gap(Y) = {report.y_gap:.9g})"
    )
    payload.update({
        "trace": trace,
        "ppt": report.holds_d,
        "realignment": {"passes": report.holds_e,
                        "x_gap": report.x_gap, "y_gap": report.y_gap},
    })

    if args.dense_crosscheck:
        dense = state.dense
        # the partial transpose holds X's diagonal at (ii, ii) and 2x2 blocks on {ij, ji}; a
        # unit-determinant diagonal congruence balances each block, so its eigenvalues are
        # accurate however uneven y_ij / y_ji is, and their product is held to (d)'s slack
        n = pair.n
        pt = cldui.partial_transpose(dense, n)
        diag = pt.diagonal().real
        i, j = np.triu_indices(n, 1)
        ij, ji = i * n + j, j * n + i
        blocks = np.zeros((i.size, 2, 2), complex)
        blocks[:, 0, 0] = blocks[:, 1, 1] = np.sqrt(np.maximum(diag[ij] * diag[ji], 0.0))
        blocks[:, 1, 0] = pt[ji, ij]
        det = np.linalg.eigvalsh(blocks).prod(axis=-1)
        slack = tol.ZERO * tol.scale(float(diag[::n + 1].max())) ** 2
        pt_psd = bool(linalg.psd_spectrum(diag)[0] and np.all(det >= -slack))
        r_trace = linalg.trace_norm(cldui.realign_map(dense, n))
        dense_realign = r_trace <= trace + tol.GAP * tol.scale(trace)
        lines.append(
            f"dense cross-check: PT PSD {pt_psd} (agrees: {pt_psd == report.holds_d}), "
            f"realigned trace norm {r_trace:.9g} vs trace {trace:.9g} "
            f"(agrees: {dense_realign == report.holds_e})"
        )
        payload["dense_crosscheck"] = {
            "pt_psd": pt_psd,
            "realigned_trace_norm": r_trace,
            "agrees": bool(pt_psd == report.holds_d and dense_realign == report.holds_e),
        }

    payload["verdict"] = verdict.verdict
    if verdict.verdict == cldui.ENTANGLED:
        lines.append(f"verdict: entangled (by the {verdict.criterion} criterion)")
        payload["criterion"] = verdict.criterion
    elif verdict.verdict == cldui.SEPARABLE:
        lines.append(f"verdict: separable (certificate via the {verdict.criterion} route)")
        payload["criterion"] = verdict.criterion
        if args.out:
            fileio.save_certificate(args.out, verdict.certificate,
                                    verdict.outcome.method, verdict.outcome.permutation)
            lines.append(f"certificate written to {args.out}")
            payload["certificate"] = str(args.out)
    else:
        lines.append("verdict: inconclusive (criteria pass, no construction route applied)")
        if verdict.outcome is not None:
            payload["methods"] = _jsonable(verdict.outcome.info.get("methods", {}))

    if verdict.verdict == cldui.SEPARABLE:
        return payload, lines, EXIT_OK
    if verdict.verdict == cldui.ENTANGLED:
        return payload, lines, EXIT_VIOLATED
    return payload, lines, EXIT_INCONCLUSIVE


def _read_lambdas(raw: str) -> list[float]:
    if raw.startswith("@"):
        path = Path(raw[1:])
        try:
            text = path.read_text()
        except OSError as exc:
            raise PcpkitError(f"cannot read {path}: {exc}") from exc
        tokens = text.replace(",", " ").split()
    else:
        tokens = raw.replace(",", " ").split()
    try:
        return [float(t) for t in tokens]
    except ValueError as exc:
        raise PcpkitError(f"spectrum entries must be numbers: {exc}") from exc


def cmd_abs_ppt(args) -> tuple[dict, list[str], int]:
    # sorted as the check sorts it, so the certificates share the check's spectrum record
    lam = -np.sort(-np.asarray(_read_lambdas(args.lambdas), dtype=float))
    orderings = abssep.enumerate_orderings(args.n)
    minima, passing = abssep.ordering_min_eigenvalues(args.n, lam, orderings=orderings)
    passes = bool(passing.all())
    failing = None if passes else int(np.argmin(passing))

    payload = {"n": args.n, "orderings": len(orderings), "passes": passes,
               "failing_ordering": failing}
    lines = [f"n = {args.n}: {len(orderings)} realizable orderings"]
    certificates, uncertified = [], []
    for idx, (ordering, min_eig, ok) in enumerate(zip(orderings, minima, passing)):
        lines.append(f"ordering {idx}: min eigenvalue {min_eig:.9g} -> {'PASS' if ok else 'FAIL'}")
        if args.certify and ok:
            out = abssep.certify_special_separable(ordering, lam)
            if not out.ok:
                # the check passes within its PSD floor, but the split declines
                uncertified.append(idx)
                lines.append(f"ordering {idx}: no certificate ({out.reason})")
                continue
            path = Path(args.out_dir) / f"ordering_{idx}_certificate.json"
            fileio.save_certificate(path, out.decomposition, out.method,
                                    ordering_index=idx)
            certificates.append(str(path))
            lines.append(f"ordering {idx}: certificate written to {path}")
    if certificates:
        payload["certificates"] = certificates
    if uncertified:
        payload["uncertified"] = uncertified
    lines.append("verdict: " + ("spectrum stays PPT under every global unitary"
                                if passes else
                                f"test fails at ordering {failing}"))

    if not passes:
        return payload, lines, EXIT_VIOLATED
    return payload, lines, EXIT_NOT_APPLICABLE if uncertified else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcpkit",
        description="Certify or refute joint rank-one decomposability of matrix pairs "
                    "and analyze the matching family of bipartite states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-pair", help="evaluate the five necessary conditions")
    p.add_argument("pair", help="pair JSON file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=cmd_check_pair)

    p = sub.add_parser("decompose", help="run a construction route")
    p.add_argument("pair", help="pair JSON file")
    p.add_argument("--method", choices=sorted(_METHODS), default="auto",
                   help="comparison split, row-by-row elimination, or both in that order (auto)")
    p.add_argument("--perms", action="store_true",
                   help="retry the row-by-row route under every simultaneous permutation "
                        "for n <= 8 (only the identity beyond)")
    p.add_argument("--out", help="write the certificate to this JSON file")
    p.add_argument("--verify", metavar="CERT",
                   help="verify an existing certificate file against the pair")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("check-state", help="separability analysis of a state")
    p.add_argument("state", help="pair JSON file or dense state JSON file")
    p.add_argument("--normalize", action="store_true",
                   help="rescale to unit trace before the analysis")
    p.add_argument("--dense-crosscheck", action="store_true",
                   help="also run the dense-matrix versions of both criteria")
    p.add_argument("--out", help="write the separability certificate here on success")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_state)

    p = sub.add_parser("abs-ppt", help="spectrum test across realizable orderings")
    p.add_argument("--n", type=int, required=True, help="local dimension (2-5)")
    p.add_argument("--lambdas", required=True,
                   help="n^2 eigenvalues, comma/space separated, or @file")
    p.add_argument("--certify", action="store_true",
                   help="write a separability certificate per passing ordering")
    p.add_argument("--out-dir", default=".", help="directory for certificate files")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_abs_ppt)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, lines, code = args.func(args)
    except PcpkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ConditionsViolatedError):
            return EXIT_VIOLATED
        return EXIT_NOT_APPLICABLE if isinstance(exc, NotClduiError) else EXIT_IO
    print(json.dumps(payload, indent=2) if args.json else "\n".join(lines))
    return code


if __name__ == "__main__":
    sys.exit(main())

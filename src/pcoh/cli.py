"""Command-line front end: JSON in, JSON or text report out.

Subcommands map one-to-one onto the library surface::

    pcoh coherence -i assessments.json
    pcoh prevision -i assessments.json --gamble gamble.json --side lower
    pcoh witness   -i state.json --epsilon 1e-3
    pcoh chsh      -i state.json [--angles a1 a2 b1 b2] [--sweep N --csv out.csv]
    pcoh sos       [--input poly.json | --motzkin classic|soft]
    pcoh charge    -i state.json [--support sup.json | --random K | --bell-table]

Exit codes: 0 success, 2 domain/validation error, 3 solver failure.  All
numeric text output carries 10 significant digits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from . import charges, entangle, gambles, io, realsos
from .errors import PcohError, SolverFailure, ValidationError
from .fixtures import bell_density_matrix
from .quantum import DensityState

_DEFAULT_ANGLES = (np.pi / 2.0, 0.0, np.pi / 4.0, -np.pi / 4.0)


def _fmt(x) -> str:
    return f"{float(x):.10g}"


@dataclass
class RunReport:
    command: str
    inputs_digest: str
    seed: int
    results: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    wall_time_ms: float = 0.0

    def to_dict(self):
        return {
            "command": self.command,
            "inputs_digest": self.inputs_digest,
            "seed": self.seed,
            "results": _jsonable(self.results),
            "residuals": _jsonable(self.residuals),
            "wall_time_ms": self.wall_time_ms,
        }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if np.iscomplexobj(obj):
            return io.vector_to_json(obj.reshape(-1))
        return [float(v) for v in obj.reshape(-1)]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if part is None:
            h.update(b"\x00")
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(str(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()[:16]


def _read_file(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _load_state(args) -> tuple:
    if getattr(args, "bell", False):
        return DensityState(bell_density_matrix(), (2, 2)), b"builtin:bell"
    if not args.input:
        raise ValidationError("provide --input STATE.json or --bell")
    raw = _read_file(args.input)
    return io.state_from_json(json.loads(raw)), raw


def _print_report(report: RunReport, args, lines):
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_coherence(args) -> tuple[RunReport, list[str]]:
    raw = _read_file(args.input)
    assessments = io.assessments_from_json(json.loads(raw))
    verdict = gambles.is_p_coherent(assessments)
    report = RunReport("coherence", _digest(raw), args.seed)
    report.results = {
        "p_coherent": verdict.p_coherent,
        "margin": verdict.margin,
        "certificate": verdict.certificate,
    }
    lines = [
        f"assessments: {len(assessments.gambles)} gambles on dims {list(assessments.dims)}",
        f"P-coherent: {verdict.p_coherent}",
        f"margin: {_fmt(verdict.margin)}",
    ]
    if verdict.certificate is not None:
        lines.append("certificate lambda: " + " ".join(_fmt(v) for v in verdict.certificate))
    return report, lines


def _cmd_prevision(args) -> tuple[RunReport, list[str]]:
    raw = _read_file(args.input)
    assessments = io.assessments_from_json(json.loads(raw))
    graw = _read_file(args.gamble)
    f = io.gamble_from_json(json.loads(graw), dims=assessments.dims)
    if args.side == "lower":
        value = gambles.lower_prevision(assessments, f)
    else:
        value = gambles.upper_prevision(assessments, f)
    report = RunReport("prevision", _digest(raw, graw, args.side), args.seed)
    report.results = {"side": args.side, "value": value}
    return report, [f"{args.side} prevision: {_fmt(value)}"]


def _cmd_witness(args) -> tuple[RunReport, list[str]]:
    state, raw = _load_state(args)
    cfg = entangle.ProductStateSearchConfig(seed=args.seed)
    ppt = entangle.ppt_check(state)
    report = RunReport("witness", _digest(raw, args.epsilon, args.seed), args.seed)
    if ppt.is_ppt:
        report.results = {"ppt": True, "conclusive": ppt.conclusive, "certificate": None}
        label = "separable (PPT)" if ppt.conclusive else "PPT (inconclusive for these dims)"
        return report, [label]
    cert = entangle.dutch_book_certificate(state, epsilon=args.epsilon, cfg=cfg)
    report.results = {
        "ppt": False,
        "conclusive": ppt.conclusive,
        "certificate": {
            "epsilon": cert.epsilon,
            "trace_value": cert.trace_value,
            "product_sup": cert.product_sup,
            "gamble": io.gamble_to_json(cert.gamble),
        },
    }
    lines = [
        "entangled (partial transpose has a negative eigenvalue)",
        f"certificate: Tr(W'' rho) = {_fmt(cert.trace_value)}",
        f"product-state supremum = {_fmt(cert.product_sup)} (epsilon {_fmt(cert.epsilon)})",
    ]
    return report, lines


def _cmd_chsh(args) -> tuple[RunReport, list[str]]:
    if args.sweep < 0:
        raise ValidationError(f"--sweep must be nonnegative, got {args.sweep}")
    state, raw = _load_state(args)
    angles = tuple(args.angles) if args.angles else _DEFAULT_ANGLES
    value = entangle.chsh_value(state, angles)
    report = RunReport("chsh", _digest(raw, *angles, args.sweep), args.seed)
    report.results = {"angles": list(angles), "value": value}
    lines = [f"chsh value: {_fmt(value)}"]
    if args.sweep:
        betas = np.linspace(0.0, np.pi, args.sweep)
        values = [
            entangle.chsh_value(state, (angles[0], angles[1], b, angles[3]))
            for b in betas
        ]
        peak = int(np.argmax(values))
        report.results["sweep"] = {
            "beta1": [float(b) for b in betas],
            "value": [float(v) for v in values],
            "peak_beta1": float(betas[peak]),
        }
        lines.append(f"sweep peak at beta1 = {_fmt(betas[peak])}")
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("beta1,value\n")
                for b, v in zip(betas, values):
                    fh.write(f"{b:.10g},{v:.10g}\n")
            lines.append(f"wrote {args.csv}")
    return report, lines


def _cmd_sos(args) -> tuple[RunReport, list[str]]:
    if args.motzkin:
        poly = realsos.motzkin(args.motzkin)
        raw = f"builtin:motzkin:{args.motzkin}".encode()
    else:
        if not args.input:
            raise ValidationError("provide --input POLY.json or --motzkin classic|soft")
        raw = _read_file(args.input)
        poly = io.poly_from_json(json.loads(raw))
    verdict = realsos.sos_check_detail(poly)
    report = RunReport("sos", _digest(raw), args.seed)
    report.results = {"is_sos": verdict.is_sos, "margin": verdict.margin}
    lines = [
        f"sum of squares: {verdict.is_sos}",
        f"gram margin: {_fmt(verdict.margin)}",
    ]
    if verdict.is_sos:
        report.results["coefficient_residual"] = verdict.gram.coefficient_residual
        lines.append(f"coefficient residual: {_fmt(verdict.gram.coefficient_residual)}")
    else:
        report.results["certificate_value"] = verdict.certificate_value
        lines.append(
            f"separating moment functional value: {_fmt(verdict.certificate_value)}"
        )
    if args.motzkin:
        fixture = realsos.entangled_moment_fixture()
        accepted = realsos.moment_functional(fixture, -poly)
        report.results["moment_fixture_accepts_negation"] = accepted
        lines.append(
            f"moment fixture functional of the negated polynomial: {_fmt(accepted)}"
        )
    return report, lines


def _cmd_charge(args) -> tuple[RunReport, list[str]]:
    state, raw = _load_state(args)
    if args.bell_table:
        fixture = charges.bell_charge_fixture()
        moments = charges.charge_moment_matrix(fixture)
        residual = float(np.linalg.norm(moments - state.matrix))
        corner = gambles.Gamble(np.diag([1.0, 0.0, 0.0, 0.0]), state.dims)
        report = RunReport("charge", _digest(raw, "bell-table"), args.seed)
        report.results = {
            "source": "bell-table",
            "weights": fixture.weights,
            "moment_residual": residual,
            "corner_monomial_moment": charges.charge_moment(fixture, corner),
        }
        lines = [
            f"table replay moment residual: {_fmt(residual)}",
            f"corner monomial moment: {_fmt(report.results['corner_monomial_moment'])}",
        ]
        return report, lines
    if args.support:
        sraw = _read_file(args.support)
        support = io.support_from_json(json.loads(sraw))
        source = f"file:{args.support}"
    elif args.random:
        support = charges.random_product_support(state.dims, args.random, args.seed)
        source = f"random:{args.random}"
    else:
        raise ValidationError("provide --support FILE, --random K, or --bell-table")
    charge, residual = charges.fit_signed_charge(state, support)
    feasible = charges.nonneg_fit_feasible(state, support, args.fit_tol)
    report = RunReport("charge", _digest(raw, source, args.seed, args.fit_tol), args.seed)
    report.results = {
        "source": source,
        "residual": residual,
        "min_weight": float(charge.weights.min()),
        "weights": charge.weights,
        "nonneg_fit_feasible": feasible,
        "fit_tol": args.fit_tol,
    }
    lines = [
        f"fit residual: {_fmt(residual)}",
        f"min weight: {_fmt(charge.weights.min())}",
        f"nonnegative fit feasible at tol {_fmt(args.fit_tol)}: {feasible}",
    ]
    return report, lines


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcoh",
        description="Coherence, previsions, entanglement certificates and SOS duals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, state_fixture=False):
        p.add_argument("-i", "--input", help="input JSON file")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", help="machine-readable report")
        if state_fixture:
            p.add_argument("--bell", action="store_true", help="use the built-in Bell state")

    p = sub.add_parser("coherence", help="P-coherence of an assessment set")
    common(p)

    p = sub.add_parser("prevision", help="lower/upper prevision of a gamble")
    common(p)
    p.add_argument("--gamble", required=True, help="gamble JSON file")
    p.add_argument("--side", choices=["lower", "upper"], default="lower")

    p = sub.add_parser("witness", help="entanglement Dutch-book certificate")
    common(p, state_fixture=True)
    p.add_argument("--epsilon", type=float, default=1e-3)

    p = sub.add_parser("chsh", help="CHSH sum-gamble expectation")
    common(p, state_fixture=True)
    p.add_argument("--angles", type=float, nargs=4, metavar=("A1", "A2", "B1", "B2"))
    p.add_argument("--sweep", type=int, default=0, help="sweep beta1 over [0, pi]")
    p.add_argument("--csv", help="CSV output path for sweeps")

    p = sub.add_parser("sos", help="sum-of-squares check of a degree-6 polynomial")
    common(p)
    p.add_argument("--motzkin", choices=["classic", "soft"], help="built-in polynomial")

    p = sub.add_parser("charge", help="signed-charge fit on a product support")
    common(p, state_fixture=True)
    p.add_argument("--support", help="support JSON file")
    p.add_argument("--random", type=int, default=0, help="number of random atoms")
    p.add_argument("--bell-table", action="store_true", help="replay the built-in table")
    p.add_argument("--fit-tol", type=float, default=1e-4)

    return parser


_DISPATCH = {
    "coherence": _cmd_coherence,
    "prevision": _cmd_prevision,
    "witness": _cmd_witness,
    "chsh": _cmd_chsh,
    "sos": _cmd_sos,
    "charge": _cmd_charge,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, lines = _DISPATCH[args.command](args)
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        if exc.residuals:
            print(f"residuals: {exc.residuals}", file=sys.stderr)
        return 3
    except (PcohError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.wall_time_ms = (time.perf_counter() - started) * 1000.0
    _print_report(report, args, lines)
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface.

Verbs: validate, props, fad, cohomology, compare, derivations.  Input is a
builtin fixture name or a path to a category text file.  Exit codes: 0 on
success, 1 when a verification fails (or a file fails validation), 2 on
usage errors, 3 when the category misses a required structural hypothesis.
``compare`` only formats ``theorem_a_report``, which holds the certificate.

JSON output is byte-identical across runs for identical input: key order is
fixed and timing is reported only in text mode.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import time
from dataclasses import dataclass

from .catformat import category_to_text, load_category
from .category import FiniteCategory, adjoint_category, predicate_reports, require_predicates
from .comparison import CANCELLATIVE, DETERMINISTIC, theorem_a_report
from .derivations import theorem_b_report
from .errors import (
    BadFieldSpec,
    CategoryError,
    DimensionCapExceeded,
    HochcatError,
    HypothesisViolated,
    UnknownFixture,
)
from .fields import FieldSpec
from .fixtures import builtin
from .hochschild import (
    DEFAULT_BASIS_CAP,
    hochschild_cohomology_dims,
    hochschild_sizes,
    relative_cohomology_dims,
    relative_is_full,
)

PREDICATE_LABELS = (
    ("left_cancellative", "left-cancellative"),
    ("right_cancellative", "right-cancellative"),
    ("left_deterministic", "left-deterministic"),
    ("right_deterministic", "right-deterministic"),
    ("rr_transitive", "rr-transitive"),
)


@dataclass
class Command:
    verb: str
    input: str
    field: FieldSpec
    max_degree: int
    output: str
    cap: int
    theory: str = "both"


@dataclass
class Report:
    verb: str
    payload: dict
    exit_code: int
    elapsed: float = 0.0
    text: str = ""


def _field_arg(text: str) -> FieldSpec:
    try:
        return FieldSpec.parse(text)
    except BadFieldSpec as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _degree_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("degree must be nonnegative")
    return value


def _cap_arg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad cap {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("cap must be nonnegative")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hochcat",
        description="Exact Hochschild and simplicial cohomology of finite category algebras.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def common(p, degree=True, field=True):
        p.add_argument("input", help="builtin fixture name or category file path")
        if field:
            p.add_argument("--field", type=_field_arg, default=FieldSpec(None),
                           help="scalar field: 'q' (default) or 'gf:<p>'")
        if degree:
            p.add_argument("--max-degree", type=_degree_arg, default=3,
                           help="highest cohomological degree (default 3)")
        p.add_argument("--output", choices=("text", "json"), default="text")
        p.add_argument("--cap", type=_cap_arg, default=None,
                       help=f"basis-size cap (default {DEFAULT_BASIS_CAP}, env HOCHCAT_CAP)")

    # a verb takes only the options it reads
    common(sub.add_parser("validate", help="check the category axioms"), degree=False, field=False)
    common(sub.add_parser("props", help="run the structural predicate checks"),
           degree=False, field=False)
    common(sub.add_parser("fad", help="emit the adjoint category"), degree=False, field=False)
    coh = sub.add_parser("cohomology", help="Hochschild cohomology dimensions")
    common(coh)
    coh.add_argument("--theory", choices=("full", "relative", "both"), default="both")
    common(sub.add_parser("compare", help="certify the comparison isomorphism"))
    common(sub.add_parser("derivations", help="graded derivations vs characters"), degree=False)
    return parser


def parse_args(argv) -> Command:
    parser = build_parser()
    ns = parser.parse_args(argv)
    cap = ns.cap
    if cap is None:
        env = os.environ.get("HOCHCAT_CAP")
        try:
            cap = _cap_arg(env) if env else DEFAULT_BASIS_CAP
        except argparse.ArgumentTypeError as exc:
            parser.error(f"HOCHCAT_CAP: {exc}")
    return Command(
        verb=ns.verb,
        input=ns.input,
        field=getattr(ns, "field", FieldSpec(None)),
        max_degree=getattr(ns, "max_degree", 3),
        output=ns.output,
        cap=cap,
        theory=getattr(ns, "theory", "both"),
    )


def _load_input(cmd: Command) -> tuple[str, FiniteCategory]:
    name = cmd.input
    if os.path.exists(name):
        return os.path.basename(name), load_category(name, cmd.cap)
    try:
        return name, builtin(name, cmd.cap)
    except UnknownFixture:
        if name.startswith(("cn:", "chain:")):
            raise  # a sized family with a bad size: builtin names the reason
        raise UnknownFixture(
            f"{name!r} is neither a file nor a builtin fixture"
        ) from None


def _category_summary(name: str, cat: FiniteCategory) -> dict:
    return {"name": name, "objects": cat.n_objects, "morphisms": cat.n_morphisms}


def _predicates_payload(cat: FiniteCategory) -> dict:
    reports = predicate_reports(cat)
    payload = {}
    for key, _label in PREDICATE_LABELS:
        rep = reports[key]
        payload[key] = {"holds": rep.holds, "witness": rep.witness_dict()}
    payload["all_hypotheses"] = {
        "holds": all(reports[k].holds for k, _ in PREDICATE_LABELS),
        "witness": None,
    }
    return payload


# --- verb implementations ------------------------------------------------------

def _run_validate(cmd: Command) -> Report:
    try:
        name, cat = _load_input(cmd)
    except CategoryError as exc:
        payload = {"ok": False, "errors": [exc.payload()]}
        text = "INVALID: " + str(exc)
        return Report("validate", payload, 1, text=text)
    payload = {"ok": True, "category": _category_summary(name, cat)}
    text = (f"valid category: {name}  |Ob| = {cat.n_objects}  "
            f"|Mor| = {cat.n_morphisms}")
    return Report("validate", payload, 0, text=text)


def _run_props(cmd: Command) -> Report:
    name, cat = _load_input(cmd)
    payload = {
        "category": _category_summary(name, cat),
        "predicates": _predicates_payload(cat),
    }
    lines = []
    for key, label in PREDICATE_LABELS + (("all_hypotheses", "all-hypotheses"),):
        entry = payload["predicates"][key]
        status = "PASS" if entry["holds"] else "FAIL"
        witness = ""
        if entry["witness"]:
            parts = ", ".join(f"{k} = {v}" for k, v in entry["witness"].items())
            witness = f"  witness: {parts}"
        lines.append(f"{label:<22} {status}{witness}")
    # failing predicates are facts about the category, not failed verifications
    return Report("props", payload, 0, text="\n".join(lines))


def _run_fad(cmd: Command) -> Report:
    name, cat = _load_input(cmd)
    fad = adjoint_category(cat)
    text_form = category_to_text(fad)
    payload = {
        "category": _category_summary(name, cat),
        "fad": {
            "objects": fad.n_objects,
            "morphisms": fad.n_morphisms,
            "text": text_form,
        },
    }
    return Report("fad", payload, 0, text=text_form)


def _run_cohomology(cmd: Command) -> Report:
    name, cat = _load_input(cmd)
    field = cmd.field
    notices: list[str] = []
    theories: dict = {}
    want_full = cmd.theory in ("full", "both")
    want_rel = cmd.theory in ("relative", "both")
    sizes = itertools.islice(hochschild_sizes(cat), cmd.max_degree + 2)
    full_fits = all(size <= cmd.cap for size in sizes)
    if want_full and not full_fits and cmd.theory == "both":
        notices.append(
            f"full complex exceeds cap ({cmd.cap}); reporting the relative complex only"
        )
        want_full, want_rel = False, True
    if want_full:
        theories["full"] = hochschild_cohomology_dims(cat, field, cmd.max_degree, cmd.cap)
    if want_rel and want_full and relative_is_full(cat):
        theories["relative"] = list(theories["full"])  # the same complex
    elif want_rel:
        theories["relative"] = relative_cohomology_dims(cat, field, cmd.max_degree, cmd.cap)
    payload = {
        "category": _category_summary(name, cat),
        "field": field.name,
        "max_degree": cmd.max_degree,
        "theories": theories,
        "notices": notices,
    }
    lines = [f"category: {name}  field: {field.name}"]
    header = " m | " + " | ".join(f"{t:>8}" for t in theories)
    lines.append(header)
    for m in range(cmd.max_degree + 1):
        lines.append(f"{m:>2} | " + " | ".join(f"{theories[t][m]:>8}" for t in theories))
    lines.extend(notices)
    return Report("cohomology", payload, 0, text="\n".join(lines))


def _run_compare(cmd: Command) -> Report:
    name, cat = _load_input(cmd)
    # refuse before anything builds F^ad
    require_predicates(cat, *CANCELLATIVE, *DETERMINISTIC)
    report = theorem_a_report(cat, cmd.field, cmd.max_degree, cmd.cap)
    degrees = []
    for rec in report.degrees:
        checks = {c.name: c.ok for c in rec.checks}
        degrees.append({
            "m": rec.degree,
            "dim_hh": rec.dim_hochschild,
            "dim_rel": rec.dim_relative,
            "dim_simplicial_fad": rec.dim_simplicial,
            "t_chain_ok": checks["t_chain"],
            "x_chain_ok": checks["x_chain"],
            "section_ok": checks["section"],
            "iso": rec.induced_invertible,
        })
    verdict = report.verdict
    payload = {
        "category": _category_summary(name, cat),
        "field": cmd.field.name,
        "predicates": _predicates_payload(cat),
        "degrees": degrees,
        "verdict": verdict,
    }
    lines = [f"category: {name}  field: {cmd.field.name}  tier: {report.tier}"]
    lines.append(" m | dim HH | dim rel | dim H(F^ad) | T-chain | X-chain | section | iso")
    for d in degrees:
        lines.append(
            f"{d['m']:>2} | {d['dim_hh']:>6} | {d['dim_rel']:>7} | {d['dim_simplicial_fad']:>11}"
            f" | {'ok' if d['t_chain_ok'] else 'FAIL':>7}"
            f" | {'ok' if d['x_chain_ok'] else 'FAIL':>7}"
            f" | {'ok' if d['section_ok'] else 'FAIL':>7}"
            f" | {'yes' if d['iso'] else 'no':>3}"
        )
    lines.append(f"verdict: {verdict}")
    return Report("compare", payload, 0 if verdict != "failed" else 1,
                  text="\n".join(lines))


def _run_derivations(cmd: Command) -> Report:
    name, cat = _load_input(cmd)
    rep = theorem_b_report(cat, cmd.field, cmd.cap)
    verdict = "bijection" if rep.bijection else "failed"
    payload = {
        "category": _category_summary(name, cat),
        "field": cmd.field.name,
        "dim_graded_derivations": rep.dim_derivations,
        "dim_characters": rep.dim_characters,
        "bijection": rep.bijection,
        "matrix": rep.restricted_matrix.to_json_dict(),
        "verdict": verdict,
    }
    text = (
        f"category: {name}  field: {cmd.field.name}\n"
        f"dim graded derivations = {rep.dim_derivations}\n"
        f"dim characters         = {rep.dim_characters}\n"
        f"verdict: {verdict}"
    )
    return Report("derivations", payload, 0 if rep.bijection else 1, text=text)


_RUNNERS = {
    "validate": _run_validate,
    "props": _run_props,
    "fad": _run_fad,
    "cohomology": _run_cohomology,
    "compare": _run_compare,
    "derivations": _run_derivations,
}


def run(cmd: Command) -> Report:
    start = time.perf_counter()
    report = _RUNNERS[cmd.verb](cmd)
    report.elapsed = time.perf_counter() - start
    return report


def emit(report: Report, output: str) -> str:
    if output == "json":
        return json.dumps(report.payload, indent=2) + "\n"
    if report.verb != "fad":
        return f"{report.text}\nelapsed: {report.elapsed:.3f}s\n"
    # F^ad's text form is written as it is: it ends in its one newline,
    # and only an error line still needs one
    return report.text if report.text.endswith("\n") else report.text + "\n"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cmd = parse_args(argv)
    try:
        report = run(cmd)
    except HypothesisViolated as exc:
        print(json.dumps(exc.payload()) if cmd.output == "json" else f"error: {exc}",
              file=sys.stderr)
        return 3
    except (UnknownFixture, DimensionCapExceeded, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CategoryError as exc:
        # reached by verbs other than validate, which reports errors itself
        report = Report(cmd.verb, {"ok": False, "errors": [exc.payload()]}, 1,
                        text="INVALID: " + str(exc))
        sys.stdout.write(emit(report, cmd.output))
        return 1
    except HochcatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(emit(report, cmd.output))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())

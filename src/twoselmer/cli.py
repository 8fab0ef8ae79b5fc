"""Command-line surface: descent, scan, verify, search, bound.

All output is line-delimited JSON records (streams) or one JSON document
(summaries), with a schema_version field.  Reruns with the same arguments
are byte-identical; scan timing is therefore off unless --timing is given.

Exit codes: 0 success, 1 usage, 2 verification failure (a failed check or a
soundness alarm), 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
from fractions import Fraction

from . import __version__, gf2, twist_lab
from .curve import (
    FullTwoTorsionModel,
    parse_curve,
    require_full_model,
    sigma_set,
)
from .errors import BudgetExceeded, SoundnessAlarm
from .local_descent import h_v, kummer_image
from .padic import Place, local_class, local_pairing, parse_place
from .selmer import SelmerSpec, duality_check, selmer_group
from .twist_lab import scan_records, summarize, twist_spec
from .zarith import is_prime, is_squarefree

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _record_line(rec: twist_lab.TwistRecord) -> str:
    """One records.jsonl line; ``_parse_record`` reads it back."""
    doc = {
        "d": rec.d,
        "rank": rec.rank,
        "parity_lhs": rec.parity_lhs,
        "parity_rhs": rec.parity_rhs,
        "sigma_prime": rec.sigma_prime_size,
        "ms": rec.ms,
        "schema_version": SCHEMA_VERSION,
    }
    return _dump(doc) + "\n"


# the keys of _record_line that hold the TwistRecord fields, in field order
_RECORD_KEYS = ("d", "rank", "parity_lhs", "parity_rhs", "sigma_prime", "ms")


def _parse_record(line: str) -> twist_lab.TwistRecord:
    doc = json.loads(line)
    if not isinstance(doc, dict) or any(type(doc.get(k)) is not int for k in _RECORD_KEYS):
        raise ValueError(f"not a scan record with integer {', '.join(_RECORD_KEYS)}: {line!r}")
    return twist_lab.TwistRecord(*(doc[k] for k in _RECORD_KEYS))


def _parse_mask(text: str) -> tuple[Place, int]:
    place_text, _, value = text.partition("=")
    if not value:
        raise ValueError(f"mask must look like place=value, got {text!r}")
    place = parse_place(place_text)
    if value == "trivial":
        return place, 0
    if value == "sign":
        if not place.is_infinite:
            raise ValueError("'sign' only makes sense at inf")
        return place, 1
    try:
        r = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"mask value {value!r} has a zero denominator") from None
    return place, local_class(r, place)


def _load_model(args) -> FullTwoTorsionModel:
    return require_full_model(parse_curve(args.curve))


def cmd_descent(args) -> int:
    model = _load_model(args)
    spec = twist_spec(model, args.twist)
    spec.masks.update(_parse_mask(m) for m in args.mask or [])
    result = selmer_group(spec, verify=True)
    record = result.to_record(model, spec.masks)
    record["schema_version"] = SCHEMA_VERSION
    print(_dump(record))
    return EXIT_OK


def _replace_file(path: str, text: str) -> None:
    """Write a whole file through a temporary one, so a crash leaves the old or the new file."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def cmd_scan(args) -> int:
    if args.bound < 1:
        raise ValueError("--bound must be positive")
    model = _load_model(args)
    out_dir = args.out
    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, "records.jsonl")
    summary_path = os.path.join(out_dir, "summary.json")
    manifest_path = os.path.join(out_dir, "scan.json")
    manifest = _dump({
        "curve": str(model),
        "bound": args.bound,
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
    }) + "\n"

    done_through = 0
    records: list[twist_lab.TwistRecord] = []
    resuming = args.resume and os.path.exists(records_path)
    if resuming:
        try:
            with open(manifest_path) as fh:
                found = fh.read()
        except FileNotFoundError:
            raise ValueError(f"cannot resume: {manifest_path} is missing") from None
        if found != manifest:
            raise ValueError(
                f"cannot resume: {manifest_path} holds {found.strip()}, not {manifest.strip()}"
            )
        with open(records_path) as fh:
            lines = fh.read().split("\n")
        # lines[-1] follows the last newline: empty, or a line torn by a crash mid-write
        records = [_parse_record(ln) for ln in lines[:-1] if ln]
        if records:
            last_abs = abs(records[-1].d)
            # recompute the in-flight block: drop records at the last |d|
            records = [rec for rec in records if abs(rec.d) < last_abs]
            done_through = last_abs - 1
        _replace_file(records_path, "".join(_record_line(rec) for rec in records))
    else:
        _replace_file(manifest_path, manifest)

    with open(records_path, "a" if resuming else "w") as fh:
        for rec in scan_records(model, args.bound, timing=args.timing):
            if abs(rec.d) <= done_through:
                continue
            records.append(rec)
            fh.write(_record_line(rec))
            fh.flush()
    summary = summarize(model, args.bound, records)
    doc = dataclasses.asdict(summary)
    doc["curve"] = str(model)
    doc["schema_version"] = SCHEMA_VERSION
    doc["rank_histogram"] = {str(k): v for k, v in summary.rank_histogram.items()}
    _replace_file(summary_path, _dump(doc) + "\n")
    print(_dump(doc))
    return EXIT_VERIFY if summary.parity_failures else EXIT_OK


def _random_squarefree(rng: random.Random, bound: int) -> int:
    while True:
        d = rng.randint(-bound, bound)
        if d != 0 and is_squarefree(d):
            return d


def _random_class(rng: random.Random, place: Place) -> int:
    c = 0
    for i in range(place.width):
        c |= rng.randint(0, 1) << i
    return c


def _random_good_prime(rng: random.Random, model: FullTwoTorsionModel) -> int:
    bad = {v.p for v in sigma_set(model) if v.p is not None}
    return rng.choice([p for p in range(3, 200) if is_prime(p) and p not in bad])


def run_verify_suite(model: FullTwoTorsionModel, suite: str, trials: int, seed: int) -> dict:
    rng = random.Random(seed)
    sigma = sigma_set(model)
    passed = 0
    failures: list[dict] = []
    for _ in range(trials):
        if suite == "parity":
            d = _random_squarefree(rng, 500)
            rec = twist_lab.parity_check(model, d)
            ok = rec.parity_ok
            detail = {"d": d, "lhs": rec.parity_lhs, "rhs": rec.parity_rhs}
        elif suite == "duality":
            pool = list(sigma) + [Place(p) for p in (3, 5, 7, 11, 13) if Place(p) not in sigma]
            size = rng.randint(0, 2)
            T = frozenset(rng.sample(pool, size))
            ok, rep = duality_check(SelmerSpec(model), T)
            detail = rep
        elif suite == "isotropy":
            v = rng.choice(list(sigma) + [Place(p) for p in (3, 5, 7) if Place(p) not in sigma])
            cls = _random_class(rng, v)
            img = kummer_image(model, cls, v)
            iso = all(local_pairing(v, a, b) == 0 for a in img for b in img)
            ok = iso and len(img) * 2 == 2 * v.width
            bits = [(cls >> i) & 1 for i in range(v.width)]
            detail = {"place": str(v), "class": bits, "dim": len(img)}
        elif suite == "ramhv":
            q = _random_good_prime(rng, model)
            place = Place(q)
            cls = 1 | rng.randint(0, 1) << 1
            h = h_v(model, cls, place)
            a1 = kummer_image(model, 0, place)
            ax = kummer_image(model, cls, place)
            inter_dim = len(a1) + len(ax) - gf2.rank([*a1, *ax])
            ok = h == 2 and not inter_dim
            detail = {"q": q, "h": h, "intersection_dim": inter_dim}
        elif suite == "babo":
            q = rng.choice(list(sigma) + [Place(p) for p in (3, 5, 7, 11) if Place(p) not in sigma])
            c1, c2 = _random_class(rng, q), _random_class(rng, q)
            r1 = selmer_group(SelmerSpec(model, {q: c1})).dim
            r2 = selmer_group(SelmerSpec(model, {q: c2})).dim
            cap = len(kummer_image(model, 0, q))
            ok = abs(r1 - r2) <= cap
            detail = {"place": str(q), "r1": r1, "r2": r2, "cap": cap}
        else:
            raise ValueError(f"unknown suite {suite!r}")
        if ok:
            passed += 1
        elif len(failures) < 3:
            failures.append(detail)
    return {
        "suite": suite,
        "curve": str(model),
        "trials": trials,
        "passed": passed,
        "seed": seed,
        "failures": failures,
        "schema_version": SCHEMA_VERSION,
    }


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be positive")
    model = _load_model(args)
    report = run_verify_suite(model, args.suite, args.trials, args.seed)
    print(_dump(report))
    return EXIT_OK if report["passed"] == report["trials"] else EXIT_VERIFY


def cmd_search(args) -> int:
    model = _load_model(args)
    try:
        if args.kind == "inc2":
            witness = twist_lab.find_inc2(model, args.budget)
        else:
            witness = twist_lab.find_plus_one(model, args.budget)
    except BudgetExceeded as exc:
        print(_dump({"error": str(exc), "schema_version": SCHEMA_VERSION}))
        return EXIT_BUDGET
    witness = dict(witness)
    witness["kind"] = args.kind
    witness["schema_version"] = SCHEMA_VERSION
    print(_dump(witness))
    return EXIT_OK


def cmd_bound(args) -> int:
    with open(args.summary) as fh:
        doc = json.load(fh)
    if not (
        isinstance(doc, dict)
        and type(doc.get("n")) is int
        and type(doc.get("t_hat")) is int
        and isinstance(doc.get("bound_checks"), dict)
        and all(type(ok) is bool for ok in doc["bound_checks"].values())
    ):
        raise ValueError(
            f"{args.summary} is not a scan summary with integer n and t_hat "
            "and bound_checks of booleans"
        )
    n = doc["n"]
    report = {
        "n": n,
        "two_n_cap": 2 * n,
        "t_hat": doc["t_hat"],
        "bound_checks": doc["bound_checks"],
        "schema_version": SCHEMA_VERSION,
    }
    print(_dump(report))
    return EXIT_OK if all(doc["bound_checks"].values()) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twoselmer",
        description="2-Selmer ranks of quadratic twists of curves with full rational 2-torsion",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("descent", help="compute a (masked) 2-Selmer group")
    p.add_argument("--curve", required=True)
    p.add_argument("--twist", type=int, default=1)
    p.add_argument("--mask", action="append")
    p.set_defaults(func=cmd_descent)

    p = sub.add_parser("scan", help="scan twists up to a bound, writing records + summary")
    p.add_argument("--curve", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--out", default="scan-out")
    p.add_argument("--resume", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify", help="run a seeded random invariant suite")
    p.add_argument("suite", choices=["parity", "duality", "isotropy", "ramhv", "babo"])
    p.add_argument("--curve", default="-1,0,1")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="constructive twist searches")
    p.add_argument("kind", choices=["inc2", "plus-one"])
    p.add_argument("--curve", required=True)
    p.add_argument("--budget", type=int, default=twist_lab.DEFAULT_PRIME_BUDGET)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bound", help="report n, the 2n cap and t_hat checks from a summary")
    p.add_argument("--summary", required=True)
    p.set_defaults(func=cmd_bound)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except SoundnessAlarm as exc:
        print(f"soundness alarm: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())

"""Command-line surface: descent, scan, verify, search, bound.

All output is line-delimited JSON records (streams) or one JSON document
(summaries), each written by ``_dump``, which stamps the schema_version field.
Reruns with the same arguments are byte-identical.

Exit codes: 0 success, 1 usage, 2 verification failure (a failed check or a
soundness alarm), 3 budget exhausted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from fractions import Fraction
from functools import cache
from itertools import chain, islice

from . import __version__, gf2, twist_lab
from .curve import (
    FullTwoTorsionModel,
    local_twist_classes,
    parse_curve,
    require_full_model,
    sigma_set,
)
from .errors import BudgetExceeded, SoundnessAlarm
from .local_descent import _sampled_image, h_v, kummer_image
from .padic import REAL_PLACE, _name, _width, local_class, local_pairing, parse_place
from .selmer import duality_check, selmer_group
from .twist_lab import scan_records, squarefree_twists, summarize
from .zarith import is_prime, is_squarefree

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_BUDGET = 3


def _dump(obj: dict) -> str:
    """The CLI's one serializer: compact, key-sorted JSON stamped with the schema version."""
    return json.dumps({**obj, "schema_version": SCHEMA_VERSION}, sort_keys=True,
                      separators=(",", ":"))


# the keys of a records.jsonl line that hold the TwistRecord fields, in field order
_RECORD_KEYS = ("d", "rank", "parity_lhs", "parity_rhs", "sigma_prime", "ms")


def _record_line(rec: twist_lab.TwistRecord) -> str:
    """One records.jsonl line; ``_parse_record`` reads it back."""
    return _dump(dict(zip(_RECORD_KEYS, rec))) + "\n"


def _parse_record(line: str) -> twist_lab.TwistRecord:
    doc = json.loads(line)
    if not isinstance(doc, dict) or any(type(doc.get(k)) is not int for k in _RECORD_KEYS):
        raise ValueError(f"not a scan record with integer {', '.join(_RECORD_KEYS)}: {line!r}")
    return twist_lab.TwistRecord(*(doc[k] for k in _RECORD_KEYS))


def _parse_mask(text: str) -> tuple[int, int]:
    place_text, _, value = text.partition("=")
    if not value:
        raise ValueError(f"mask must look like place=value, got {text!r}")
    place = parse_place(place_text)
    if value == "trivial":
        return place, 0
    if value == "sign":
        if place != REAL_PLACE:
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
    masks = {**local_twist_classes(model, args.twist), **dict(map(_parse_mask, args.mask or []))}
    result = selmer_group(model, masks, verify=True)
    print(_dump(result.to_record(model, masks)))
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
    manifest = _dump({"curve": str(model), "bound": args.bound, "version": __version__}) + "\n"

    kept: list[twist_lab.TwistRecord] = []
    if args.resume and os.path.exists(records_path):
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
        kept = [_parse_record(ln) for ln in lines[:-1] if ln]
        if [rec.d for rec in kept] != list(islice(squarefree_twists(args.bound), len(kept))):
            raise ValueError(
                f"cannot resume: {records_path} is not the scan's first {len(kept)} twists"
            )
    else:
        _replace_file(manifest_path, manifest)
    _replace_file(records_path, "".join(_record_line(rec) for rec in kept))

    with open(records_path, "a") as fh:
        def written():
            # each line reaches the file before summarize counts its record
            for rec in scan_records(model, args.bound, skip=len(kept)):
                fh.write(_record_line(rec))
                fh.flush()
                yield rec

        summary = summarize(model, args.bound, chain(kept, written()))
    _replace_file(summary_path, _dump(summary) + "\n")
    print(_dump(summary))
    return EXIT_VERIFY if summary["parity_failures"] else EXIT_OK


def _random_squarefree(rng: random.Random, bound: int) -> int:
    while True:
        d = rng.randint(-bound, bound)
        if d != 0 and is_squarefree(d):
            return d


def _random_class(rng: random.Random, place: int) -> int:
    c = 0
    for i in range(_width(place)):
        c |= rng.randint(0, 1) << i
    return c


def _random_good_prime(rng: random.Random, model: FullTwoTorsionModel) -> int:
    bad = sigma_set(model)
    good = [p for p in range(3, 200) if is_prime(p) and p not in bad]
    if not good:
        raise ValueError(f"no good prime below 200 is left: Sigma of {model} holds every one")
    return rng.choice(good)


def run_verify_suite(model: FullTwoTorsionModel, suite: str, trials: int, seed: int) -> dict:
    rng = random.Random(seed)
    sigma = sigma_set(model)
    passed = 0
    failures: list[dict] = []
    draws: list[str] = []
    for _ in range(trials):
        if suite == "parity":
            d = _random_squarefree(rng, 500)
            rec = twist_lab.parity_check(model, d)
            ok = rec.parity_ok
            detail = {"d": d, "lhs": rec.parity_lhs, "rhs": rec.parity_rhs}
        elif suite == "duality":
            pool = list(sigma) + [p for p in (3, 5, 7, 11, 13) if p not in sigma]
            size = rng.randint(0, 2)
            T = frozenset(rng.sample(pool, size))
            ok, rep = duality_check(model, T)
            detail = rep
        elif suite == "isotropy":
            v = rng.choice(list(sigma) + [p for p in (3, 5, 7) if p not in sigma])
            cls = _random_class(rng, v)
            img = kummer_image(model, cls, v)
            iso = all(local_pairing(v, a, b) == 0 for a in img for b in img)
            ok = iso and len(img) * 2 == 2 * _width(v)
            detail = {"place": _name(v), "class": cls, "dim": len(img)}
        elif suite == "ramhv":
            q = _random_good_prime(rng, model)
            cls = 1 | rng.randint(0, 1) << 1
            # the closed forms at a good prime against the sampler, valid at every place
            a1, ax = (_sampled_image(model, c, q) for c in (0, cls))
            closed_ok = all(
                sorted(gf2.Span(kummer_image(model, c, q)).rows) == sorted(gf2.Span(img).rows)
                for c, img in ((0, a1), (cls, ax))
            )
            h = h_v(model, cls, q)
            inter_dim = len(a1) + len(ax) - gf2.rank([*a1, *ax])
            ok = closed_ok and h == 2 and not inter_dim
            detail = {"q": q, "class": cls, "h": h, "intersection_dim": inter_dim,
                      "closed_form": closed_ok}
        elif suite == "babo":
            q = rng.choice(list(sigma) + [p for p in (3, 5, 7, 11) if p not in sigma])
            c1, c2 = _random_class(rng, q), _random_class(rng, q)
            r1 = selmer_group(model, {q: c1}).dim
            r2 = selmer_group(model, {q: c2}).dim
            cap = len(kummer_image(model, 0, q))
            ok = abs(r1 - r2) <= cap
            detail = {"place": _name(q), "classes": [c1, c2], "r1": r1, "r2": r2, "cap": cap}
        else:
            raise ValueError(f"unknown suite {suite!r}")
        # the digest of the detail, which names every value the trial drew
        draws.append(hashlib.sha256(_dump(detail).encode()).hexdigest()[:16])
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
        "draws": draws,
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
    find = twist_lab.find_inc2 if args.kind == "inc2" else twist_lab.find_plus_one
    witness = find(model)
    print(_dump({**witness, "kind": args.kind}))
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
    print(_dump({"n": doc["n"], "two_n_cap": 2 * doc["n"], "t_hat": doc["t_hat"],
                 "bound_checks": doc["bound_checks"]}))
    return EXIT_OK if all(doc["bound_checks"].values()) else EXIT_VERIFY


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built at the first call; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="twoselmer",
        description="2-Selmer ranks of quadratic twists of curves with full rational 2-torsion",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # command name -> its subparser, for main's one pass

    p = sub.add_parser("descent", help="compute a (masked) 2-Selmer group")
    p.add_argument("--curve", required=True)
    p.add_argument("--twist", type=int, default=1)
    p.add_argument("--mask", action="append")

    p = sub.add_parser("scan", help="scan twists up to a bound, writing records + summary")
    p.add_argument("--curve", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--out", default="scan-out")
    p.add_argument("--resume", action="store_true")

    p = sub.add_parser("verify", help="run a seeded random invariant suite")
    p.add_argument("suite", choices=["parity", "duality", "isotropy", "ramhv", "babo"])
    p.add_argument("--curve", default="-1,0,1")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("search", help="constructive twist searches")
    p.add_argument("kind", choices=["inc2", "plus-one"])
    p.add_argument("--curve", required=True)

    p = sub.add_parser("bound", help="report n, the 2n cap and t_hat checks from a summary")
    p.add_argument("--summary", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # a known command's own subparser alone; other argv, or leftovers, meet the top-level parser
    sub = parser.commands.get(argv[0]) if argv else None
    try:
        args, rest = sub.parse_known_args(argv[1:]) if sub else (None, None)
        if sub is None or rest:
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    # read from the module now, not when the cached parser was built, so a wrapped command runs
    commands = {"descent": cmd_descent, "scan": cmd_scan, "verify": cmd_verify,
                "search": cmd_search, "bound": cmd_bound}
    try:
        return commands[argv[0]](args)
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

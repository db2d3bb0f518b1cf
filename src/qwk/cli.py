"""Command-line front end.

Subcommands:

  correlator  one correlator, optionally cross-checked against the Hurwitz route
  hurwitz     one-part double Hurwitz numbers / correlators / factorization counts
  table       the correlator table grouped by level bands (json, csv or markdown)
  verify      the verification suites; with no bound flags each suite runs at
              the acceptance grid

All numeric output is exact rational text ("p/q"); --decimal adds a clearly
marked approximation and never replaces the exact value.  Exit codes: 0 on
success, 1 on any verification failure or oracle mismatch, 2 on usage errors,
which include an empty verification grid (also --cases or --modes below 1,
and a bracket-oracle case whose redraws all compare nothing), negative table
bounds, a negative genus grade or insertion and a partition above the
factorization-count cap.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import List, Optional, Sequence, Tuple

from . import (correlators as _correlators, hurwitz as _hurwitz, qkdv as _qkdv,
               special as _special)
from .algebra import GaussRat, MultiPoly, rat_str
from .correlators import (correlator, correlator_table, series_coefficient,
                          vanishes_by_level)
from .hurwitz import (DEFAULT_DEGREE_CAP, Partition, aut_factor,
                      factorization_count, factorization_counts, hurwitz_correlator,
                      one_part_number, partitions_of)
from .qkdv import bracket
from .symbols import (DENSITY, INTEGRATED, FourierSymbol, make_term,
                      slot_names, symmetrize)

SUITES = ("main-theorem", "string", "levels", "identities",
          "hurwitz-oracle", "bracket-oracle")

_UNSET = object()

# every memo table of the engine; runtime_ms means little without their state
_MEMO_TABLES = (_qkdv._hamiltonian_term, _qkdv._prefix, _special._ehrhart_cached,
                _special.power_of_sum, _special.genus_table,
                _correlators._correlator_cached, _hurwitz._walk_state)


def _memo_state() -> str:
    """The memo state at command start: "cold" when every table is empty, else "warm"."""
    return "warm" if any(t.cache_info().currsize for t in _MEMO_TABLES) else "cold"


def _parse_int_list(text: str, what: str) -> Tuple[int, ...]:
    text = text.strip()
    if not text:
        raise ValueError(f"empty {what} list")
    try:
        values = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated integer list") from None
    return values


def _emit(record: dict) -> None:
    print(json.dumps(record, sort_keys=True))


def _approx_decimal(value: Fraction) -> str:
    return f"approx {float(value):.12g}"


# ----------------------------------------------------------------------
# subcommands

def cmd_correlator(args) -> int:
    d = _parse_int_list(args.d, "--d")
    memo = _memo_state()
    t0 = time.monotonic()
    value = correlator(d, args.g)
    record = {"kind": "correlator", "g": args.g, "d": sorted(d),
              "value": rat_str(value),
              "metadata": {"runtime_ms": round(1000 * (time.monotonic() - t0), 3),
                           "memo": memo}}
    if args.decimal:
        record["approx_decimal"] = _approx_decimal(value)
    exit_code = 0
    if args.hurwitz_oracle:
        n = len(d)
        if 2 * args.g - 3 + n < 0:
            record["hurwitz"] = None
            record["match"] = None
            record["metadata"]["note"] = "hurwitz route undefined: 2g-3+n < 0"
        else:
            hv = hurwitz_correlator(d, args.g)
            record["hurwitz"] = rat_str(hv)
            record["match"] = hv == value
            if not record["match"]:
                exit_code = 1
    _emit(record)
    return exit_code


def cmd_hurwitz(args) -> int:
    record: dict = {"kind": "hurwitz", "g": args.g}
    exit_code = 0
    if args.mu:
        mu = Partition(_parse_int_list(args.mu, "--mu"))
        value = one_part_number(args.g, mu)
        record["mu"] = list(mu.parts)
        record["value"] = rat_str(value)
        if args.oracle:
            count = factorization_count(args.g, mu)
            aut = aut_factor(mu)
            record["factorization_count"] = rat_str(count)
            record["aut"] = aut
            record["match"] = value == aut * count
            if not record["match"]:
                exit_code = 1
    elif args.d is not None:
        d = _parse_int_list(args.d, "--d")
        record["d"] = sorted(d)
        record["value"] = rat_str(hurwitz_correlator(d, args.g))
    else:
        raise ValueError("need --mu or --d")
    if args.decimal and "value" in record:
        record["approx_decimal"] = _approx_decimal(Fraction(record["value"]))
    _emit(record)
    return exit_code


def _level_index(d: Tuple[int, ...], g: int) -> Optional[int]:
    n = len(d)
    total = sum(d)
    top = 4 * g - 3 + n
    if (top - total) % 2 != 0:
        return None
    level = (top - total) // 2
    if level < 0 or level > g:
        return None
    return level


def _monomial_name(d: Tuple[int, ...]) -> str:
    parts = []
    for x in sorted(set(d)):
        mult = d.count(x)
        parts.append(f"t{x}^{mult}" if mult > 1 else f"t{x}")
    return "*".join(parts)


def cmd_table(args) -> int:
    rows = []
    for key, value in correlator_table(args.g_max, args.n_max, args.sum_max).entries.items():
        rows.append({
            "g": key.g, "d": list(key.d), "level": _level_index(key.d, key.g),
            "monomial": _monomial_name(key.d),
            "correlator": rat_str(value),
            "series_coefficient": rat_str(series_coefficient(key.d, key.g)),
        })
    bounds = {"g_max": args.g_max, "n_max": args.n_max, "sum_max": args.sum_max}
    if args.format == "json":
        _emit({"kind": "table", "bounds": bounds, "rows": rows})
        return 0
    if args.format == "csv":
        print("g,n,d,level,monomial,correlator,series_coefficient")
        for r in rows:
            d_str = " ".join(str(x) for x in r["d"])
            level = "" if r["level"] is None else r["level"]
            print(f"{r['g']},{len(r['d'])},{d_str},{level},{r['monomial']},"
                  f"{r['correlator']},{r['series_coefficient']}")
        return 0
    # markdown, with separator rows between level bands
    for g in range(args.g_max + 1):
        selected = [r for r in rows if r["g"] == g and r["correlator"] != "0"]
        print(f"\n### hbar^{g}\n")
        if not selected:
            print("(no nonzero entries in bounds)")
            continue
        print("| level | monomial | series coefficient | correlator |")
        print("|---|---|---|---|")
        selected.sort(key=lambda r: (r["level"] if r["level"] is not None else 99,
                                     sum(r["d"]), len(r["d"]), tuple(r["d"])))
        last_level = _UNSET
        for r in selected:
            if last_level is not _UNSET and r["level"] != last_level:
                print("| --- | --- | --- | --- |")
            last_level = r["level"]
            print(f"| {r['level']} | {r['monomial']} | {r['series_coefficient']} "
                  f"| {r['correlator']} |")
    return 0


# ----------------------------------------------------------------------
# verification suites

def _grid_keys(g_max: int, n_max: int, slack: int = 0,
               sum_cap: Optional[int] = None) -> List[Tuple[Tuple[int, ...], int]]:
    keys = []
    for g in range(g_max + 1):
        for n in range(1, n_max + 1):
            cap = 4 * g - 3 + n + slack if sum_cap is None else sum_cap
            for d in combinations_with_replacement(range(max(cap, 0) + 1), n):
                if sum(d) <= cap:
                    keys.append((d, g))
    return keys


def _check_main_theorem(key) -> dict:
    d, g = key
    lhs = correlator(d, g)
    rhs = hurwitz_correlator(d, g)
    return {"key": {"d": list(d), "g": g}, "lhs": rat_str(lhs), "rhs": rat_str(rhs),
            "ok": lhs == rhs}


def _check_string(key) -> dict:
    # <tau_0 tau_{d_1}..> == sum_i <.. tau_{d_i - 1} ..>, negative indices vanish;
    # the inhomogeneous t_0^2/2 source of the string equation contributes +1 at
    # the single unstable key d = (0,0), g = 0
    d, g = key
    lhs = correlator((0, *d), g)
    rhs = Fraction(0)
    for i in range(len(d)):
        if d[i] > 0:
            child = list(d)
            child[i] -= 1
            rhs += correlator(child, g)
    if g == 0 and tuple(d) == (0, 0):
        rhs += 1
    return {"key": {"d": list(d), "g": g}, "lhs": rat_str(lhs), "rhs": rat_str(rhs),
            "ok": lhs == rhs}


def _check_level(key) -> dict:
    d, g = key
    predicted = vanishes_by_level(d, g, 0)
    value = correlator(d, g)
    ok = (not predicted) or value == 0
    return {"key": {"d": list(d), "g": g}, "predicted_zero": predicted,
            "value": rat_str(value), "ok": ok}


def _suite_main_theorem(args) -> Tuple[List[dict], dict]:
    g_max = args.g_max if args.g_max is not None else 2
    n_max = args.n_max if args.n_max is not None else 3
    sum_slack = 3  # cover zero agreement outside the interval as well
    keys = [k for k in _grid_keys(g_max, n_max, slack=sum_slack)
            if 2 * k[1] - 3 + len(k[0]) >= 0]
    if args.sum_max is not None:
        keys = [k for k in keys if sum(k[0]) <= args.sum_max]
    checks = [_check_main_theorem(k) for k in keys]
    return checks, {"g_max": g_max, "n_max": n_max,
                    "sum_max": args.sum_max, "keys": len(keys)}


def _suite_string(args) -> Tuple[List[dict], dict]:
    g_max = args.g_max if args.g_max is not None else 2
    n_max = args.n_max if args.n_max is not None else 3
    keys = _grid_keys(g_max, n_max, slack=1)
    if args.sum_max is not None:
        keys = [k for k in keys if sum(k[0]) <= args.sum_max]
    checks = [_check_string(k) for k in keys]
    return checks, {"g_max": g_max, "n_max": n_max, "sum_max": args.sum_max,
                    "keys": len(keys)}


def _suite_levels(args) -> Tuple[List[dict], dict]:
    g_max = args.g_max if args.g_max is not None else 2
    n_max = args.n_max if args.n_max is not None else 3
    keys = _grid_keys(g_max, n_max, slack=3, sum_cap=args.sum_max)
    checks = [_check_level(k) for k in keys]
    return checks, {"g_max": g_max, "n_max": n_max, "sum_max": args.sum_max,
                    "keys": len(keys)}


def _nothing_to_verify(bounds: dict) -> ValueError:
    return ValueError(f"nothing to verify within bounds {json.dumps(bounds, sort_keys=True)}")


def _suite_identities(args) -> Tuple[List[dict], dict]:
    from .identities import (check_carlitz, check_eulerian_generating,
                             check_products_of_exponentials, check_sh_lemmas,
                             check_sinh_formula, check_variational)
    order = args.order if args.order is not None else 8
    cases = args.cases if args.cases is not None else 50
    if cases < 1:
        raise _nothing_to_verify({"order": order, "cases": cases})
    reports = []
    for d in range(0, 7):
        reports.append(check_carlitz(d, 12))
    reports.append(check_eulerian_generating(10))
    reports.append(check_sh_lemmas(order))
    for n in (2, 3):
        for a in combinations_with_replacement(range(1, 4), n - 1):
            for b in range(0, 4):
                reports.append(check_sinh_formula(n, a, b, order))
    for n in (2, 3):
        for a_vals in combinations_with_replacement(range(1, 4), n):
            reports.append(check_products_of_exponentials(n, a_vals, 6))
    reports.append(check_variational(seed=2024, cases=cases))
    checks = [r.to_json() for r in reports]
    return checks, {"order": order, "cases": cases, "reports": len(checks)}


def _suite_hurwitz_oracle(args) -> Tuple[List[dict], dict]:
    d_cap = args.degree_cap if args.degree_cap is not None else 5
    g_max = args.g_max if args.g_max is not None else 2
    bounds = {"degree_cap": d_cap, "g_max": g_max}
    if g_max < 0:
        raise _nothing_to_verify(bounds)
    if d_cap > DEFAULT_DEGREE_CAP:
        raise ValueError(
            f"degree cap {d_cap} above the factorization-count cap {DEFAULT_DEGREE_CAP} "
            f"within bounds {json.dumps(bounds, sort_keys=True)}")
    checks = []
    for d in range(1, d_cap + 1):
        counts = factorization_counts(d, g_max)
        for parts in partitions_of(d):
            mu = Partition(parts)
            for g in range(g_max + 1):
                closed = one_part_number(g, mu)
                count = counts[mu.parts, g]
                aut = aut_factor(mu)
                checks.append({
                    "key": {"mu": list(mu.parts), "g": g},
                    "closed_form": rat_str(closed),
                    "aut_times_count": rat_str(aut * count),
                    "ok": closed == aut * count})
    return checks, {**bounds, "keys": len(checks)}


def _random_symbol(rng: random.Random, kind: str) -> FourierSymbol:
    terms = []
    for _ in range(rng.randint(1, 2)):
        m = rng.randint(1, 2)
        exps = {}
        for _ in range(rng.randint(1, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(m))
            exps[e] = GaussRat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)),
                               Fraction(rng.randint(-1, 1)))
        terms.append(make_term(rng.randint(0, 1), m, MultiPoly(slot_names(m), exps)))
    sym = symmetrize(FourierSymbol(DENSITY, tuple(terms)))
    if kind == INTEGRATED:
        return FourierSymbol(INTEGRATED, sym.terms)
    return sym


def _bracket_oracle_draw(rng: random.Random, modes: int) -> Optional[dict]:
    """Compare one random pair on both routes; None when nothing is compared."""
    from .weyl import monomial_mode_sum, symbol_to_weyl, weyl_commutator_over_hbar
    left = _random_symbol(rng, DENSITY)
    right = _random_symbol(rng, INTEGRATED)
    if left.is_zero() or right.is_zero():
        return None
    max_grade = left.max_grade() + right.max_grade() + min(
        max(t.m for t in left.terms), max(t.m for t in right.terms))
    sym = bracket(left, right, max_grade)
    direct = weyl_commutator_over_hbar(
        symbol_to_weyl(left, modes), symbol_to_weyl(right, modes), modes)
    via_symbol = symbol_to_weyl(sym, modes)
    mismatches = 0
    compared = 0
    for key in set(direct.terms) | set(via_symbol.terms):
        if monomial_mode_sum(key[1:], modes) > modes:
            continue
        compared += 1
        if direct.terms.get(key, GaussRat(0)) != via_symbol.terms.get(key, GaussRat(0)):
            mismatches += 1
    if compared == 0:
        return None
    return {"compared": compared, "mismatches": mismatches, "ok": mismatches == 0}


# a pair with a zero commutator compares nothing; 29 of the first 50 nonzero
# pairs at the default seed are such pairs, so at that rate a case runs out of
# redraws with odds near 1e-5
_BRACKET_ORACLE_REDRAWS = 20


def _suite_bracket_oracle(args) -> Tuple[List[dict], dict]:
    cases = args.cases if args.cases is not None else 50
    modes = args.modes if args.modes is not None else 5
    bounds = {"cases": cases, "modes": modes, "seed": args.seed}
    if modes < 1:
        # no monomial has a mode sum within 0 modes, so every case compares nothing
        raise _nothing_to_verify(bounds)
    rng = random.Random(args.seed if args.seed is not None else 20240)
    checks = []
    for case in range(1, cases + 1):
        for _ in range(1 + _BRACKET_ORACLE_REDRAWS):
            check = _bracket_oracle_draw(rng, modes)
            if check is not None:
                break
        else:
            raise ValueError(
                f"case {case}: {1 + _BRACKET_ORACLE_REDRAWS} draws compared no monomial "
                f"within bounds {json.dumps(bounds, sort_keys=True)}")
        checks.append({"key": {"case": case}, **check})
    return checks, bounds


def cmd_verify(args) -> int:
    runners = {
        "main-theorem": _suite_main_theorem,
        "string": _suite_string,
        "levels": _suite_levels,
        "identities": _suite_identities,
        "hurwitz-oracle": _suite_hurwitz_oracle,
        "bracket-oracle": _suite_bracket_oracle,
    }
    memo = _memo_state()
    t0 = time.monotonic()
    checks, bounds = runners[args.suite](args)
    if not checks:
        raise _nothing_to_verify(bounds)
    ok = all(c["ok"] for c in checks)
    record = {"kind": "verdict", "suite": args.suite, "bounds": bounds,
              "ok": ok, "checks": checks,
              "metadata": {"runtime_ms": round(1000 * (time.monotonic() - t0), 3),
                           "memo": memo}}
    if not ok:
        record["first_failure"] = next(c for c in checks if not c["ok"])
    _emit(record)
    return 0 if ok else 1


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qwk",
        description="Exact correlators of the quantum KdV hierarchy and "
                    "one-part double Hurwitz numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("correlator", help="compute one correlator")
    p.add_argument("--g", type=int, required=True, help="hbar grade (genus)")
    p.add_argument("--d", type=str, required=True, help="comma list of insertions")
    p.add_argument("--hurwitz-oracle", action="store_true",
                   help="also compute the Hurwitz value and compare")
    p.add_argument("--decimal", action="store_true", help="add marked decimal approximation")
    p.set_defaults(func=cmd_correlator)

    p = sub.add_parser("hurwitz", help="one-part double Hurwitz numbers")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mu", type=str, help="partition, comma-separated positive parts")
    p.add_argument("--d", type=str, help="correlator insertions instead of a partition")
    p.add_argument("--oracle", action="store_true",
                   help="with --mu: compare against the factorization count")
    p.add_argument("--decimal", action="store_true")
    p.set_defaults(func=cmd_hurwitz)

    p = sub.add_parser("table", help="correlator table grouped by level")
    p.add_argument("--g-max", type=int, default=2)
    p.add_argument("--n-max", type=int, default=2)
    p.add_argument("--sum-max", type=int, default=8)
    p.add_argument("--format", choices=("json", "csv", "md"), default="md")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=SUITES)
    p.add_argument("--g-max", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None)
    p.add_argument("--sum-max", type=int, default=None)
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--cases", type=int, default=None)
    p.add_argument("--modes", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--degree-cap", type=int, default=None)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        parser.exit(2, f"error: {exc}\n")
    except BrokenPipeError:
        return 0


if __name__ == "__main__":
    sys.exit(main())

"""Exact output checks that do not call the code under test.

Every check returns an error string, or None when the output is right.
The checks use only ``fractions.Fraction`` and their own parsing, so a
bug in sumfree's interval algebra or parser cannot hide itself here.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

_HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(_HERE, "reference.json"), encoding="utf-8") as _fh:
    REFERENCE = json.load(_fh)

DELTA_STAR = Fraction(1, 114)


def ref_f(n: int, k: int) -> int:
    return REFERENCE["f"][f"{n},{k}"]


def ref_optimum(m: int, k: int) -> Fraction:
    table = REFERENCE["search_optimum"] if m == 5 else REFERENCE["continuous_optimum"]
    return Fraction(table[f"{m},{k}"])


def mu_closed_form(k: int) -> Fraction:
    """k(k-2)/(k^2-2) + 8(k-2)/(k(k^2-2)(k^4-2k^2-4)), the paper's mu(k)."""
    return (Fraction(k * (k - 2), k * k - 2)
            + Fraction(8 * (k - 2), k * (k * k - 2) * (k**4 - 2 * k * k - 4)))


# --- interval unions, as plain lists of (lo, hi) Fractions ---------------

def parse_pairs(text: str) -> list[tuple[Fraction, Fraction]]:
    """"(p/q,r/s);(...)" to raw pairs, in the order written."""
    pairs = []
    for piece in filter(None, (p.strip() for p in text.split(";"))):
        lo, hi = piece.strip("()").split(",")
        pairs.append((Fraction(lo), Fraction(hi)))
    return pairs


def merge(pairs) -> list[tuple[Fraction, Fraction]]:
    """Disjoint, non-touching open intervals covering the same set up to points."""
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(p for p in pairs if p[0] < p[1]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def measure(pairs) -> Fraction:
    return sum((hi - lo for lo, hi in merge(pairs)), Fraction(0))


def sum_free(pairs, k: int) -> bool:
    """No sum window (a+b) meets k*(a component) in positive length."""
    live = [p for p in pairs if p[0] < p[1]]
    for i, (alo, ahi) in enumerate(live):
        for blo, bhi in live[i:]:
            for tlo, thi in live:
                if min(ahi + bhi, k * thi) > max(alo + blo, k * tlo):
                    return False
    return True


def sumset_measure(pairs) -> Fraction:
    live = merge(pairs)
    return measure([(a + c, b + d) for a, b in live for c, d in live])


def _inside(x: Fraction, pairs) -> bool:
    return any(lo < x < hi for lo, hi in merge(pairs))


def _union_pairs(union) -> list[tuple[Fraction, Fraction]]:
    return [(iv.lo, iv.hi) for iv in union.intervals]


# --- search -------------------------------------------------------------

def check_search(result, m: int, k: int) -> str | None:
    want = ref_optimum(m, k)
    if result.optimum != want:
        return f"optimum {result.optimum} != {want}"
    if result.status != "proven":
        return f"status {result.status!r}"
    if result.witnesses_exact is not True:
        return "witness list not proven complete"
    if len(result.witnesses) != 1:
        return f"{len(result.witnesses)} witnesses, expected exactly 1"
    pairs = _union_pairs(result.witnesses[0])
    if any(lo < 0 or hi > 1 for lo, hi in pairs):
        return "witness leaves [0, 1]"
    if measure(pairs) != want:
        return f"witness measure {measure(pairs)} != optimum {want}"
    if not sum_free(pairs, k):
        return f"witness is not {k}-sum-free"
    return None


# --- discrete -----------------------------------------------------------

def _set_error(elements, n: int, k: int, size: int) -> str | None:
    s = set(elements)
    if len(s) != len(elements) or len(s) != size:
        return f"set of {len(elements)} elements ({len(s)} distinct), expected {size}"
    if not all(1 <= x <= n for x in s):
        return f"element outside 1..{n}"
    for a in s:
        for b in s:
            if a <= b and (a + b) % k == 0 and (a + b) // k in s:
                return f"{a} + {b} = {k}*{(a + b) // k} inside the set"
    return None


def check_f_max(output, n: int, k: int) -> str | None:
    value, witness = output
    if value != ref_f(n, k):
        return f"f({n},{k}) = {value}, reference {ref_f(n, k)}"
    return _set_error(list(witness), n, k, value)


def check_enumeration(sets, n: int, k: int) -> str | None:
    want = REFERENCE["enumerate_count"][f"{n},{k}"]
    if len(sets) != want:
        return f"{len(sets)} maximum sets, reference {want}"
    if sorted(map(tuple, sets)) != [tuple(s) for s in sets] or len(set(map(tuple, sets))) != len(sets):
        return "maximum sets not sorted and distinct"
    for s in sets:
        err = _set_error(list(s), n, k, ref_f(n, k))
        if err:
            return err
    return None


# --- certify ------------------------------------------------------------

def check_certificate(cert) -> str | None:
    if cert.delta_star != DELTA_STAR:
        return f"delta* = {cert.delta_star}, expected 1/114"
    for step in cert.steps:
        if step.ok is not True or not step.lhs <= step.rhs:
            return f"chain step {step.name} fails: {step.lhs} vs {step.rhs}"
    return None


def check_harness(report, trials: int) -> str | None:
    if report.trials != trials or report.violations != 0:
        return f"{report.violations} violations in {report.trials} trials"
    pairs = _union_pairs(report.min_slack_example)
    m, diam = measure(pairs), pairs[-1][1] - pairs[0][0]
    slack = sumset_measure(pairs) - min(3 * m, m + diam)
    if slack != report.min_slack or slack < 0:
        return f"min slack {report.min_slack}, recomputed {slack}"
    return None


def check_verdict(output, text: str, k: int) -> str | None:
    """sumfree's (free, witness) for the union written as ``text``."""
    free, witness = output
    pairs = parse_pairs(text)
    if free != sum_free(pairs, k):
        return f"verdict {free} for {text!r}, expected {not free}"
    if free:
        return None if witness is None else "witness given for a free set"
    x, y, z = witness
    if x + y != k * z or not all(_inside(v, pairs) for v in (x, y, z)):
        return f"bad witness {witness} for {text!r}"
    return None


# --- CLI ----------------------------------------------------------------

def check_cli_payload(output, expected: dict) -> str | None:
    code, stdout = output
    if code != 0:
        return f"exit code {code}"
    got = json.loads(stdout)
    return None if got == expected else f"payload {got!r} != written {expected!r}"


def check_cli_discrete(output, n: int, k: int) -> str | None:
    code, stdout = output
    if code != 0:
        return f"exit code {code}"
    got = json.loads(stdout)
    return check_f_max((got["f"], got["witnesses"][0]), n, k)


def check_cli_continuous(output, m: int, k: int) -> str | None:
    code, stdout = output
    if code != 0:
        return f"exit code {code}"
    got = json.loads(stdout)
    want = ref_optimum(m, k)
    if Fraction(got["optimum"]) != want or got["status"] != "proven":
        return f"optimum {got['optimum']} ({got['status']}), expected {want}"
    for text in got["witnesses"]:
        pairs = parse_pairs(text)
        if measure(pairs) != want or not sum_free(pairs, k):
            return f"bad witness {text!r}"
    return None


def check_cli_report(output, keys: int) -> str | None:
    code, stdout = output
    rows = [line for line in stdout.splitlines() if line.startswith("| ")][2:]
    if code != 0 or len(rows) != keys:
        return f"exit code {code}, {len(rows)} rows for {keys} cached keys"
    return None


# --- the checks' own self-test ------------------------------------------

def self_test_errors() -> list[str]:
    """Known answers for the helpers above; empty when they all hold."""
    errors = []
    third = Fraction(1, 3)
    cases = [
        ("(2/3,1)", 3, True),
        ("(1/4,1/2);(2/3,1)", 3, False),
        ("(0,1/2);(1/2,1)", 3, False),
        ("(1/3,2/3)", 3, False),
        ("(1/2,1)", 3, False),
    ]
    for text, k, want in cases:
        if sum_free(parse_pairs(text), k) != want:
            errors.append(f"sum_free({text!r}, {k}) != {want}")
    if measure(parse_pairs("(0,1/2);(1/4,3/4);(3/4,1)")) != 1:
        errors.append("measure of a touching cover of (0,1) != 1")
    if sumset_measure([(Fraction(0), third)]) != 2 * third:
        errors.append("|(0,1/3)+(0,1/3)| != 2/3")
    if _set_error([3, 4, 5], 5, 3, 3) is None:  # 4 + 5 = 3*3
        errors.append("triple 4+5=3*3 not found")
    for k in range(4, 8):
        if mu_closed_form(k) != ref_optimum(5, k):
            errors.append(f"reference mu({k}) disagrees with the closed form")
    return errors

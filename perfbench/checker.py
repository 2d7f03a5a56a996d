"""Output checks and the determinism digest of the matpi benchmark.

Everything here reads the structured JSON reports and imports nothing from
matpi: the standard polynomial is re-evaluated by this module's own exact
evaluator, which expands along the first argument,

    s_t(x_1, ..., x_t) = sum over i of (-1)^(i-1) x_i s_(t-1)(x_1, ..., ^x_i, ..., x_t),

memoized over argument subsets.  matpi's evaluators multiply on the right
instead, so the two share no code and no recurrence.
"""

from __future__ import annotations

import copy
import hashlib
import json
from fractions import Fraction
from itertools import permutations


class Scalars:
    """Exact scalars of one ring: integers mod m, or Fractions when m is None."""

    def __init__(self, ring: tuple):
        kind, mod = ring
        self.mod = None if kind == "q" else mod

    def parse(self, text: str):
        if self.mod is None:
            return Fraction(text)
        return int(text) % self.mod

    def reduce(self, v):
        return v if self.mod is None else v % self.mod


def _matmul(a: list, b: list, n: int, sc: Scalars) -> list:
    out = []
    for i in range(n):
        row = a[i * n:(i + 1) * n]
        for j in range(n):
            out.append(sc.reduce(sum(row[k] * b[k * n + j] for k in range(n) if row[k])))
    return out


def standard_value(mats: list, n: int, sc: Scalars) -> list:
    """s_t of flat n x n matrices, exactly, by first-argument expansion."""
    t = len(mats)
    memo = {0: [1 if i == j else 0 for i in range(n) for j in range(n)]}

    def s(mask: int) -> list:
        if mask in memo:
            return memo[mask]
        acc = [0] * (n * n)
        sign = 1
        for i in range(t):
            if mask >> i & 1:
                rest = s(mask & ~(1 << i))
                prod = _matmul(mats[i], rest, n, sc)
                acc = [x + sign * y for x, y in zip(acc, prod)]
                sign = -sign
        memo[mask] = [sc.reduce(x) for x in acc]
        return memo[mask]

    return s((1 << t) - 1)


def sign_vector(t: int) -> list:
    """Permutation signs in lexicographic rank order."""
    out = []
    for word in permutations(range(t)):
        inv = sum(1 for i in range(t) for j in range(i + 1, t) if word[i] > word[j])
        out.append(-1 if inv & 1 else 1)
    return out


def walk(node):
    """Every dict inside a JSON document, in a fixed order (sorted keys)."""
    if isinstance(node, dict):
        yield node
        for key in sorted(node):
            yield from walk(node[key])
    elif isinstance(node, list):
        for item in node:
            yield from walk(item)


def _check_by_name(doc: dict, name: str):
    return next((c for c in doc.get("checks", []) if c.get("name") == name), None)


def check_report(doc: dict, ring: tuple, expect: dict) -> list:
    """Problems found in one structured report; an empty list means it passed.

    Every witness (a dict with mats and value) is re-evaluated and must be
    nonzero and equal to the reported value; every exhaustive identity
    verdict must have swept its whole tuple space; known values must hold.
    """
    sc = Scalars(ring)
    problems = []
    for d in walk(doc):
        if "mats" in d and "value" in d:
            mats = d["mats"]
            n = len(d["value"])
            flat = [[sc.parse(v) for row in m for v in row] for m in mats]
            value = [sc.parse(v) for row in d["value"] for v in row]
            got = standard_value(flat, n, sc)
            if not any(got):
                problems.append(f"witness of degree {len(mats)} evaluates to zero")
            elif got != value:
                problems.append(f"witness of degree {len(mats)} has a different value")
        if d.get("mode") == "exhaustive" and d.get("verdict") == "identity":
            if d.get("tuples_checked") != d.get("tuple_space"):
                problems.append(
                    f"exhaustive identity verdict for s_{d.get('degree')} checked "
                    f"{d.get('tuples_checked')} of {d.get('tuple_space')} tuples")
    if expect.get("al_identity"):
        chk = _check_by_name(doc, "al-identity")
        if chk is None or (chk.get("detail") or {}).get("verdict") != "identity":
            problems.append("s_2n is not reported as an identity of M_n")
    if "min_degree" in expect:
        chk = _check_by_name(doc, "min-degree")
        got = (chk or {}).get("detail", {}).get("min_standard_degree")
        if got != expect["min_degree"]:
            problems.append(f"minimal degree {got}, expected {expect['min_degree']}")
    if "sign_vector" in expect:
        chk = _check_by_name(doc, "identity-space")
        basis = (chk or {}).get("detail", {}).get("basis")
        signs = [sc.reduce(v) for v in sign_vector(expect["sign_vector"])]
        negs = [sc.reduce(-v) for v in signs]
        vecs = [[sc.parse(v) for v in vec] for vec in basis or []]
        if vecs not in ([signs], [negs]):
            problems.append("identity space is not spanned by the sign vector")
    return problems


def verdict_fields(rc: int, doc) -> list:
    """The verdict-level content of one operation's result.

    Exit code, and from the report: each verdict with its probabilistic
    flag and witness indices and value, each minimal degree, each identity
    space basis, and each classification kind and reason.  Whole report
    bytes are left out, so a field added to reports later keeps the digest.
    """
    out = [rc]
    for d in walk(doc) if doc is not None else ():
        if "verdict" in d:
            w = d.get("witness") or {}
            out.append(["verdict", d["verdict"], d.get("probabilistic"),
                        w.get("indices"), w.get("value")])
        if "min_standard_degree" in d:
            out.append(["min_degree", d["min_standard_degree"]])
        if "basis" in d and "dimension" in d:
            out.append(["space", d["basis"]])
        if "kind" in d:
            out.append(["kind", d["kind"], d.get("reason")])
    return out


def op_digest(rc: int, doc) -> str:
    blob = json.dumps(verdict_fields(rc, doc), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def pass_digest(op_digests: list) -> str:
    return hashlib.sha256("".join(op_digests).encode()).hexdigest()


def corrupt_first_witness(doc: dict):
    """A copy of doc with one entry of its first witness value changed by +1,
    or None when doc has no witness."""
    bad = copy.deepcopy(doc)
    for d in walk(bad):
        if "mats" in d and "value" in d:
            row = d["value"][0]
            row[0] = str(Fraction(row[0]) + 1)
            return bad
    return None

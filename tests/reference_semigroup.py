"""The semigroup kernels as ``rankmat.semigroup`` had them before they read
the Cayley table directly and counted syntactic classes over distinct
contexts, kept as the reference that the library is compared against:

- ``class_counts``: the layered syntactic class counts over every context
  in (S + {eps})^k, so layer k's states have (n+1)^k entries each.
- ``omega``, ``green``, ``is_almost_commutative`` and ``identity_suite``:
  every product through ``S.mult``, ``S.product`` and ``power`` (once the
  method ``FiniteSemigroup.power``), and powers recomputed per element and
  per check.
- ``context_separated``: ``premise_checks``'s test that x*a*y != x*b*y for
  some context (x, y) whenever a != b, as the double loop over pairs and
  contexts that it was, 2n^4 ``S.product`` calls."""
from __future__ import annotations

from itertools import chain, product
from typing import Iterable, Iterator

from rankmat.semigroup import (
    FiniteSemigroup,
    GreenData,
    IdentityReport,
    OmegaBoundExceeded,
    Overflow,
)


def power(S: FiniteSemigroup, a: int, n: int) -> int:
    result = a
    for _ in range(n - 1):
        result = S.table[result][a]
    return result


def idempotents(S: FiniteSemigroup) -> frozenset:
    return frozenset(e for e in S.elements() if S.mult(e, e) == e)


def omega(S: FiniteSemigroup) -> int:
    n = 1
    while True:
        if all(S.mult(power(S, s, n), power(S, s, n)) == power(S, s, n) for s in S.elements()):
            return n
        n += 1
        if n > 2 * S.size * S.size + 2:
            raise OmegaBoundExceeded("omega search exceeded the finite bound")


def closure(S: FiniteSemigroup, generators: Iterable[int]) -> frozenset:
    """The subsemigroup generated by the generators: each round multiplies
    the elements found so far with the last round's new ones, both ways."""
    out = set(generators)
    frontier = list(out)
    while frontier:
        new = []
        for a in list(out):
            for b in frontier:
                for x in (S.mult(a, b), S.mult(b, a)):
                    if x not in out:
                        out.add(x)
                        new.append(x)
        frontier = new
    return frozenset(out)


def green(S: FiniteSemigroup) -> GreenData:
    n = S.size
    prefixes = []
    suffixes = []
    infixes = []
    for b in range(n):
        pre = {b} | {a for a in range(n) if any(S.mult(a, s) == b for s in range(n))}
        suf = {b} | {a for a in range(n) if any(S.mult(s, a) == b for s in range(n))}
        inf = set(pre) | set(suf) | {
            a
            for a in range(n)
            if any(S.mult(S.mult(x, a), y) == b for x in range(n) for y in range(n))
        }
        prefixes.append(frozenset(pre))
        suffixes.append(frozenset(suf))
        infixes.append(frozenset(inf))

    def classes(down: list) -> tuple:
        # a ~ b iff mutual membership in each other's down-sets
        ids = {}
        out = []
        for x in range(n):
            key = frozenset(y for y in range(n) if x in down[y] and y in down[x])
            if key not in ids:
                ids[key] = len(ids)
            out.append(ids[key])
        return tuple(out)

    r_class = classes(prefixes)
    l_class = classes(suffixes)
    j_class = classes(infixes)
    h_ids = {}
    h_class = []
    for x in range(n):
        key = (r_class[x], l_class[x])
        if key not in h_ids:
            h_ids[key] = len(h_ids)
        h_class.append(h_ids[key])
    return GreenData(
        r_class, l_class, j_class, tuple(h_class),
        tuple(prefixes), tuple(suffixes), tuple(infixes),
    )


def is_almost_commutative(S: FiniteSemigroup):
    """exyf = eyxf for all idempotents e, f and all x, y."""
    es = sorted(idempotents(S))
    for e in es:
        for f in es:
            for x in S.elements():
                for y in S.elements():
                    lhs = S.product((e, x, y, f))
                    rhs = S.product((e, y, x, f))
                    if lhs != rhs:
                        return False, (e, x, y, f)
    return True, None


def context_separated(S: FiniteSemigroup) -> bool:
    return all(
        any(
            S.product((x, a, y)) != S.product((x, b, y))
            for x in S.elements()
            for y in S.elements()
        )
        for a in S.elements()
        for b in S.elements()
        if a != b
    )


def class_counts(S: FiniteSemigroup, cap: int) -> Iterator:
    """Yield the syntactic class count on S^k for k = 0, 1, 2, ..., each
    as ``Overflow()`` when it exceeds ``cap``.

    Layer k holds the distinct prefix states of the words of length k. The
    state of w_1..w_k is the tuple, over contexts (c_0..c_{k-1}) in
    (S + {eps})^k, of the products c_0 w_1 ... c_{k-1} w_k, so the state
    of w.a is a function of the state of w and of a. Element n stands for
    the empty product, which only the empty prefix has."""
    n = S.size
    rows = S.table + (tuple(range(n)),)  # row n: the empty product times x
    # blocks[a][p]: the entries p.c.a for c in S, then p.a (c omitted)
    blocks = [
        [tuple(rows[rows[p][c]][a] for c in range(n)) + (rows[p][a],)
         for p in range(n + 1)]
        for a in range(n)
    ]
    layer = {(n,)}
    while True:
        yield Overflow() if len(layer) > cap else len(layer)
        layer = {
            tuple(chain.from_iterable(map(block.__getitem__, state)))
            for state in layer
            for block in blocks
        }


def identity_suite(S: FiniteSemigroup) -> IdentityReport:
    es = sorted(idempotents(S))
    w = omega(S)
    gdata = green(S)
    results = []

    def check(name, tuples, test):
        for t in tuples:
            if not test(*t):
                results.append((name, False, t))
                return
        results.append((name, True, None))

    # ef = (ef)^(omega+1)
    check(
        "ef_eq_ef_pow_omega_plus_1",
        product(es, es),
        lambda e, f: S.mult(e, f) == power(S, S.mult(e, f), w + 1),
    )
    # ef = efef
    check(
        "ef_eq_efef",
        product(es, es),
        lambda e, f: S.mult(e, f) == S.product((e, f, e, f)),
    )
    # exf = exef
    check(
        "exf_eq_exef",
        product(es, S.elements(), es),
        lambda e, x, f: S.product((e, x, f)) == S.product((e, x, e, f)),
    )
    # eaf = eaef
    check(
        "eaf_eq_eaef",
        product(es, S.elements(), es),
        lambda e, a, f: S.product((e, a, f)) == S.product((e, a, e, f)),
    )
    # (ab)^! = a^! b^!
    check(
        "factorial_homomorphism",
        product(S.elements(), S.elements()),
        lambda a, b: power(S, S.mult(a, b), w) == S.mult(power(S, a, w), power(S, b, w)),
    )
    # e(ab)e = (eae)(ebe)
    check(
        "eae_homomorphism",
        product(es, S.elements(), S.elements()),
        lambda e, a, b: S.product((e, S.mult(a, b), e))
        == S.mult(S.product((e, a, e)), S.product((e, b, e))),
    )
    # ef = egf for idempotent g in the subsemigroup generated by the
    # infixes of e and f
    def swallow(e, f):
        gen = closure(S, gdata.infixes[e] | gdata.infixes[f])
        for g in sorted(gen):
            if S.mult(g, g) == g and S.mult(e, f) != S.product((e, g, f)):
                return False
        return True

    check("swallow_idempotents", product(es, es), swallow)
    return IdentityReport(tuple(results))

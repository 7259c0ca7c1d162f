"""Finite semigroups: Cayley-table validation, idempotent powers, Green's
relations, almost-commutativity, syntactic congruences on S^k, and the
identity suites."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice, product
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from . import caps
from .caps import Overflow

__all__ = [
    "FiniteSemigroup",
    "GreenData",
    "IdentityReport",
    "validate",
    "omega",
    "OmegaBoundExceeded",
    "idempotents",
    "green",
    "is_almost_commutative",
    "syntactic_class_count",
    "syntactic_class_counts",
    "prefix_suffix_multiset_determines",
    "identity_suite",
    "premise_checks",
    "finitary_generator_check",
    "counts_non_increasing_after_repeat",
]


@dataclass(frozen=True)
class FiniteSemigroup:
    size: int
    table: tuple  # tuple of row tuples
    unit: Optional[int] = None

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def product(self, word: Sequence[int]) -> int:
        it = iter(word)
        result = next(it)
        for x in it:
            result = self.table[result][x]
        return result

    def power(self, a: int, n: int) -> int:
        result = a
        for _ in range(n - 1):
            result = self.table[result][a]
        return result

    def elements(self) -> range:
        return range(self.size)


def validate(table: Sequence[Sequence[int]], unit: Optional[int] = None) -> FiniteSemigroup:
    n = len(table)
    rows = tuple(tuple(row) for row in table)
    for row in rows:
        if len(row) != n:
            raise ValueError("table must be square")
        for x in row:
            if not (0 <= x < n):
                raise ValueError(f"entry {x} out of range")
    # (ab)c = a(bc) for every c says that row ab equals row a read at the
    # entries of row b; c is scanned only where a pair fails, to name the
    # first failing triple. A 1-element table in range is associative, and
    # itemgetter with one index would return a scalar, not a tuple.
    readers = [itemgetter(*row) for row in rows] if n > 1 else []
    for a, row_a in enumerate(rows):
        for b, read in enumerate(readers):
            ab = row_a[b]
            if rows[ab] == read(row_a):
                continue
            for c in range(n):
                if rows[ab][c] != row_a[rows[b][c]]:
                    raise ValueError(
                        f"not associative at ({a},{b},{c}): "
                        f"({a}{b}){c} = {rows[ab][c]} but {a}({b}{c}) = {row_a[rows[b][c]]}"
                    )
    if unit is not None:
        if not (0 <= unit < n):
            raise ValueError(f"unit {unit} out of range")
        for a in range(n):
            if rows[unit][a] != a or rows[a][unit] != a:
                raise ValueError(f"unit laws fail at {a}")
    return FiniteSemigroup(n, rows, unit)


def idempotents(S: FiniteSemigroup) -> frozenset:
    return frozenset(e for e in S.elements() if S.mult(e, e) == e)


class OmegaBoundExceeded(ValueError):
    """No power up to the search bound 2 * size**2 + 2 is idempotent for
    every element."""


def omega(S: FiniteSemigroup) -> int:
    n = 1
    while True:
        if all(S.mult(S.power(s, n), S.power(s, n)) == S.power(s, n) for s in S.elements()):
            return n
        n += 1
        if n > 2 * S.size * S.size + 2:
            raise OmegaBoundExceeded("omega search exceeded the finite bound")


def _closure(S: FiniteSemigroup, generators: Iterable[int]) -> frozenset:
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


@dataclass(frozen=True)
class GreenData:
    r_class: tuple  # per element, class id
    l_class: tuple
    j_class: tuple
    h_class: tuple
    prefixes: tuple  # per element b, frozenset {a : a is a prefix of b}
    suffixes: tuple
    infixes: tuple  # per element b, frozenset {a : a is an infix of b}


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


def _class_counts(S: FiniteSemigroup, cap: int) -> Iterator:
    """Yield the syntactic class count on S^k for k = 0, 1, 2, ..., each
    as ``Overflow()`` when it exceeds ``cap``, building layer k only when
    its count is asked for.

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


def syntactic_class_count(S: FiniteSemigroup, k: int, cap: int = 10**6):
    """Number of classes of the syntactic congruence on S^k: tuples are
    identified when every interleaved context (each slot from S or
    omitted) yields the same product.

    A word's signature over the (n+1)^(k+1) contexts is a function of its
    prefix state (see ``_class_counts``), and its entries with the last
    context omitted are that state itself, so the count is the number of
    distinct states of length k. They are built letter by letter, keeping
    only distinct states: layer i costs |layer i-1| * n * (n+1)^i steps,
    against n^k * (n+1)^(k+1) for walking every context of every word.
    Returns ``Overflow()`` exactly when the count exceeds ``cap``; earlier
    layers are built in full whatever their size, since counts need not be
    monotone in k."""
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    return next(islice(_class_counts(S, cap), k, None))


def syntactic_class_counts(S: FiniteSemigroup, k_max: int, cap: int = 10**6) -> list:
    """``[syntactic_class_count(S, k, cap) for k in 1..k_max]`` from one
    layered pass."""
    return list(islice(_class_counts(S, cap), 1, k_max + 1))


def prefix_suffix_multiset_determines(S: FiniteSemigroup, k: int, max_len: int = 8):
    """True iff equal-length words (length <= max_len) with the same first
    k letters, last k letters, and letter multiset have equal products;
    on failure, the first two words found with different products.

    Words equal in their first and last k + 1 letters are equal in their
    first and last k, so a determination at k holds at every larger k.

    Assumed, not taken from PAPER.md (which holds only the paper's
    induction-basis paragraph): S is almost commutative (exyf = eyxf for
    idempotents e, f) exactly when some k makes its products determined
    this way.  The ``semigroups`` suite checks that on its corpus at k = 2
    and length <= 6, a bounded scan that sees no longer words."""
    n = S.size
    total = sum(n**length for length in range(1, max_len + 1))
    caps.check("word_scan", total, "prefix/suffix/multiset word scan")
    table = S.table
    # (word, product) in lexicographic order, each length from the last
    words = [((x,), x) for x in S.elements()]
    for length in range(1, max_len + 1):
        if length > 1:
            words = [(w + (x,), table[v][x]) for w, v in words for x in S.elements()]
        if length <= 2 * k:
            continue  # the first and last k letters are the whole word
        groups: dict = {}
        for word, value in words:
            key = (word[:k], word[-k:] if k else (), tuple(sorted(word)))
            prev_word, prev_value = groups.setdefault(key, (word, value))
            if prev_value != value:
                return False, (prev_word, word)
    return True, None


@dataclass(frozen=True)
class IdentityReport:
    results: tuple  # tuple of (identity name, holds, counterexample or None)

    def all_hold(self) -> bool:
        return all(h for _, h, _ in self.results)


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
        lambda e, f: S.mult(e, f) == S.power(S.mult(e, f), w + 1),
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
        lambda a, b: S.power(S.mult(a, b), w) == S.mult(S.power(a, w), S.power(b, w)),
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
        gen = _closure(S, gdata.infixes[e] | gdata.infixes[f])
        for g in sorted(gen):
            if S.mult(g, g) == g and S.mult(e, f) != S.product((e, g, f)):
                return False
        return True

    check("swallow_idempotents", product(es, es), swallow)
    return IdentityReport(tuple(results))


def premise_checks(S: FiniteSemigroup, sigma: Iterable[int]) -> dict:
    sigma = sorted(set(sigma))
    squared = {S.mult(a, b) for a in S.elements() for b in S.elements()}
    generated = _closure(S, sigma)
    context_separated = all(
        any(
            S.product((x, a, y)) != S.product((x, b, y))
            for x in S.elements()
            for y in S.elements()
        )
        for a in S.elements()
        for b in S.elements()
        if a != b
    )
    return {
        "surjective": squared == set(S.elements()),
        "generates": generated == set(S.elements()),
        "context_separated": context_separated,
    }


def counts_non_increasing_after_repeat(counts: Sequence[int]) -> bool:
    """True iff after the first repeated value the counts never increase."""
    repeat = None
    for i in range(1, len(counts)):
        if counts[i] == counts[i - 1]:
            repeat = i
            break
    if repeat is None:
        return False
    return all(counts[i + 1] <= counts[i] for i in range(repeat, len(counts) - 1))


def finitary_generator_check(S: FiniteSemigroup, sigma: Iterable[int], budget: int = 6) -> dict:
    """Finite-order status of both multiplication-matrix orientations and
    the implied almost-commutativity assertions."""
    from .kronecker import Finite, finite_order, multiplication_matrix

    sigma = sorted(set(sigma))
    premises = premise_checks(S, sigma)
    if not (premises["surjective"] and premises["generates"]):
        raise ValueError(f"premises fail: {premises}")
    m_as = multiplication_matrix(S, list(S.elements()), sigma)
    m_sa = multiplication_matrix(S, sigma, list(S.elements()))
    order_as = finite_order(m_as, budget)
    order_sa = finite_order(m_sa, budget)
    ac, witness = is_almost_commutative(S)
    es = sorted(idempotents(S))
    generator_swap = all(
        S.product((e, x, y, f)) == S.product((e, y, x, f))
        for e in es
        for f in es
        for x in sigma
        for y in sigma
    )
    finite_detected = isinstance(order_as, Finite) or isinstance(order_sa, Finite)
    return {
        "premises": premises,
        "order_rows_S": order_as,
        "order_rows_sigma": order_sa,
        "almost_commutative": ac,
        "almost_commutative_witness": witness,
        "generator_swap": generator_swap,
        "consistent": (not finite_detected) or (ac and generator_swap),
    }

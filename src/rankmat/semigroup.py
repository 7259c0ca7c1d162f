"""Finite semigroups: Cayley-table validation, idempotent powers, Green's
relations, almost-commutativity, syntactic congruences on S^k, and the
identity suites."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations, islice
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
    return frozenset(e for e, row in enumerate(S.table) if row[e] == e)


class OmegaBoundExceeded(ValueError):
    """No power up to the search bound 2 * size**2 + 2 is idempotent for
    every element."""


def _omega_powers(S: FiniteSemigroup) -> tuple:
    """omega and the list of omega powers s^omega, one per element s."""
    t = S.table
    n, powers = 1, list(range(S.size))  # powers[s] = s^n
    while not all(t[x][x] == x for x in powers):
        n += 1
        if n > 2 * S.size * S.size + 2:
            raise OmegaBoundExceeded("omega search exceeded the finite bound")
        powers = [t[x][s] for s, x in enumerate(powers)]
    return n, powers


def omega(S: FiniteSemigroup) -> int:
    return _omega_powers(S)[0]


def _closure(S: FiniteSemigroup, generators: Iterable[int]) -> frozenset:
    """The subsemigroup generated by the generators: each round multiplies
    the elements found so far with the last round's new ones, both ways."""
    t = S.table
    out = set(generators)
    frontier = list(out)
    while frontier:
        new = []
        for a in list(out):
            for b in frontier:
                for x in (t[a][b], t[b][a]):
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


def _first_seen_ids(keys: Iterable) -> tuple:
    """Each key's id, ids numbered in the order the keys are first seen."""
    ids: dict = {}
    return tuple(ids.setdefault(key, len(ids)) for key in keys)


def _divisors(S: FiniteSemigroup) -> tuple:
    """Per element b, the frozensets of its prefixes, of its suffixes and
    of its infixes, b included in each."""
    t = S.table
    elems = S.elements()
    right = [set(row) for row in t]  # right[a]: {a s}
    left = [set(col) for col in zip(*t)]  # left[a]: {s a}
    both = [set().union(*map(right.__getitem__, left[a])) for a in elems]  # {x a y}
    prefixes = tuple(frozenset({b, *(a for a in elems if b in right[a])}) for b in elems)
    suffixes = tuple(frozenset({b, *(a for a in elems if b in left[a])}) for b in elems)
    infixes = tuple(prefixes[b] | suffixes[b] | {a for a in elems if b in both[a]}
                    for b in elems)
    return prefixes, suffixes, infixes


def green(S: FiniteSemigroup) -> GreenData:
    elems = S.elements()
    divisors = _divisors(S)

    def classes(down: tuple) -> tuple:
        # a ~ b iff mutual membership in each other's down-sets
        return _first_seen_ids(
            frozenset(y for y in elems if x in down[y] and y in down[x]) for x in elems)

    r_class, l_class, j_class = map(classes, divisors)
    return GreenData(r_class, l_class, j_class, _first_seen_ids(zip(r_class, l_class)), *divisors)


def _swap_witness(S: FiniteSemigroup, letters: Sequence[int]):
    """The first (e, x, y, f) with e, f idempotent, x, y in the sorted
    ``letters`` and exyf != eyxf, in the order e, f, x, y; None if none.
    (x, y) fails exactly when (y, x) does and x = y never does, so the
    first failure of each (e, f) has x < y, and only those pairs are read."""
    t = S.table
    es = sorted(idempotents(S))
    pairs = list(combinations(letters, 2))
    rows = {e: [t[v] for v in t[e]] for e in es}  # rows[e][x][y] = exy
    return next(((e, x, y, f) for e, ex in rows.items() for f in es for x, y in pairs
                 if t[ex[x][y]][f] != t[ex[y][x]][f]), None)


def is_almost_commutative(S: FiniteSemigroup):
    """exyf = eyxf for all idempotents e, f and all x, y; on failure, the
    first (e, x, y, f) in the order e, f, x, y."""
    witness = _swap_witness(S, S.elements())
    return witness is None, witness


def _class_counts(S: FiniteSemigroup, cap: int) -> Iterator:
    """Yield the syntactic class count on S^k for k = 0, 1, 2, ..., each
    as ``Overflow()`` when it exceeds ``cap``, building layer k only when
    its count is asked for.

    Layer k holds the distinct prefix states of the words of length k. The
    state of w_1..w_k is the tuple, over contexts (c_0..c_{k-1}) in
    (S + {eps})^k, of the products c_0 w_1 ... c_{k-1} w_k, so the state
    of w.a is a function of the state of w and of a: its entry at the
    context (c, x) is blocks[a][state[c]][x]. Element n stands for the
    empty product, which only the empty prefix has.

    Only distinct contexts, the distinct columns of the layer's states, are
    kept. Two contexts equal on every state of layer k give, by that entry
    formula, equal contexts (c, x) and (c', x) on every state of layer
    k + 1; and dropping a column equal to another keeps distinct states
    distinct. So each layer has as many states as in full, and its states
    have one entry per distinct context instead of (n+1)^k."""
    n = S.size
    rows = S.table + (tuple(range(n)),)  # row n: the empty product times x
    # blocks[a][p]: the entries p.c.a for c in S, then p.a (c omitted), read
    # off column a at the entries of row p, then at p
    readers = [itemgetter(*row, p) for p, row in enumerate(rows)]
    blocks = [[read(col) for read in readers] for col in zip(*rows)]
    layer = [(n,)]
    while True:
        yield Overflow() if len(layer) > cap else len(layer)
        grown = {
            tuple(chain.from_iterable(map(block.__getitem__, state)))
            for state in layer
            for block in blocks
        }
        layer = list(zip(*dict.fromkeys(zip(*grown))))


def syntactic_class_count(S: FiniteSemigroup, k: int, cap: int = 10**6):
    """Number of classes of the syntactic congruence on S^k: tuples are
    identified when every interleaved context (each slot from S or
    omitted) yields the same product.

    A word's signature over the (n+1)^(k+1) contexts is a function of its
    prefix state (see ``_class_counts``), and its entries with the last
    context omitted are that state itself, so the count is the number of
    distinct states of length k. They are built letter by letter, keeping
    only distinct states over distinct contexts: layer i costs
    |layer i-1| * n * (n+1) * c steps, where c <= (n+1)^(i-1) is the number
    of distinct contexts of layer i-1, against n^k * (n+1)^(k+1) for walking
    every context of every word.
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
    """Each identity with its first counterexample, in the order of its
    quantifiers, or None."""
    t = S.table
    elems = S.elements()
    es = sorted(idempotents(S))
    _, pw = _omega_powers(S)
    infixes = _divisors(S)[2]
    pairs = [(e, f, t[e][f]) for e in es for f in es]  # (e, f, ef)
    sandwiches = {e: [t[v][e] for v in t[e]] for e in es}  # sandwiches[e][a] = eae

    swallowed: dict = {}  # generators -> idempotents of the subsemigroup

    def swallows(e, f, ef):
        # ef = egf for idempotent g in the subsemigroup generated by the
        # infixes of e and f
        gens = infixes[e] | infixes[f]
        if gens not in swallowed:
            swallowed[gens] = [g for g in _closure(S, gens) if t[g][g] == g]
        return all(t[t[e][g]][f] == ef for g in swallowed[gens])

    # exf = exef, and eaf = eaef is the same identity
    exf = next(((e, x, f) for e in es for x, ex in enumerate(t[e]) for f in es
                if t[ex][f] != t[t[ex][e]][f]), None)
    witnesses = (
        ("ef_eq_ef_pow_omega_plus_1",  # ef = (ef)^(omega+1)
         next(((e, f) for e, f, ef in pairs if ef != t[pw[ef]][ef]), None)),
        ("ef_eq_efef", next(((e, f) for e, f, ef in pairs if ef != t[t[ef][e]][f]), None)),
        ("exf_eq_exef", exf),
        ("eaf_eq_eaef", exf),
        ("factorial_homomorphism",  # (ab)^! = a^! b^!
         next(((a, b) for a in elems for b in elems if pw[t[a][b]] != t[pw[a]][pw[b]]), None)),
        ("eae_homomorphism",  # e(ab)e = (eae)(ebe)
         next(((e, a, b) for e, s in sandwiches.items() for a in elems for b in elems
               if s[t[a][b]] != t[s[a]][s[b]]), None)),
        ("swallow_idempotents",
         next(((e, f) for e, f, ef in pairs if not swallows(e, f, ef)), None)),
    )
    return IdentityReport(tuple((name, witness is None, witness) for name, witness in witnesses))


def premise_checks(S: FiniteSemigroup, sigma: Iterable[int]) -> dict:
    sigma = sorted(set(sigma))
    squared = {S.mult(a, b) for a in S.elements() for b in S.elements()}
    generated = _closure(S, sigma)
    # x*a*y != x*b*y for some context (x, y) iff the signatures of a and b
    # over every context differ: n^3 table reads
    t = S.table
    signatures = {tuple(t[t[x][a]][y] for x in S.elements() for y in S.elements())
                  for a in S.elements()}
    context_separated = len(signatures) == S.size
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
    generator_swap = _swap_witness(S, sigma) is None
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

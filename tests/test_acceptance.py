"""Acceptance checks: one test (and one printed pass/fail line) per
criterion.  Each criterion runs a verification suite over deterministic
or seeded enumerations and fails on any counterexample; the summary
report carries the instance counts that were actually exercised.

Pinned scales (all enumerations deterministic, seeds fixed in suites.py):
  1  paths n <= 12, all connected subsets
  2  cliques and edgeless graphs n <= 8, all subsets
  3  3x3 and 4x4 grids, all subsets with |X| <= n^2/2
  4  all binary structures n <= 3 + seeded 800-structure n=4 sample
  5  monadic structures: exhaustive principal n <= 3 + seeded extras + n=4 sample
  6  labeled trees <= 6 leaves (identity) / <= 5 (rank and subforest checks) + all
     6-7 leaf shapes + all 8-leaf shapes (rank check only); the rank at m = 2
     where d >= 2, and d_ge_2 > 0 (at m = 1 every rank is at most 1)
  7  all tree shapes <= 9 leaves
  8  all associative tables size <= 3 + curated size-4 family, k <= 4; the
     prefix/suffix/multiset determination at k = 2, words of length <= 6
  9  same corpus filtered to product-closed tables, budget 6
  10 all monoids in the corpus, all (b, c, d), budget 5, growth n <= 6
  11 500 seeded Kronecker instances + 20 congruence spot-checks
  12 200 seeded unordered oracles (universe <= 30, <= 6 classes, 8-element
     semigroup) + 100 seeded ordered oracles (<= 12 classes)
  13 all (structure, partition) pairs n <= 3, m = 2 + seeded 40-structure
     n=4 sample
  14 identity pairs + the K8 -> P8 edge-removal fixture
"""
import pytest

from rankmat.suites import SUITES

# Each summary's data, pinned: a change that silently drops instances (or
# finds a new failure count) fails here even when every check passes.
CRITERIA = [
    (1, "path-bound", {"failures": 0, "instances": 364}),
    (2, "clique-edgeless", {"failures": 0, "instances": 510}),
    (3, "grid-sandwich", {"failures": 0, "instances": 39457, "tighter_violations": 0}),
    (4, "rank-sandwich", {"failures": 0, "instances": 16964}),
    (5, "ef-bound", {"failures": 0, "instances": 528}),
    # d_ge_2 > 0: the rank check meets trees where m = 1 would fail it
    (6, "trees", {"d_ge_2": 132, "failures": 0, "instances": 91564}),
    (7, "orientation", {"failures": 0, "instances": 1172}),
    (8, "semigroups", {"almost_commutative": 123, "failures": 0, "instances": 129}),
    (9, "finitary-generator", {"failures": 0, "instances": 82}),
    (10, "two-by-two", {"failures": 0, "instances": 1180}),
    (11, "kronecker-inequality", {"failures": 0, "instances": 520}),
    (12, "recovery", {"failures": 0, "instances": 300}),
    (13, "compositionality", {"failures": 0, "instances": 3194}),
    (14, "rank-decreasing", {"failures": 0, "instances": 2, "k8_p8_table": {"0": 0, "1": 4}}),
]


def run_criterion(number: int, suite: str, pinned: dict) -> None:
    reports = SUITES[suite]()
    summary = reports[-1]
    assert (summary.check, summary.instance) == (suite, "summary")
    failures = [r for r in reports if r.status == "fail"]
    assert failures == reports[:-1]
    verdict = "FAIL" if failures else "PASS"
    print(f"criterion {number:2d} ({suite}): {verdict} {summary.data}")
    assert not failures, [r.as_dict() for r in failures[:3]]
    assert summary.data == pinned


@pytest.mark.parametrize("number,suite,pinned", CRITERIA, ids=[s for _, s, _ in CRITERIA])
def test_criterion(number, suite, pinned):
    run_criterion(number, suite, pinned)

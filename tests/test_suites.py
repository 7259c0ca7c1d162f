"""The failure path of the suite driver.

Every real suite passes, so these tests break one kernel in the
`rankmat.suites` namespace, or register suites of their own, and pin the
failure reports and the summary that come back.
"""
import json

import pytest

from rankmat import suites
from rankmat.cli import main
from rankmat.suites import SUITES, Report, run_suite


def _always_flagged(inp, out):
    return {0: 1}, frozenset()


# (suite, kernel, stand-in, summary data, first failure report)
BROKEN = [
    ("path-bound", "graph_cut_rank", lambda g, X: 3,
     {"instances": 364, "failures": 373},
     {"check": "path-bound", "instance": "path1", "status": "fail",
      "data": {"subset": [0], "rank": 3}}),
    ("clique-edgeless", "graph_cut_rank", lambda g, X: len(X),
     {"instances": 510, "failures": 968},
     {"check": "clique-edgeless", "instance": "E1", "status": "fail",
      "data": {"subset": [0]}}),
    ("semigroups", "counts_non_increasing_after_repeat", lambda counts: False,
     {"instances": 129, "failures": 123, "almost_commutative": 123},
     {"check": "semigroups", "instance": "curated0", "status": "fail",
      "data": {"table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
               "almost_commutative": True, "determined": True,
               "counts": ["4", "4", "4", "4"]}}),
    # every table determined: the six that are not almost commutative fail
    ("semigroups", "prefix_suffix_multiset_determines", lambda S, k, max_len: (True, None),
     {"instances": 129, "failures": 6, "almost_commutative": 123},
     {"check": "semigroups", "instance": "table28", "status": "fail",
      "data": {"table": [[0, 0, 0], [0, 1, 2], [2, 2, 2]], "almost_commutative": False,
               "determined": True, "counts": ["3", "5", "7", "9"]}}),
    ("rank-decreasing", "rank_decreasing_report", _always_flagged,
     {"instances": 2, "failures": 2, "k8_p8_table": {"0": 1}},
     {"check": "rank-decreasing", "instance": "K8-to-P8", "status": "fail",
      "data": {"table": {"0": 1}}}),
    # rank 1 fails exactly the d = 2 pairs, so the rank check is not vacuous
    ("trees", "distinct_row_rank", lambda enc, X, m: 1,
     {"instances": 91564, "failures": 132, "d_ge_2": 132},
     {"check": "trees", "instance": "shape8-246", "status": "fail",
      "data": {"subset": [0, 1, 4, 5], "d": 2,
               "nodes": [[0], [0, 1, 2, 3], [0, 1, 2, 3, 4, 5, 6, 7], [1], [2], [3],
                         [4], [4, 5, 6, 7], [5], [6], [7]]}}),
]


def _ids(rows):
    """Each row's suite, with the kernel added where an earlier row breaks
    the same suite."""
    seen = set()
    for suite, kernel, *_ in rows:
        yield f"{suite}-{kernel}" if suite in seen else suite
        seen.add(suite)


@pytest.mark.parametrize("suite,kernel,stand_in,data,first", BROKEN, ids=list(_ids(BROKEN)))
def test_broken_kernel_pins_the_first_witness(monkeypatch, suite, kernel,
                                               stand_in, data, first):
    monkeypatch.setattr(suites, kernel, stand_in)
    reports = SUITES[suite]()
    summary = reports[-1]
    assert (summary.check, summary.instance, summary.status) == (suite, "summary", "fail")
    assert summary.data == data
    assert list(summary.data) == list(data)
    assert reports[0].as_dict() == first
    assert len(reports) - 1 == data["failures"]
    assert all(r.check == suite and r.status == "fail" for r in reports[:-1])


def test_rank_decreasing_witnesses_survive_a_json_round_trip(monkeypatch):
    # a non-diagonal identity table fails identity-path4; its table keys are
    # strings, as in the K8-to-P8 witness and the summary
    monkeypatch.setattr(suites, "rank_decreasing_report",
                        lambda inp, out: ({0: 0, 1: 2}, None))
    reports = SUITES["rank-decreasing"]()
    assert [r.instance for r in reports] == ["K8-to-P8", "identity-path4", "summary"]
    for report in reports:
        assert json.loads(json.dumps(report.data)) == report.data
    assert reports[1].data == {"table": {"0": 0, "1": 2}}


def test_failures_are_stable_sorted_by_instance(monkeypatch):
    # path-bound yields path1, path2, ..., path12 in that order, and sorts
    # path10 before path2; within one path, the order it yielded is kept
    monkeypatch.setattr(suites, "graph_cut_rank", lambda g, X: 3)
    reports = SUITES["path-bound"]()[:-1]
    labels = [r.instance for r in reports]
    assert labels[:2] == ["path1", "path10"]
    assert labels == sorted(labels)
    path4 = [r.data for r in reports if r.instance == "path4"]
    spans = [(a, b) for a in range(4) for b in range(a, 4)]
    assert path4 == [{"subset": list(range(a, b + 1)), "rank": 3} for a, b in spans] + [
        {"max_rank": 3}
    ]


def _two_fake_suites(monkeypatch):
    """A registry of two suites under names of their own, in an order that
    is not alphabetical; the second fails."""
    monkeypatch.setattr(suites, "SUITES", {
        "zz-first": SUITES["rank-decreasing"],
        "aa-second": SUITES["path-bound"],
    })
    monkeypatch.setattr(suites, "graph_cut_rank", lambda g, X: 3)


def test_run_suite_all_concatenates_in_registry_order(monkeypatch):
    _two_fake_suites(monkeypatch)
    first, second = SUITES["rank-decreasing"](), SUITES["path-bound"]()
    assert run_suite("all") == first + second
    assert [r.check for r in first + second if r.instance == "summary"] == [
        "rank-decreasing", "path-bound"]


def test_cli_verify_failing_suite_exits_1(monkeypatch, capsys):
    _two_fake_suites(monkeypatch)
    assert main(["verify", "aa-second"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "path-bound path1: fail subset=[0] rank=3"
    assert lines[-1] == "path-bound summary: fail instances=364 failures=373"
    assert main(["verify", "zz-first"]) == 0


def test_orientation_checks_mod_3_where_mod_4_fails(monkeypatch):
    # every mod-4 orientation is rejected; the mod-3 check of the same
    # shape must still run (shapes up to 5 leaves keep this cheap)
    real_shapes = suites.all_tree_shapes
    monkeypatch.setattr(suites, "all_tree_shapes",
                        lambda n: real_shapes(n) if n <= 5 else iter(()))
    monkeypatch.setattr(suites, "orientation_is_valid", lambda t, o: False)
    reports = SUITES["orientation"]()
    labels = [r.instance for r in reports[:-1]]
    assert labels[:4] == ["shape1-0", "shape1-0-mod3", "shape2-0", "shape2-0-mod3"]
    assert len([x for x in labels if x.endswith("-mod3")]) == 21
    assert reports[-1].data == {"instances": 22, "failures": 42}


def test_registered_body_becomes_reports(monkeypatch):
    monkeypatch.setattr(suites, "SUITES", {})

    @suites._suite("fake-b")
    def fake_b():
        yield "x2", {"n": 1}
        yield "x1", {"n": 2}
        yield "x2", {"n": 3}
        return {"instances": 5, "zeta": 1, "alpha": 2}

    @suites._suite("fake-a")
    def fake_a():
        return {"instances": 4}
        yield

    assert list(suites.SUITES) == ["fake-b", "fake-a"]
    reports = suites.SUITES["fake-b"]()
    assert reports == [
        Report("fake-b", "x1", "fail", {"n": 2}),
        Report("fake-b", "x2", "fail", {"n": 1}),
        Report("fake-b", "x2", "fail", {"n": 3}),
        Report("fake-b", "summary", "fail",
               {"instances": 5, "failures": 3, "zeta": 1, "alpha": 2}),
    ]
    assert list(reports[-1].data) == ["instances", "failures", "zeta", "alpha"]
    passing = Report("fake-a", "summary", "pass", {"instances": 4, "failures": 0})
    assert run_suite("all") == reports + [passing]
    assert main(["verify", "fake-b"]) == 1
    assert main(["verify", "fake-a"]) == 0

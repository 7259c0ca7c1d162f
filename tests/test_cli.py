import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rankmat.cli
from rankmat import caps, formats
from rankmat.cli import main
from rankmat.enumerate import cyclic_group, word_monoid_1abab0
from rankmat.kronecker import SemigroupMatrix
from rankmat.recovery import synth_oracle
from rankmat.suites import run_suite
from rankmat.trees import ternary_encode

P4_STRUCT = """structure
universe 4
rel E 2
0 1
1 0
1 2
2 1
2 3
3 2
end
"""


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "p4.struct").write_text(P4_STRUCT)
    (tmp_path / "t.tree").write_text("(u (u 0 1) 2)\n")
    (tmp_path / "z3.sgp").write_text(formats.write_semigroup(cyclic_group(3)))
    (tmp_path / "bad.sgp").write_text("semigroup 2\n0 1\n0 0\n")
    (tmp_path / "m.mat").write_text("matrix 2 2 sgp=z3.sgp\n0 1\n1 2\n")
    oracle = synth_oracle("unordered", [{0, 1}, {2, 3, 4}], 1)
    (tmp_path / "ctr.sgp").write_text(formats.write_semigroup(oracle.semigroup))
    (tmp_path / "o.orc").write_text(formats.write_oracle(oracle, "ctr.sgp"))
    ordered = synth_oracle("ordered", [{0}, {1, 2}, {3}], 2)
    (tmp_path / "ord.sgp").write_text(formats.write_semigroup(ordered.semigroup))
    (tmp_path / "po.orc").write_text(formats.write_oracle(ordered, "ord.sgp"))
    (tmp_path / "star.tree").write_text("(u (u 0 1 2) (u 3 4 5))\n")
    encoded = ternary_encode(formats.parse_tree("(u (u 0 1) 2)"))
    (tmp_path / "enc.struct").write_text(formats.write_structure(encoded))
    return tmp_path


# ---------------------------------------------------------------------------
# formats


def test_structure_round_trip():
    s = formats.parse_structure(P4_STRUCT)
    assert s.universe_size == 4
    assert formats.parse_structure(formats.write_structure(s)) == s


def test_structure_parse_errors():
    with pytest.raises(ValueError, match="header"):
        formats.parse_structure("universe 3\nend\n")
    with pytest.raises(ValueError, match="end"):
        formats.parse_structure("structure\nuniverse 3\n")
    with pytest.raises(ValueError, match="line 4"):
        formats.parse_structure("structure\nuniverse 2\nrel E 2\n0\nend\n")


def test_structure_comments_and_blanks():
    text = "# a path\nstructure\n\nuniverse 2 # two points\nrel E 2\n0 1\nend\n"
    s = formats.parse_structure(text)
    assert s.relation("E") == {(0, 1)}


def test_tree_round_trip():
    t = formats.parse_tree("(u (u 0 1) (u 2 3))")
    assert formats.parse_tree(formats.write_tree(t)) == t
    assert t.leaves == frozenset(range(4))


def test_tree_named_leaves():
    t = formats.parse_tree("(u a (u b c))")
    assert t.leaves == frozenset({"a", "b", "c"})


def test_tree_parse_errors():
    for bad in ["", "(u 0)", "(u 0 1", "(x 0 1)", "(u 0 0)", "(u 0 1) 2"]:
        with pytest.raises(ValueError):
            formats.parse_tree(bad)


def test_semigroup_round_trip_with_unit():
    w = word_monoid_1abab0()
    text = formats.write_semigroup(w)
    assert "unit 0" in text
    assert formats.parse_semigroup(text) == w


def test_matrix_round_trip(tmp_path):
    (tmp_path / "s.sgp").write_text(formats.write_semigroup(cyclic_group(2)))
    m = SemigroupMatrix.make([[0, 1], [1, 0]], cyclic_group(2))
    (tmp_path / "m.mat").write_text(formats.write_matrix(m, "s.sgp"))
    loaded = formats.load_matrix(str(tmp_path / "m.mat"))
    assert loaded.entries == m.entries
    assert loaded.semigroup == m.semigroup


@pytest.mark.parametrize("shape", ["0 3", "2 0", "0 0"])
def test_matrix_header_needs_a_row_and_a_column(workdir, capsys, shape):
    with pytest.raises(ValueError, match="^line 1: a matrix needs R >= 1 rows"):
        formats.parse_matrix(f"matrix {shape} sgp=z3.sgp\n", str(workdir))
    (workdir / "empty.mat").write_text(f"matrix {shape} sgp=z3.sgp\n")
    assert main(["kron", "order", str(workdir / "empty.mat")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"got {shape.replace(' ', ' x ')}" in captured.err


def test_oracle_round_trip(tmp_path):
    oracle = synth_oracle("ordered", [{0}, {1, 2}], 2)
    (tmp_path / "s.sgp").write_text(formats.write_semigroup(oracle.semigroup))
    (tmp_path / "o.orc").write_text(formats.write_oracle(oracle, "s.sgp"))
    loaded = formats.load_oracle(str(tmp_path / "o.orc"))
    assert loaded.ordered
    assert loaded.classes == oracle.classes
    assert loaded.lam == oracle.lam
    assert loaded.accept == oracle.accept
    assert loaded.k == oracle.k


# ---------------------------------------------------------------------------
# CLI


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# ---------------------------------------------------------------------------
# the full stdout of one command line per action, in text and JSON mode


def _r(check, instance, status, **data):
    return {"check": check, "instance": instance, "status": status, "data": data}


ENCODED_T = ("structure\nuniverse 3\nrel T 3\n0 0 0\n0 1 0\n0 1 1\n0 2 0\n0 2 1\n"
             "0 2 2\n1 0 0\n1 0 1\n1 1 1\n1 2 0\n1 2 1\n1 2 2\n2 0 0\n2 0 1\n"
             "2 0 2\n2 1 0\n2 1 1\n2 1 2\n2 2 2\nend\n")
M_KRON_M = [[0, 1, 1, 2], [1, 2, 2, 0], [1, 2, 2, 0], [2, 0, 0, 1]]
IDENTITIES = ["ef_eq_ef_pow_omega_plus_1", "ef_eq_efef", "exf_eq_exef", "eaf_eq_eaef",
              "factorial_homomorphism", "eae_homomorphism", "swallow_idempotents"]
ORDER = {"order": "finite", "index": 2, "period": 1}

# (action, the rest of the command line, exit code, text stdout, JSON reports)
PINNED = [
    ("rank", "--structure p4.struct --subset 0,1 --m 2", 0,
     "rank p4.struct: pass distinct_rows=4 distinct_cols=4 field_rank=4\n",
     [_r("rank", "p4.struct", "pass", distinct_rows=4, distinct_cols=4, field_rank=4)]),
    ("graph-rank", "--structure p4.struct --subset 0,1", 0,
     "graph-rank p4.struct: pass cut_rank=1\n",
     [_r("graph-rank", "p4.struct", "pass", cut_rank=1)]),
    ("tree validate", "t.tree", 0,
     "tree-validate t.tree: pass leaves=3 nodes=5\n",
     [_r("tree-validate", "t.tree", "pass", leaves=3, nodes=5)]),
    ("tree encode", "t.tree", 0,
     "tree-encode t.tree: pass structure=" + ENCODED_T,
     [_r("tree-encode", "t.tree", "pass", structure=ENCODED_T)]),
    ("tree decode", "enc.struct", 0,
     "tree-decode enc.struct: pass tree=(u (u 0 1) 2)\n",
     [_r("tree-decode", "enc.struct", "pass", tree="(u (u 0 1) 2)")]),
    ("tree subforests", "t.tree", 0,
     "tree-subforests t.tree: pass count=5 subforests=[[0], [1], [2], [0, 1], [0, 1, 2]]\n",
     [_r("tree-subforests", "t.tree", "pass", count=5,
         subforests=[[0], [1], [2], [0, 1], [0, 1, 2]])]),
    ("tree branching", "t.tree", 0,
     "tree-branching t.tree: pass branching=1\n",
     [_r("tree-branching", "t.tree", "pass", branching=1)]),
    ("orient", "star.tree --modulus 3", 1,
     "orient star.tree: fail modulus=3 obstruction_node=[0, 1, 2, 3, 4, 5]\n",
     [_r("orient", "star.tree", "fail", modulus=3, obstruction_node=[0, 1, 2, 3, 4, 5])]),
    ("tree-rank", "t.tree --subset 0,1 --m 2", 0,
     "tree-rank t.tree: pass cut_rank=2\n",
     [_r("tree-rank", "t.tree", "pass", cut_rank=2)]),
    ("blocks", "--classes 0,1;2;3,4 --subset 0,1,3", 0,
     "blocks 0,1;2;3,4: pass blocks=[['full', 0, 0], ['empty', 1, 1], ['cut', 2, 2]]\n",
     [_r("blocks", "0,1;2;3,4", "pass",
         blocks=[["full", 0, 0], ["empty", 1, 1], ["cut", 2, 2]])]),
    ("sgp validate", "z3.sgp", 0,
     "sgp-validate z3.sgp: pass size=3 unit=0\n",
     [_r("sgp-validate", "z3.sgp", "pass", size=3, unit=0)]),
    ("sgp omega", "z3.sgp", 0,
     "sgp-omega z3.sgp: pass omega=3\n",
     [_r("sgp-omega", "z3.sgp", "pass", omega=3)]),
    ("sgp green", "z3.sgp", 0,
     "sgp-green z3.sgp: pass r_class=[0, 0, 0] l_class=[0, 0, 0] "
     "j_class=[0, 0, 0] h_class=[0, 0, 0]\n",
     [_r("sgp-green", "z3.sgp", "pass", r_class=[0, 0, 0], l_class=[0, 0, 0],
         j_class=[0, 0, 0], h_class=[0, 0, 0])]),
    ("sgp identities", "z3.sgp", 0,
     "".join(f"sgp-identities z3.sgp:{name}: pass\n" for name in IDENTITIES),
     [_r("sgp-identities", f"z3.sgp:{name}", "pass") for name in IDENTITIES]),
    ("sgp syntactic", "z3.sgp --k 2", 0,
     "sgp-syntactic z3.sgp: pass k=2 count=3\n",
     [_r("sgp-syntactic", "z3.sgp", "pass", k=2, count=3)]),
    ("kron product", "m.mat m.mat", 0,
     f"kron-product m.mat m.mat: pass shape=[4, 4] entries={M_KRON_M}\n",
     [_r("kron-product", "m.mat m.mat", "pass", shape=[4, 4], entries=M_KRON_M)]),
    ("kron power", "m.mat --n 2", 0,
     f"kron-power m.mat: pass n=2 shape=[4, 4] entries={M_KRON_M}\n",
     [_r("kron-power", "m.mat", "pass", n=2, shape=[4, 4], entries=M_KRON_M)]),
    ("kron order", "m.mat --budget 4", 0,
     "kron-order m.mat: pass order=finite index=2 period=1 budget=4\n",
     [_r("kron-order", "m.mat", "pass", budget=4, **ORDER)]),
    ("kron 2x2-claim", "z3.sgp --b 1 --c 1 --d 2", 0,
     "kron-2x2-claim z3.sgp: pass b=1 c=1 d=2 bc=2 cb=2 claim_holds=True "
     "growth_verified=None order=finite index=2 period=1\n",
     [_r("kron-2x2-claim", "z3.sgp", "pass", b=1, c=1, d=2, bc=2, cb=2,
         claim_holds=True, growth_verified=None, **ORDER)]),
    ("recover partition", "o.orc", 0,
     "recover-partition o.orc: pass classes=[[0, 1], [2, 3, 4]]\n",
     [_r("recover-partition", "o.orc", "pass", classes=[[0, 1], [2, 3, 4]])]),
    ("recover preorder", "po.orc --d 2", 0,
     "recover-preorder po.orc: pass d=2 classes=[[0], [1, 2], [3]]\n",
     [_r("recover-preorder", "po.orc", "pass", d=2, classes=[[0], [1, 2], [3]])]),
    ("verify", "rank-decreasing", 0,
     "rank-decreasing summary: pass instances=2 failures=0 k8_p8_table={'0': 0, '1': 4}\n",
     [_r("rank-decreasing", "summary", "pass", instances=2, failures=0,
         k8_p8_table={"0": 0, "1": 4})]),
]


@pytest.mark.parametrize("action,rest,code,text,reports", PINNED,
                         ids=[case[0] for case in PINNED])
def test_cli_pinned_output(workdir, monkeypatch, capsys, action, rest, code, text, reports):
    monkeypatch.chdir(workdir)
    argv = action.split() + rest.split()
    assert run_cli(capsys, *argv) == (code, text)
    expected = "".join(json.dumps(r, sort_keys=True) + "\n" for r in reports)
    assert run_cli(capsys, "--json", *argv) == (code, expected)


# (action, the rest of the command line, the error message): input errors
# exit 2 with nothing on stdout and the message on stderr
REJECTED = [
    ("tree-rank", "t.tree --subset 0,9", "error: coordinate 9 out of range\n"),
    ("tree-rank", "t.tree --subset 0,9 --m 2", "error: coordinate 9 out of range\n"),
    ("rank", "--structure p4.struct --subset 0,99", "error: coordinate 99 out of range\n"),
    ("graph-rank", "--structure p4.struct --subset 0,99", "error: coordinate 99 out of range\n"),
    ("graph-rank", "--structure p4.struct --subset 0,99,-1",
     "error: coordinate -1 out of range\n"),
]


@pytest.mark.parametrize("action,rest,message", REJECTED,
                         ids=[f"{action} {rest}" for action, rest, _ in REJECTED])
def test_cli_rejected_input_exits_2(workdir, monkeypatch, capsys, action, rest, message):
    monkeypatch.chdir(workdir)
    for mode in ([], ["--json"]):
        assert main(mode + action.split() + rest.split()) == 2
        assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("action", [case[0] for case in PINNED])
def test_cli_help_exits_0(capsys, action):
    assert main(action.split() + ["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: rankmat ")


def test_every_registered_action_is_pinned(capsys):
    assert list(rankmat.cli._COMMANDS) == [case[0] for case in PINNED]
    for action in rankmat.cli._COMMANDS:
        assert main(action.split() + ["--help"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: rankmat {action} [-h]")


@pytest.mark.parametrize("argv", [
    "kron product m.mat",
    "kron product m.mat m.mat m.mat",
    "kron product m.mat m.mat --budget 3",
    "kron order m.mat --n 3",
    "sgp omega z3.sgp --k 2",
    "recover partition o.orc --d 3",
    "kron --budget 4 order m.mat",
    "rankwidth --structure p4.struct",
])
def test_cli_arguments_the_action_does_not_read_exit_2(workdir, monkeypatch, capsys, argv):
    monkeypatch.chdir(workdir)
    assert main(argv.split()) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("name", ["rankwidth_universe", "boolean_combination_limit",
                                  "no_such_cap"])
def test_unknown_cap_exits_2(workdir, monkeypatch, capsys, name):
    # the first two are caps of deleted searches
    with pytest.raises(ValueError, match=f"^unknown cap '{name}'$"):
        caps._parse(f"{name}=9")
    monkeypatch.chdir(workdir)
    monkeypatch.setenv("RANKMAT_CAPS", f"{name}=9")
    assert main(["rank", "--structure", "p4.struct", "--subset", "0,1"]) == 2
    assert capsys.readouterr() == ("", f"error: unknown cap '{name}'\n")


@pytest.mark.parametrize("raw,message", [
    ("bogus=1", "unknown cap 'bogus'"),
    ("matrix_cells", "RANKMAT_CAPS: cap 'matrix_cells' needs a whole number >= 0, "
                     "as matrix_cells=N, not 'matrix_cells'"),
    ("matrix_cells=", "RANKMAT_CAPS: cap 'matrix_cells' needs a whole number >= 0, "
                      "as matrix_cells=N, not 'matrix_cells='"),
    ("word_scan=-1", "RANKMAT_CAPS: cap 'word_scan' needs a whole number >= 0, "
                     "as word_scan=N, not 'word_scan=-1'"),
    ("monadic_universe=8, word_scan=lots", "RANKMAT_CAPS: cap 'word_scan' needs a "
                                           "whole number >= 0, as word_scan=N, not 'word_scan=lots'"),
])
def test_malformed_caps_fail_every_command_before_it_runs(monkeypatch, capsys, raw, message):
    # path-bound reads no cap, so only main's check before the handler sees it
    with pytest.raises(ValueError) as error:
        caps._parse(raw)
    assert str(error.value) == message
    monkeypatch.setenv("RANKMAT_CAPS", raw)
    for mode in ([], ["--json"]):
        assert main(mode + ["verify", "path-bound"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_well_formed_caps_parse():
    assert caps._parse(" matrix_cells = 0 ,word_scan=12,")["matrix_cells"] == 0
    assert caps._parse("word_scan=12")["word_scan"] == 12
    assert caps._parse("") == caps._DEFAULTS


def test_readme_cli_block_lists_every_command():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    listed = []
    for line in block.splitlines():
        if line.startswith("rankmat "):
            words = line.split()[1:]
            listed.append(" ".join(words[:2]) if words[0] in rankmat.cli._GROUPS else words[0])
    assert listed == list(rankmat.cli._COMMANDS)


def test_cli_rank(workdir, capsys):
    code, out = run_cli(capsys, "rank", "--structure", str(workdir / "p4.struct"),
                        "--subset", "0,1", "--m", "2")
    assert code == 0
    assert "distinct_rows=4" in out


def test_cli_graph_rank_json(workdir, capsys):
    code, out = run_cli(capsys, "--json", "graph-rank",
                        "--structure", str(workdir / "p4.struct"),
                        "--subset", "0,1")
    assert code == 0
    obj = json.loads(out.strip())
    assert set(obj) == {"check", "instance", "status", "data"}
    assert obj["data"]["cut_rank"] == 1


def test_cli_tree_commands(workdir, capsys):
    for action, needle in [("validate", "leaves=3"), ("branching", "branching=1"),
                           ("subforests", "count=5")]:
        code, out = run_cli(capsys, "tree", action, str(workdir / "t.tree"))
        assert code == 0 and needle in out


def test_cli_tree_encode_decode(workdir, capsys, tmp_path):
    code, out = run_cli(capsys, "--json", "tree", "encode", str(workdir / "t.tree"))
    assert code == 0
    encoded = json.loads(out.strip())["data"]["structure"]
    path = tmp_path / "enc.struct"
    path.write_text(encoded)
    code, out = run_cli(capsys, "--json", "tree", "decode", str(path))
    assert code == 0
    assert json.loads(out.strip())["data"]["tree"] == "(u (u 0 1) 2)"


def test_cli_orient_obstruction_exit_1(tmp_path, capsys):
    (tmp_path / "two_star.tree").write_text("(u (u 0 1 2) (u 3 4 5))\n")
    code, out = run_cli(capsys, "orient", str(tmp_path / "two_star.tree"),
                        "--modulus", "3")
    assert code == 1 and "fail" in out
    code, out = run_cli(capsys, "orient", str(tmp_path / "two_star.tree"),
                        "--modulus", "4")
    assert code == 0


def test_cli_blocks(capsys):
    code, out = run_cli(capsys, "--json", "blocks", "--classes", "0,1;2;3,4",
                        "--subset", "0,1,3")
    assert code == 0
    assert json.loads(out.strip())["data"]["blocks"] == [
        ["full", 0, 0], ["empty", 1, 1], ["cut", 2, 2]]


def test_cli_sgp(workdir, capsys):
    code, out = run_cli(capsys, "sgp", "omega", str(workdir / "z3.sgp"))
    assert code == 0 and "omega=3" in out
    code, out = run_cli(capsys, "sgp", "syntactic", str(workdir / "z3.sgp"),
                        "--k", "2")
    assert code == 0 and "count=3" in out
    code, out = run_cli(capsys, "sgp", "identities", str(workdir / "z3.sgp"))
    assert code == 0


def test_cli_sgp_invalid_table_exit_2(workdir, capsys):
    code = main(["sgp", "identities", str(workdir / "bad.sgp")])
    capsys.readouterr()
    assert code == 2


def test_cli_missing_file_exit_2(capsys):
    code = main(["sgp", "omega", "/nonexistent/x.sgp"])
    capsys.readouterr()
    assert code == 2


def test_cli_bad_arguments_exit_2(capsys):
    assert main(["no-such-command"]) == 2
    capsys.readouterr()


def test_cli_kron(workdir, capsys):
    code, out = run_cli(capsys, "--json", "kron", "product",
                        str(workdir / "m.mat"), str(workdir / "m.mat"))
    assert code == 0
    assert json.loads(out.strip())["data"]["shape"] == [4, 4]
    code, out = run_cli(capsys, "kron", "order", str(workdir / "m.mat"),
                        "--budget", "4")
    assert code == 0 and "order=finite" in out
    code, out = run_cli(capsys, "kron", "2x2-claim", str(workdir / "z3.sgp"),
                        "--b", "1", "--c", "1", "--d", "2")
    assert code == 0 and "claim_holds=True" in out


def test_cli_recover_partition(workdir, capsys):
    code, out = run_cli(capsys, "--json", "recover", "partition",
                        str(workdir / "o.orc"))
    assert code == 0
    assert json.loads(out.strip())["data"]["classes"] == [[0, 1], [2, 3, 4]]


# phi accepts every set (the one-element semigroup, 0 accepted), so a good
# seed cuts a non-special class and recover_partition raises RecoveryError
ACCEPT_ALL_ORC = """oracle unordered 1
semigroup one.sgp
class 0 1
class 2
class 3
lambda 0 - 0
lambda 0 0 0
lambda 0 1 0
lambda 0 0,1 0
lambda 1 - 0
lambda 1 2 0
lambda 2 - 0
lambda 2 3 0
accept 0
"""


@pytest.fixture
def accept_all(tmp_path):
    (tmp_path / "one.sgp").write_text("semigroup 1\n0\n")
    (tmp_path / "o.orc").write_text(ACCEPT_ALL_ORC)
    return tmp_path / "o.orc"


def test_cli_recover_inconsistent_oracle_exit_2(accept_all, capsys):
    code = main(["recover", "partition", str(accept_all)])
    assert code == 2
    assert "maximality violated" in capsys.readouterr().err


def test_cli_recovery_error_survives_optimisation(accept_all):
    # the check is a raise, not an assert, so python -O keeps it
    src = Path(rankmat.cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-O", "-m", "rankmat.cli", "recover", "partition", str(accept_all)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 2
    assert "maximality violated" in out.stderr


# two singleton classes with one lambda table over Z/2: the full value 1 is
# not idempotent, so the oracle is not homogeneous, and grouping the classes
# by lambda image leaves them together
NOT_IDEMPOTENT_ORC = """oracle unordered 1
semigroup z2.sgp
class 0
class 1
lambda 0 - 0
lambda 0 0 1
lambda 1 - 0
lambda 1 1 1
accept 0 1
"""


def test_cli_recover_not_homogeneous_single_image_exit_2(tmp_path, capsys):
    (tmp_path / "z2.sgp").write_text("semigroup 2\nunit 0\n0 1\n1 0\n")
    (tmp_path / "o.orc").write_text(NOT_IDEMPOTENT_ORC)
    code = main(["recover", "partition", str(tmp_path / "o.orc")])
    assert code == 2
    assert "not homogeneous (full and empty values must be idempotent)" in capsys.readouterr().err


OVERLAPPING_ORC = """oracle unordered 1
semigroup z2.sgp
class 0 1
class 1 2
lambda 0 - 0
lambda 0 0 0
lambda 0 1 0
lambda 0 0,1 0
lambda 1 - 0
lambda 1 1 0
lambda 1 2 0
lambda 1 1,2 0
accept 0
"""


def test_cli_recover_overlapping_unordered_classes_exit_2(tmp_path, capsys):
    (tmp_path / "z2.sgp").write_text("semigroup 2\nunit 0\n0 1\n1 0\n")
    (tmp_path / "o.orc").write_text(OVERLAPPING_ORC)
    code = main(["recover", "partition", str(tmp_path / "o.orc")])
    assert code == 2
    assert "element 1 is in classes 0 and 1" in capsys.readouterr().err


def test_cli_recover_preorder(tmp_path, capsys):
    oracle = synth_oracle("ordered", [{0}, {1, 2}, {3}], 2)
    (tmp_path / "s.sgp").write_text(formats.write_semigroup(oracle.semigroup))
    (tmp_path / "o.orc").write_text(formats.write_oracle(oracle, "s.sgp"))
    code, out = run_cli(capsys, "--json", "recover", "preorder",
                        str(tmp_path / "o.orc"), "--d", "2")
    assert code == 0
    assert json.loads(out.strip())["data"]["classes"] == [[0], [1, 2], [3]]


def test_cli_recover_preorder_validates_the_oracle(tmp_path, capsys):
    # three classes take the route that asks phi nothing, so only the
    # validation before recovery can reject this oracle
    oracle = synth_oracle("ordered", [{0}, {1, 2}, {3}], 2)
    (tmp_path / "s.sgp").write_text(formats.write_semigroup(oracle.semigroup))
    text = formats.write_oracle(oracle, "s.sgp")
    accept = next(line for line in text.splitlines() if line.startswith("accept"))
    (tmp_path / "o.orc").write_text(text.replace(accept, "accept 0"))
    code = main(["recover", "preorder", str(tmp_path / "o.orc"), "--d", "2"])
    assert code == 2
    assert "completeness fails on [0, 1, 2, 3]" in capsys.readouterr().err


@pytest.mark.parametrize("old,new,message", [
    ("lambda 0 0,1 3", "lambda 0 0,1 999", "lambda value 999 of class 0"),
    ("lambda 0 0,1 3", "lambda 0 0,1 -1", "lambda value -1 of class 0"),
    ("accept 0 1 2 3", "accept 0 1 2 3 999", "accept value 999"),
])
def test_cli_recover_rejects_values_outside_the_semigroup(workdir, capsys, old, new, message):
    text = (workdir / "o.orc").read_text()
    assert old in text
    (workdir / "o.orc").write_text(text.replace(old, new))
    code = main(["recover", "partition", str(workdir / "o.orc")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_cli_verify_json_schema(capsys):
    code, out = run_cli(capsys, "--json", "verify", "rank-decreasing")
    assert code == 0
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines
    for obj in lines:
        assert set(obj) == {"check", "instance", "status", "data"}
        assert obj["status"] in ("pass", "fail", "skip")


def test_cli_verify_text_line(capsys):
    # text mode prints the summary's data keys in dict order, not sorted
    code, out = run_cli(capsys, "verify", "rank-decreasing")
    assert code == 0
    assert out == ("rank-decreasing summary: pass instances=2 failures=0 "
                   "k8_p8_table={'0': 0, '1': 4}\n")


def test_cli_verify_unknown_suite_exit_2(capsys):
    code = main(["verify", "no-such-suite"])
    capsys.readouterr()
    assert code == 2


def test_run_suite_unknown():
    with pytest.raises(ValueError):
        run_suite("nope")


def test_verify_fail_witness_replays(tmp_path, capsys):
    # a fail report must carry enough data to replay; force one via orient
    (tmp_path / "two_star.tree").write_text("(u (u 0 1 2) (u 3 4 5))\n")
    code, out = run_cli(capsys, "--json", "orient",
                        str(tmp_path / "two_star.tree"), "--modulus", "3")
    assert code == 1
    obj = json.loads(out.strip())
    assert obj["status"] == "fail"
    assert obj["data"]["obstruction_node"]
    # replay: same invocation, same failure
    code2, out2 = run_cli(capsys, "--json", "orient",
                          str(tmp_path / "two_star.tree"), "--modulus", "3")
    assert (code2, json.loads(out2.strip())) == (code, obj)

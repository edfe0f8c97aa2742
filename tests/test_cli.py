import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from infalg import cli, duality, files
from infalg.cli import main
from infalg.duality import QSpace, dualize
from infalg.equivalence import Equivalence, star_family
from infalg.errors import DEFAULT_CAP, FormatError
from infalg.generators import enumerate_lattices, gen_string, string_elements
from infalg.order import antichain_poset, diamond_m3, pentagon_n5, try_lattice, verify_poset


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def gen_file(tmp_path, *argv, name="g.json"):
    out = tmp_path / name
    assert main([*map(str, argv), "-o", str(out)]) == 0
    return str(out)


def test_parse_print_round_trip_algebra(string22, mv22_algebra, lv_2_chain3):
    # tables are bit-exact; extractor families are label-keyed, so the
    # stored order is canonicalized to sorted labels
    for a in (string22, mv22_algebra, lv_2_chain3):
        text = files.dumps(files.algebra_doc(a))
        parsed = files.parse_algebra(text)
        assert parsed.report.ok
        b = parsed.algebra
        assert b.sl == a.sl
        assert dict(zip(b.labels, b.extractors)) == dict(zip(a.labels, a.extractors))
        assert files.dumps(files.algebra_doc(b)) == text


def test_parse_print_round_trip_qspace(lv_2_chain3):
    space = dualize(lv_2_chain3)
    text = files.dumps(files.qspace_doc(space))
    parsed = files.parse_qspace(text)
    assert parsed.report.ok
    assert files.dumps(files.qspace_doc(parsed.space)) == text


def test_labels_round_trip(tmp_path):
    a = gen_string(2, 2)
    labels = string_elements(2, 2)
    text = files.dumps(files.algebra_doc(a, labels))
    parsed = files.parse_algebra(text)
    assert parsed.element_labels == labels


def test_leq_and_join_inputs_agree(string22):
    doc = files.algebra_doc(string22)
    via_join = files.parse_algebra(json.dumps(doc)).algebra
    doc_leq = dict(doc)
    del doc_leq["join"]
    doc_leq["leq"] = string22.poset.bool_table()
    via_leq = files.parse_algebra(json.dumps(doc_leq)).algebra
    assert via_join == via_leq


def literal_glb(poset, a, b):
    lowers = [c for c in range(poset.n) if poset.le(c, a) and poset.le(c, b)]
    return next((c for c in lowers if all(poset.le(d, c) for d in lowers)), None)


def test_meet_witness_matches_literal_on_corrupted_tables():
    rng = random.Random(2718)
    lattices = [diamond_m3(), pentagon_n5(), try_lattice(gen_string(2, 3).sl)]
    lattices += enumerate_lattices(5, distributive_only=False)
    failing = 0
    for lat in lattices:
        n = lat.n
        assert files.parse_algebra(json.dumps({
            "n": n, "join": lat.join, "unit": lat.unit, "zero": lat.zero,
            "meet": lat.meet, "extractors": {}})).report.ok
        for _ in range(8):
            meet = [list(row) for row in lat.meet]
            for _ in range(rng.randint(1, 3)):
                meet[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
            doc = {"n": n, "join": lat.join, "unit": lat.unit, "zero": lat.zero,
                   "meet": meet, "extractors": {}}
            expected = next(((a, b) for a in range(n) for b in range(n)
                             if literal_glb(lat.poset, a, b) != meet[a][b]), None)
            report = files.parse_algebra(json.dumps(doc)).report
            assert report.witness("meet_is_greatest_lower_bound") == expected, meet
            assert report.ok == (expected is None)
            failing += expected is not None
    assert failing >= 80


@pytest.mark.parametrize("key, row, shown", [
    ("join", [1, True, 7], "True"),
    ("join", [1, -1, 7], "-1"),
    ("join", [1, 3, 7], "3"),
    ("join", [1, 1.0, 7], "1.0"),
    ("join", [1, "1", 7], "'1'"),
    ("meet", [0, False, 7], "False"),
    ("extractors[e]", [0, 2.5, 7], "2.5"),
], ids=["bool", "negative", "too-large", "float", "string", "meet-bool", "extractor-float"])
def test_index_table_errors_name_the_first_bad_entry(key, row, shown):
    # 3-chain; the bad entry sits mid-row, before an out-of-range 7
    chain = [[0, 1, 2], [1, 1, 2], [2, 2, 2]]
    doc = {"n": 3, "join": chain, "unit": 0, "zero": 2, "extractors": {"e": [0, 1, 2]}}
    if key == "extractors[e]":
        doc["extractors"]["e"] = row
    else:
        doc[key] = [chain[0], row, chain[2]]
    with pytest.raises(FormatError) as exc:
        files.parse_algebra(json.dumps(doc))
    assert str(exc.value) == f"{key} entries must be indices below 3, got {shown}"


@pytest.mark.parametrize("entry, shown", [
    (1, "1"), (0, "0"), (None, "None"), ("true", "'true'"), (1.0, "1.0"), ([], "[]"),
], ids=["one", "zero", "null", "string", "float", "list"])
def test_leq_errors_name_the_first_non_boolean_entry(entry, shown):
    # 3-chain; the bad entry sits mid-row, before a second bad entry 7
    rows = [[True, True, True], [False, entry, 7], [False, False, True]]
    message = f"leq entries must be booleans, got {shown}"
    algebra = {"n": 3, "leq": rows, "unit": 0, "zero": 2, "extractors": {"e": [0, 1, 2]}}
    # the Q-space's leq table is read before its out-of-range equivalence
    space = {"n": 3, "leq": rows, "equivalences": {"id": [0, 1, 9]}}
    for parse, doc in ((files.parse_algebra, algebra), (files.parse_qspace, space)):
        with pytest.raises(FormatError) as exc:
            parse(json.dumps(doc))
        assert str(exc.value) == message
    with pytest.raises(FormatError) as exc:
        verify_poset(rows)
    assert str(exc.value) == message
    # rows are checked in order: a short row before the bad one is named first
    with pytest.raises(FormatError) as exc:
        files.parse_algebra(json.dumps(dict(algebra, leq=[[True, True], *rows[1:]])))
    assert str(exc.value) == "leq rows must have length 3"


def test_duplicate_extractor_maps_rejected():
    doc = {"n": 2, "join": [[0, 1], [1, 1]], "unit": 0, "zero": 1,
           "extractors": {"a": [0, 1], "b": [0, 1]}}
    with pytest.raises(FormatError):
        files.parse_algebra(json.dumps(doc))


def test_cli_verify_ok(tmp_path):
    path = gen_file(tmp_path, "gen", "string", 2, 2)
    assert main(["verify", path]) == 0


def test_cli_verify_lenient(tmp_path):
    # drop one composite from a closed family: strict fails, lenient passes
    path = gen_file(tmp_path, "gen", "multivariate", 2, 2)
    doc = json.loads(Path(path).read_text())
    del doc["extractors"]["s"]
    partial = write(tmp_path, "partial.json", json.dumps(doc))
    assert main(["verify", partial]) == 1
    assert main(["verify", "--lenient", partial]) == 0
    # the parser is built once per process, and no flag leaks into the next call
    assert main(["verify", partial]) == 1
    assert cli.build_parser() is cli.build_parser()


def test_cli_close_adds_missing_composites(tmp_path):
    path = gen_file(tmp_path, "gen", "multivariate", 2, 2)
    doc = json.loads(Path(path).read_text())
    del doc["extractors"]["s"]
    partial = write(tmp_path, "partial.json", json.dumps(doc))
    out = tmp_path / "closed.json"
    assert main(["close", partial, "-o", str(out)]) == 0
    closed = json.loads(out.read_text())
    assert len(closed["extractors"]) == 4
    assert main(["verify", str(out)]) == 0


def test_cli_close_idempotent_on_closed_input(tmp_path):
    path = gen_file(tmp_path, "gen", "string", 2, 2)
    out1 = tmp_path / "c1.json"
    assert main(["close", path, "-o", str(out1)]) == 0
    before = json.loads(Path(path).read_text())["extractors"]
    after = json.loads(out1.read_text())["extractors"]
    assert before == after


def test_cli_close_with_identity(tmp_path):
    path = gen_file(tmp_path, "gen", "multivariate", 2, 2)
    doc = json.loads(Path(path).read_text())
    del doc["extractors"]["s01"]  # the identity projection
    partial = write(tmp_path, "partial.json", json.dumps(doc))
    out = tmp_path / "closed.json"
    assert main(["close", partial, "--with-identity", "-o", str(out)]) == 0
    closed = json.loads(out.read_text())
    assert "id" in closed["extractors"]


def test_cli_dualize_three_chain(tmp_path):
    doc = {"n": 3, "join": [[0, 1, 2], [1, 1, 2], [2, 2, 2]], "unit": 0, "zero": 2,
           "extractors": {"id": [0, 1, 2]}}
    path = write(tmp_path, "chain3.json", json.dumps(doc))
    out = tmp_path / "dual.json"
    assert main(["dualize", path, "-o", str(out)]) == 0
    dual = json.loads(out.read_text())
    assert dual["n"] == 2
    assert dual["equivalences"] == {"id": [0, 1]}


def test_cli_dualize_rejects_string_algebra(tmp_path):
    path = gen_file(tmp_path, "gen", "string", 2, 2)
    assert main(["dualize", path]) == 1


def test_cli_reconstruct_antichain(tmp_path):
    doc = {"n": 4,
           "leq": [[i == j for j in range(4)] for i in range(4)],
           "equivalences": {"d": [0, 1, 2, 3], "v": [0, 0, 0, 0]}}
    path = write(tmp_path, "space.json", json.dumps(doc))
    out = tmp_path / "re.json"
    assert main(["reconstruct", path, "-o", str(out)]) == 0
    re = json.loads(out.read_text())
    assert re["n"] == 16
    assert len(re["extractors"]) == 2
    assert main(["verify", str(out)]) == 0


def test_cli_roundtrip_both_kinds(tmp_path, capsys):
    alg = gen_file(tmp_path, "gen", "lattice", 2, "--chain", 3)
    assert main(["roundtrip", alg]) == 0
    out = tmp_path / "dual.json"
    assert main(["dualize", alg, "-o", str(out)]) == 0
    assert main(["roundtrip", str(out)]) == 0


def test_cli_roundtrip_reads_an_algebra_file_once(tmp_path, capsys, monkeypatch):
    path = gen_file(tmp_path, "gen", "lattice", 2, "--chain", 3)
    reads = []
    read = cli._read
    monkeypatch.setattr(cli, "_read", lambda p: reads.append(p) or read(p))
    assert main(["roundtrip", path]) == 0
    assert reads == [path]



ORDER_OK = "ok    reflexive\nok    antisymmetric\nok    transitive\n"
DISCRETE_3 = [[i == j for j in range(3)] for i in range(3)]
DISCRETE_4 = [[i == j for j in range(4)] for i in range(4)]
BAD_QSPACES = {
    # name: (document, the report after "failure: invalid Q-space file:")
    "not-an-order": ({"n": 2, "leq": [[True, True], [True, True]], "equivalences": {"d": [0, 1]}},
                     "ok    reflexive\nFAIL  antisymmetric  witness=(0, 1)\nok    transitive\n"),
    # {0,1}{2} and {0}{1,2}: 0 reaches 2 in one composition order only
    "non-commuting": ({"n": 3, "leq": DISCRETE_3,
                       "equivalences": {"a": [0, 0, 1], "b": [0, 1, 1]}},
                      ORDER_OK + "FAIL  star_family  witness=(0, 2)\n"),
    # the coordinate partitions of a 2x2 grid commute; their product is missing
    "not-star-closed": ({"n": 4, "leq": DISCRETE_4,
                         "equivalences": {"a": [0, 0, 1, 1], "b": [0, 1, 0, 1]}},
                        ORDER_OK + "FAIL  star_family  witness=(0, 1)\n"),
    # two labels name one partition: the second member repeats the first
    "duplicate-member": ({"n": 2, "leq": [[True, False], [False, True]],
                          "equivalences": {"a": [0, 1], "b": [1, 0]}},
                         ORDER_OK + "FAIL  star_family  witness=1\n"),
}


@pytest.mark.parametrize("command", ["reconstruct", "roundtrip"])
@pytest.mark.parametrize("case", sorted(BAD_QSPACES))
def test_cli_rejects_invalid_q_space_files(tmp_path, capsys, command, case):
    doc, shown = BAD_QSPACES[case]
    path = write(tmp_path, "space.json", json.dumps(doc))
    assert main([command, path]) == 1
    assert capsys.readouterr() == ("", "failure: invalid Q-space file:\n" + shown)


def test_cli_atoms_and_classify(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "multivariate", 2, 2)
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out.strip() == "completely atomistic"
    assert main(["atoms", path]) == 0
    assert capsys.readouterr().out.startswith("atoms:")



def classify_payload(atoms, atomistic, completely):
    return {"atomic": True, "atomistic": atomistic, "atoms": atoms,
            "completely_atomistic": completely}


@pytest.mark.parametrize("argv, text, payload", [
    (["string", 2, 3], "atomistic", classify_payload(list(range(7, 15)), True, False)),
    (["lattice", 1, "--chain", 3], "atomic", classify_payload([1], False, False)),
    (["multivariate", 2, 2], "completely atomistic", classify_payload([1, 2, 4, 8], True, True)),
], ids=["atomistic", "atomic", "completely-atomistic"])
def test_cli_classify_and_atoms_outputs_are_pinned(tmp_path, capsys, argv, text, payload):
    path = gen_file(tmp_path, "gen", *argv)
    assert main(["classify", path]) == 0
    assert capsys.readouterr() == (text + "\n", "")
    assert main(["--format", "json", "classify", path]) == 0
    assert capsys.readouterr() == (json.dumps(payload, sort_keys=True) + "\n", "")
    assert main(["--format", "json", "atoms", path]) == 0
    assert capsys.readouterr() == (json.dumps({"atoms": payload["atoms"]}) + "\n", "")


def test_cli_gen_string_size(tmp_path):
    path = gen_file(tmp_path, "gen", "string", 2, 3)
    doc = json.loads(Path(path).read_text())
    assert doc["n"] == 16


def test_cli_check_hom_identity(tmp_path):
    path = gen_file(tmp_path, "gen", "string", 2, 2)
    doc = json.loads(Path(path).read_text())
    mapping = {"f": list(range(doc["n"])),
               "g": {lab: lab for lab in doc["extractors"]}}
    mp = write(tmp_path, "map.json", json.dumps(mapping))
    assert main(["check-hom", path, path, mp]) == 0


def test_cli_check_hom_bad_map(tmp_path):
    path = gen_file(tmp_path, "gen", "string", 2, 2)
    doc = json.loads(Path(path).read_text())
    n = doc["n"]
    mapping = {"f": [0] * n, "g": {lab: lab for lab in doc["extractors"]}}
    mp = write(tmp_path, "map.json", json.dumps(mapping))
    assert main(["check-hom", path, path, mp]) == 1



MAP_KEYS = "map file must carry keys f and g"
MAP_F = "f must be a list of codomain indices, one per element"
MAP_G = "g must map every domain extractor label to a codomain label"
G_IDENTITY = {"e0": "e0", "e1": "e1"}


@pytest.mark.parametrize("mapping, message", [
    ([], MAP_KEYS),
    ({"f": [0, 1, 2]}, MAP_KEYS),
    ({"f": [0, 1], "g": G_IDENTITY}, MAP_F),
    ({"f": [0, 1, 3], "g": G_IDENTITY}, MAP_F),
    ({"f": [0, True, 2], "g": G_IDENTITY}, MAP_F),
    ({"f": [0, 1, 2], "g": {"e0": "e0"}}, MAP_G),
    ({"f": [0, 1, 2], "g": {"e0": "e0", "e1": "x"}}, MAP_G),
    ({"f": [0, 1, 2], "g": ["e0", "e1"]}, MAP_G),
])
def test_cli_check_hom_map_format_errors_exit_2(tmp_path, capsys, mapping, message):
    # gen string 1 1 has three elements and the extractors e0 and e1
    path = gen_file(tmp_path, "gen", "string", 1, 1)
    mp = write(tmp_path, "map.json", json.dumps(mapping))
    assert main(["check-hom", path, path, mp]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_enumerate(tmp_path, capsys):
    assert main(["enumerate", "2", "--posets", "2"]) == 0
    out = capsys.readouterr().out
    assert "total: 2 algebras, 7 q-spaces" in out


def test_cli_enumerate_output_is_pinned(capsys):
    # the benchmark's largest enumerate op: every algebra up to 5 elements
    # and every Q-space up to 4 points, one line each, then the total
    assert main(["enumerate", "5", "--posets", "4"]) == 0
    out, err = capsys.readouterr()
    assert (err, out.splitlines()[-1]) == ("", "total: 94 algebras, 768 q-spaces")
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "462a4067705dddedfb057d2077737568e76a016173a478737910ca8a4e7a07e7"


def test_cli_enumerate_refuses_a_point_count_before_streaming(capsys):
    assert main(["enumerate", "2", "--posets", "9"]) == 1
    assert capsys.readouterr() == ("", "failure: Q-space enumeration limited to 4 points\n")


def test_cli_cap_env(tmp_path, monkeypatch):
    monkeypatch.setenv("INFALG_CAP", "4")
    assert main(["gen", "string", "2", "3", "-o", str(tmp_path / "x.json")]) == 1
    # an explicit flag wins over the environment
    assert main(["--cap", "64", "gen", "string", "2", "3",
                 "-o", str(tmp_path / "y.json")]) == 0
    monkeypatch.setenv("INFALG_CAP", "not-a-number")
    assert main(["gen", "string", "2", "2", "-o", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("command", ["verify", "reconstruct", "roundtrip"])
@pytest.mark.parametrize("flag, env", [(["--cap", "3"], None), ([], "3")], ids=["flag", "env"])
def test_cli_cap_bounds_parsed_files(tmp_path, capsys, monkeypatch, command, flag, env):
    if command == "reconstruct":
        doc = {"n": 4, "leq": [[a <= b for b in range(4)] for a in range(4)],
               "equivalences": {"id": [0, 1, 2, 3]}}
        path = write(tmp_path, "chain4.json", json.dumps(doc))
    else:
        path = gen_file(tmp_path, "gen", "multivariate", 2)  # 4 elements
    assert main([command, path]) == 0
    capsys.readouterr()
    if env is not None:
        monkeypatch.setenv("INFALG_CAP", env)
    assert main([*flag, command, path]) == 1
    out, err = capsys.readouterr()
    what = "point set" if command == "reconstruct" else "carrier"
    assert (out, err) == ("", f"failure: {what} of 4 exceeds cap 3\n")


@pytest.mark.parametrize("command", ["reconstruct", "roundtrip"])
def test_cli_checks_the_up_set_cap_before_the_q_space_report(tmp_path, capsys, monkeypatch,
                                                              command):
    # 13 points make 8192 up-sets: the parse refuses the file before its
    # report saturates a single one
    space = QSpace(antichain_poset(13), star_family([Equivalence.identity(13)], ["t0"]))
    path = write(tmp_path, "wide.json", files.dumps(files.qspace_doc(space)))
    calls = []
    saturate = duality.saturate
    monkeypatch.setattr(duality, "saturate", lambda *args: calls.append(args) or saturate(*args))
    assert main([command, path]) == 1
    assert capsys.readouterr() == ("", "failure: up-sets exceed the cap 4096\n")
    assert calls == []


@pytest.mark.parametrize("n, cap, ok", [(3, 4, True), (3, 3, False), (0, 1, True), (0, 0, False)])
def test_cli_up_set_cap_boundary(tmp_path, capsys, n, cap, ok):
    # an n-point chain has n + 1 up-sets: a cap of exactly that many passes
    # and one less fails, though the point set fits; the empty point set
    # has one up-set, the empty one, so a cap of 0 fails it too
    doc = {"n": n, "leq": [[a <= b for b in range(n)] for a in range(n)],
           "equivalences": {"id": list(range(n))}}
    path = write(tmp_path, "chain.json", json.dumps(doc))
    assert main(["--cap", str(cap), "reconstruct", path]) == (0 if ok else 1)
    out, err = capsys.readouterr()
    assert (bool(out), err) == ((True, "") if ok else
                                (False, f"failure: up-sets exceed the cap {cap}\n"))


def test_cli_roundtrip_hands_its_cap_to_reconstruct(tmp_path, monkeypatch):
    space = QSpace(antichain_poset(2), star_family([Equivalence.identity(2)], ["t0"]))
    path = write(tmp_path, "q.json", files.dumps(files.qspace_doc(space)))
    caps = []
    certify = duality._certify  # reconstruct's cap and certificate, without its tables

    def recording(s, cap=DEFAULT_CAP):
        caps.append(cap)
        return certify(s, cap)

    monkeypatch.setattr(duality, "_certify", recording)
    assert main(["--cap", "100", "roundtrip", path]) == 0
    assert caps == [100]


def test_cli_algebra_roundtrip_is_bounded_by_its_carrier(tmp_path, capsys, monkeypatch):
    # the dual of a distributive algebra has as many up-sets as the algebra
    # has elements, which the read already admitted under --cap: a default
    # cap below that count does not stop the round trip
    path = gen_file(tmp_path, "gen", "lattice", 2, "--chain", 3)
    monkeypatch.setattr(duality, "DEFAULT_CAP", 8)
    assert main(["--cap", "10", "roundtrip", path]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[0] == "ok    isomorphism" and err == ""


@pytest.mark.parametrize("command", ["gen", "verify", "reconstruct"])
@pytest.mark.parametrize("flag, env", [(["--cap", "0"], None), ([], "0")], ids=["flag", "env"])
def test_cli_cap_zero_admits_no_carrier(tmp_path, capsys, monkeypatch, command, flag, env):
    # a cap of 0 is valid; every carrier has n >= 1, so it fails, and so does
    # any point set but the empty one
    out = tmp_path / "x.json"
    if command == "gen":
        argv, what = ["gen", "string", "2", "2", "-o", str(out)], "carrier of 8"
    elif command == "verify":
        argv, what = ["verify", gen_file(tmp_path, "gen", "multivariate", 2)], "carrier of 4"
    else:
        doc = {"n": 2, "leq": [[True, True], [False, True]], "equivalences": {"id": [0, 1]}}
        argv, what = ["reconstruct", write(tmp_path, "q.json", json.dumps(doc))], "point set of 2"
    capsys.readouterr()
    if env is not None:
        monkeypatch.setenv("INFALG_CAP", env)
    assert main([*flag, *argv]) == 1
    assert capsys.readouterr() == ("", f"failure: {what} exceeds cap 0\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "string", "2"],                      # K N arity
    ["gen", "lattice", "2", "--chain", "0"],     # empty value chain
    ["--cap", "-1", "gen", "string", "2", "2"],  # negative size cap
], ids=["string-arity", "chain-zero", "negative-cap"])
def test_cli_malformed_gen_arguments_exit_2(tmp_path, capsys, argv):
    assert main([*argv, "-o", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.json").exists()


def test_cli_close_empty_extractors(tmp_path):
    doc = {"n": 2, "join": [[0, 1], [1, 1]], "unit": 0, "zero": 1, "extractors": {}}
    path = write(tmp_path, "empty.json", json.dumps(doc))
    out = tmp_path / "closed.json"
    assert main(["close", path, "-o", str(out)]) == 0
    assert json.loads(out.read_text())["extractors"] == {}
    assert main(["close", path, "--with-identity", "-o", str(out)]) == 0
    assert json.loads(out.read_text())["extractors"] == {"id": [0, 1]}


def test_cli_format_json(tmp_path, capsys):
    path = gen_file(tmp_path, "gen", "string", 2, 2)
    assert main(["--format", "json", "verify", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True


def test_cli_json_witness_renders_other_values_by_repr():
    # tuples and lists become lists; a value JSON has no type for, such as
    # an equivalence, becomes its repr
    witness = ((0, Equivalence(3, "aab")), [None, True, "x"])
    assert cli._jsonable(witness) == [[0, "Equivalence({0,1}|{2})"], [None, True, "x"]]
    assert json.loads(json.dumps(cli._jsonable(witness))) == cli._jsonable(witness)


def test_cli_deterministic_output(tmp_path):
    p1 = gen_file(tmp_path, "gen", "multivariate", 2, 2, name="a.json")
    p2 = gen_file(tmp_path, "gen", "multivariate", 2, 2, name="b.json")
    assert Path(p1).read_text() == Path(p2).read_text()


def test_cli_qspace_missing_key_is_independent_of_the_hash_seed(tmp_path):
    # the required keys are checked in file order, never in set order
    path = write(tmp_path, "empty.json", "{}")
    src = str(Path(cli.__file__).resolve().parent.parent)
    for seed in range(8):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "infalg.cli", "reconstruct", path],
                              capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (
            2, "", "error: missing key 'n'\n"), seed


BROKEN_FILES = [
    # (name, text, expected exit from `verify`)
    ("not-json", "{", 2),
    ("not-object", "[1, 2]", 2),
    ("missing-n", json.dumps({"join": [[0]], "unit": 0, "zero": 0, "extractors": {}}), 2),
    ("bad-n", json.dumps({"n": 0, "join": [], "unit": 0, "zero": 0, "extractors": {}}), 2),
    ("both-tables", json.dumps({"n": 1, "join": [[0]], "leq": [[True]], "unit": 0,
                                "zero": 0, "extractors": {}}), 2),
    ("non-square", json.dumps({"n": 2, "join": [[0, 1]], "unit": 0, "zero": 1,
                               "extractors": {}}), 2),
    ("entry-out-of-range", json.dumps({"n": 2, "join": [[0, 2], [2, 1]], "unit": 0,
                                       "zero": 1, "extractors": {}}), 2),
    ("bool-in-join", json.dumps({"n": 1, "join": [[True]], "unit": 0, "zero": 0,
                                 "extractors": {}}), 2),
    ("extractor-length", json.dumps({"n": 2, "join": [[0, 1], [1, 1]], "unit": 0,
                                     "zero": 1, "extractors": {"e": [0]}}), 2),
    ("extractor-range", json.dumps({"n": 2, "join": [[0, 1], [1, 1]], "unit": 0,
                                    "zero": 1, "extractors": {"e": [0, 5]}}), 2),
    ("duplicate-maps", json.dumps({"n": 2, "join": [[0, 1], [1, 1]], "unit": 0,
                                   "zero": 1, "extractors": {"a": [0, 1], "b": [0, 1]}}), 2),
    ("unknown-key", json.dumps({"n": 1, "join": [[0]], "unit": 0, "zero": 0,
                                "extractors": {}, "meta": 1}), 2),
    ("bad-labels", json.dumps({"n": 1, "join": [[0]], "unit": 0, "zero": 0,
                               "extractors": {}, "labels": ["a", "b"]}), 2),
    ("non-associative", json.dumps({"n": 3, "join": [[0, 1, 2], [1, 1, 0], [2, 0, 2]],
                                    "unit": 0, "zero": 2, "extractors": {}}), 1),
    ("non-reflexive-leq", json.dumps({"n": 2, "leq": [[False, True], [False, True]],
                                      "unit": 0, "zero": 1, "extractors": {}}), 1),
    ("antisymmetry", json.dumps({"n": 2, "leq": [[True, True], [True, True]],
                                 "unit": 0, "zero": 1, "extractors": {}}), 1),
    ("wrong-bounds", json.dumps({"n": 2, "leq": [[True, True], [False, True]],
                                 "unit": 1, "zero": 0, "extractors": {}}), 1),
    ("bad-meet", json.dumps({"n": 2, "join": [[0, 1], [1, 1]], "unit": 0, "zero": 1,
                             "meet": [[0, 1], [1, 1]], "extractors": {}}), 1),
    ("axiom-A-broken", json.dumps({"n": 2, "join": [[0, 1], [1, 1]], "unit": 0,
                                   "zero": 1, "extractors": {"e": [1, 1]}}), 1),
    ("not-closed", None, 1),  # built in the test body
]


def test_cli_negative_corpus(tmp_path):
    from infalg.generators import gen_multivariate

    assert len(BROKEN_FILES) >= 10
    for name, text, expected in BROKEN_FILES:
        if text is None:
            doc = files.algebra_doc(gen_multivariate([2, 2]).to_info_algebra())
            del doc["extractors"]["s"]
            text = json.dumps(doc)
        path = write(tmp_path, f"{name}.json", text)
        assert main(["verify", path]) == expected, name


def leq_doc(n, below, unit, zero, extractors=None):
    """A leq document where a <= b iff a == b or (a, b) is listed."""
    rows = [[a == b or (a, b) in below for b in range(n)] for a in range(n)]
    return json.dumps({"n": n, "leq": rows, "unit": unit, "zero": zero,
                       "extractors": extractors or {}})


CHAIN3 = {(0, 1), (0, 2), (1, 2)}
# 0 < 1, 2 < 3, 4 < 5: the pair (1, 2) has two minimal upper bounds
BOWTIE = ({(0, x) for x in range(1, 6)} | {(a, b) for a in (1, 2) for b in (3, 4, 5)}
          | {(3, 5), (4, 5)})
ORDER_ITEMS = [("reflexive", True, None), ("antisymmetric", True, None), ("transitive", True, None)]
AXIOM_NAMES = ("well_formed", "zero_fixed", "extraction_dominated", "extraction_combination",
               "extractors_commute", "extraction_idempotent", "unit_fixed", "composition_closed")
LEQ_CASES = {
    # name: (document, exit code, report items as (name, ok, witness))
    "valid": (leq_doc(3, CHAIN3, 0, 2, {"e": [0, 0, 2], "id": [0, 1, 2]}), 0,
              ORDER_ITEMS + [("joins_exist", True, None), ("bounds_match", True, [0, 2])]
              + [(name, True, None) for name in AXIOM_NAMES]),
    "no-join": (leq_doc(3, {(0, 1), (0, 2)}, 0, 2), 1,
                ORDER_ITEMS + [("joins_exist", False, [1, 2])]),
    # every join exists but no least element: the order passes joins_exist
    "no-least": (leq_doc(3, {(0, 2), (1, 2)}, 0, 2), 1,
                 ORDER_ITEMS + [("joins_exist", True, None), ("bounds_match", False, [None, 2])]),
    "wrong-unit": (leq_doc(3, CHAIN3, 1, 2), 1,
                   ORDER_ITEMS + [("joins_exist", True, None), ("bounds_match", False, [0, 2])]),
    "bowtie": (leq_doc(6, BOWTIE, 0, 5), 1, ORDER_ITEMS + [("joins_exist", False, [1, 2])]),
}


@pytest.mark.parametrize("case", sorted(LEQ_CASES))
def test_cli_verify_leq_output_is_pinned(tmp_path, capsys, case):
    text, code, items = LEQ_CASES[case]
    path = write(tmp_path, f"{case}.json", text)
    assert main(["verify", path]) == code
    shown = "".join(f"ok    {name}\n" if ok else f"FAIL  {name}  witness={tuple(w)}\n"
                    for name, ok, w in items)
    assert capsys.readouterr() == (shown, "")
    assert main(["--format", "json", "verify", path]) == code
    payload = {"items": [{"name": name, "ok": ok, "witness": w} for name, ok, w in items],
               "ok": code == 0}
    assert capsys.readouterr() == (json.dumps(payload, sort_keys=True) + "\n", "")


def test_cli_missing_file_is_parse_error():
    assert main(["verify", "/nonexistent/nowhere.json"]) == 2


def bad_input_argv(tmp_path, case):
    """argv of one bad-path or bad-bytes input."""
    small = gen_file(tmp_path, "gen", "string", "1", "1", name="small.json")
    target = str(tmp_path / "missing" / "out.json")
    if case == "unwritable-gen":
        return ["gen", "string", "2", "2", "-o", target]
    if case == "unwritable-reconstruct":
        return ["reconstruct", gen_file(tmp_path, "dualize", small, name="space.json"),
                "-o", target]
    if case.startswith("unwritable-"):
        return [case.removeprefix("unwritable-"), small, "-o", target]
    if case == "not-utf8":
        (tmp_path / "bytes.json").write_bytes(b"\xff\xfe")
        return ["verify", str(tmp_path / "bytes.json")]
    if case == "deeply-nested":
        return ["verify", write(tmp_path, "deep.json", "[" * 100000 + "]" * 100000)]
    if case == "huge-integer":
        return ["verify", write(tmp_path, "huge.json", '{"n": ' + "9" * 5000 + "}")]
    assert case == "map-not-json"
    return ["check-hom", small, small, write(tmp_path, "map.json", "{")]


@pytest.mark.parametrize("case", ["unwritable-gen", "unwritable-close", "unwritable-dualize",
                                  "unwritable-reconstruct", "not-utf8", "deeply-nested",
                                  "huge-integer", "map-not-json"])
def test_cli_bad_path_or_bytes_is_one_error_line(tmp_path, capsys, case):
    argv = bad_input_argv(tmp_path, case)
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    if case == "map-not-json":
        assert err.startswith("error: invalid JSON in map file: ")


def test_roundtrip_decodes_its_file_once(tmp_path, monkeypatch):
    calls = []
    loads = json.loads

    def counting(text, *args, **kwargs):
        calls.append(len(text))
        return loads(text, *args, **kwargs)

    algebra = gen_file(tmp_path, "gen", "lattice", "2")
    space = gen_file(tmp_path, "dualize", algebra, name="space.json")
    monkeypatch.setattr(files.json, "loads", counting)
    for path in (algebra, space):
        calls.clear()
        assert main(["roundtrip", path]) == 0
        assert len(calls) == 1, path


def refuse(*_args, **_kwargs):
    raise AssertionError("built before the cap check")


@pytest.mark.parametrize("argv, message", [
    (["--cap", "10", "gen", "string", "2", "3"], "carrier of 16 exceeds cap 10"),
    (["--cap", "10", "gen", "string", "1", "9"], "carrier of 11 exceeds cap 10"),
    (["--cap", "10", "gen", "multivariate", "2", "2"], "family of 16 subsets exceeds cap 10"),
    (["--cap", "10", "gen", "lattice", "1", "--chain", "11"], "carrier of 11 exceeds cap 10"),
    (["--cap", "1000", "gen", "lattice", "3", "5"], "carrier of 32768 exceeds cap 1000"),
    # a small carrier or family can still ask for work in 2^v variable subsets
    (["gen", "multivariate", *["1"] * 12],
     "projection table of 16777216 star products exceeds cap 4096"),
    (["gen", "lattice", "400", "400", "--chain", "1"],
     "grouping of 640000 subset-point pairs exceeds cap 4096"),
    # sizes no generator admits fail the same way, before anything is built
    (["gen", "string", "0", "2"], "need k >= 1 and max_len >= 1, got (0, 2)"),
    (["gen", "string", "27", "1"], "alphabet limited to 26 letters"),
    (["gen", "multivariate", "0"], "domain sizes must be positive, got [0]"),
], ids=["string", "string-unary", "multivariate", "lattice-chain", "lattice",
        "multivariate-subsets", "lattice-subset-points", "string-empty-alphabet",
        "string-27-letters", "multivariate-empty-domain"])
def test_cli_gen_checks_its_cap_before_building(tmp_path, capsys, monkeypatch, argv, message):
    from infalg import generators

    for module, name in ((generators, "string_elements"), (generators, "product"),
                         (cli, "chain_lattice")):
        monkeypatch.setattr(module, name, refuse)
    assert main([*argv, "-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr() == ("", f"failure: {message}\n")


def decimal_or_power(bits):
    try:
        return str(1 << bits)
    except ValueError:  # over the interpreter's int-to-str digit limit
        return f"at least 2^{bits}"


@pytest.mark.parametrize("argv, message", [
    (["gen", "multivariate", "15000"],
     f"family of {decimal_or_power(15000)} subsets exceeds cap 4096"),
    (["gen", "lattice", "15000"], f"carrier of {decimal_or_power(15000)} exceeds cap 4096"),
    (["gen", "lattice", "3", "5000"], f"carrier of {decimal_or_power(15000)} exceeds cap 4096"),
    # too many bits to be computed at all
    (["gen", "multivariate", "16384"], "family of at least 2^16384 subsets exceeds cap 4096"),
], ids=["multivariate", "lattice", "lattice-product", "multivariate-uncomputed"])
def test_cli_gen_names_a_size_too_long_to_print(tmp_path, capsys, argv, message):
    assert main([*argv, "-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr() == ("", f"failure: {message}\n")


def test_cli_one_element_algebra_dualizes_to_a_readable_empty_space(tmp_path, capsys):
    # the dual of the one-element algebra has no points; it reads back, and
    # both directions round-trip
    doc = {"n": 1, "join": [[0]], "unit": 0, "zero": 0, "extractors": {"e": [0]}}
    algebra = write(tmp_path, "one.json", json.dumps(doc))
    dual, back = tmp_path / "dual.json", tmp_path / "back.json"
    assert main(["dualize", algebra, "-o", str(dual)]) == 0
    assert json.loads(dual.read_text()) == {"n": 0, "leq": [], "equivalences": {"e": []}}
    assert main(["reconstruct", str(dual), "-o", str(back)]) == 0
    assert json.loads(back.read_text()) == {**doc, "labels": ["{}"]}
    capsys.readouterr()
    assert main(["roundtrip", str(dual)]) == 0
    assert capsys.readouterr().out == "ok    q_isomorphism\npoint map: []\n"
    assert main(["roundtrip", algebra]) == 0
    # an algebra file still needs a carrier; a point set needs n >= 0
    doc["n"] = 0
    assert main(["verify", write(tmp_path, "zero.json", json.dumps(doc))]) == 2
    assert capsys.readouterr().err == "error: n must be a positive integer\n"
    bad = {"n": -1, "leq": [], "equivalences": {}}
    assert main(["reconstruct", write(tmp_path, "neg.json", json.dumps(bad))]) == 2
    assert capsys.readouterr().err == "error: n must be a non-negative integer\n"


def test_cli_written_files_are_pinned(tmp_path):
    # the sha256 of each written file, as the pointwise generators and the
    # standard library's indented encoder wrote it; close gets a pruned
    # family, so it adds both a product and the identity
    lattice = gen_file(tmp_path, "gen", "lattice", 2, 2, "--chain", 3, name="lattice.json")
    doc = json.loads(Path(lattice).read_text())
    doc["extractors"] = {k: doc["extractors"][k] for k in ("s0", "s1")}
    pruned = write(tmp_path, "pruned.json", json.dumps(doc))
    dual = gen_file(tmp_path, "dualize", lattice, name="dual.json")
    written = {
        "gen string 2 6": gen_file(tmp_path, "gen", "string", 2, 6, name="string.json"),
        "gen lattice 2 2 --chain 3": lattice,
        "gen multivariate 2 3": gen_file(tmp_path, "gen", "multivariate", 2, 3, name="mv.json"),
        "close --with-identity": gen_file(tmp_path, "close", "--with-identity", pruned,
                                          name="closed.json"),
        "dualize": dual,
        "reconstruct": gen_file(tmp_path, "reconstruct", dual, name="back.json"),
    }
    digests = {name: hashlib.sha256(Path(path).read_bytes()).hexdigest()
               for name, path in written.items()}
    assert digests == {
        "gen string 2 6": "103f645d1570a8e7167abf1e89f9eaf3c83d3f2b424243345ddbdd46afe547bb",
        "gen lattice 2 2 --chain 3":
            "53960c5bdd25ecbb1853c39449fdea7c8a69bba7b3a3aad9aa783e1c1342d695",
        "gen multivariate 2 3": "41b8c0bf49f4a042aef2a49e3c399070e6103f68fcd2d11e19a4976c7e6be919",
        "close --with-identity":
            "6a535abce6b23f74125ea31857cef506cf17b1cb6decd513a00d46dbfad1a48c",
        "dualize": "33fed21d8f2a8d5aae08730e4b01eaee7b4bdd9b18ac488d0bae17e8202bf8e7",
        "reconstruct": "56eab06fcba53c050d717472f9fab07545bf81b4f79bbc047d07e7c8533bf111",
    }

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspacecodes import codefile
from subspacecodes.cli import run
from subspacecodes.constructions import SubspaceCode, multilevel_fixture, puncture, spread_like
from subspacecodes.distances import min_distance
from subspacecodes.errors import BadParams, FieldTooLarge, InvariantViolation, ParseError
from subspacecodes.matrices import row_form
from subspacecodes.subspaces import Subspace, field_for_order, from_span, to_literal

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_capture(capsys, argv):
    rc = run(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def check_golden(name: str, text: str):
    path = GOLDEN / name
    assert path.exists(), f"golden file {name} missing"
    assert text == path.read_text()


def test_construct_refuses_q_above_10_and_writes_no_file(tmp_path, capsys):
    out = tmp_path / "f.json"
    rc, stdout, err = run_capture(capsys, ["construct", "spread", "--q", "11", "--n", "4", "--k", "2", "--out", str(out)])
    assert (rc, stdout) == (1, "")
    assert err == "error: code files write one digit per entry, so q must be at most 10, got 11\n"
    assert not out.exists()


def test_construct_multilevel_and_verify(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc, _, _ = run_capture(
        capsys, ["construct", "multilevel", "--fixture", "w6k3", "--out", str(out)]
    )
    assert rc == 0
    code = codefile.load_code(str(out))
    assert len(code.words) == 71
    rc, text, _ = run_capture(capsys, ["verify", str(out)])
    assert rc == 0
    doc = json.loads(text)
    assert doc["size"] == 71 and doc["min_distance"] == 4
    check_golden("verify_w6k3.json", text)


def test_construct_words_flag(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc, _, _ = run_capture(
        capsys,
        ["construct", "multilevel", "--words", "11000,00110", "--out", str(out)],
    )
    assert rc == 0
    assert len(codefile.load_code(str(out)).words) == 9


def test_construct_greedy_skeleton(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc, _, _ = run_capture(
        capsys,
        ["construct", "multilevel", "--n", "6", "--k", "3", "--delta", "2", "--out", str(out)],
    )
    assert rc == 0
    code = codefile.load_code(str(out))
    assert len(code.words) == 71  # the greedy skeleton matches the bundled one here
    # an explicit --k 0 is a weight, not a missing one: one all-zero skeleton
    # word, whose lift is the zero subspace
    rc, _, err = run_capture(capsys, ["construct", "multilevel", "--n", "6", "--k", "0", "--out", str(out)])
    assert (rc, err) == (0, "")
    code = codefile.load_code(str(out))
    assert (code.n, len(code.words), code.words[0].k) == (6, 1, 0)


def test_construct_past_every_rank_distance_writes_one_word(tmp_path, capsys):
    # delta 4 on k = 3 and delta 3 on k = 2: no level matrix reaches that
    # rank distance, so the code is the top word alone; delta 3 on k = 4
    # has larger codes, and none built in
    out = tmp_path / "c.json"
    for n, k, delta in (("6", "3", "4"), ("7", "2", "3")):
        argv = ["construct", "multilevel", "--n", n, "--k", k, "--delta", delta, "--out", str(out)]
        assert run_capture(capsys, argv) == (0, "", "")
        code = codefile.load_code(str(out))
        assert [to_literal(u) for u in code.words] == [to_literal(from_span(
            [[int(i == j) for j in range(int(n))] for i in range(int(k))], field_for_order(2), int(n)))]
    rc, text, err = run_capture(capsys, ["construct", "multilevel", "--n", "8", "--k", "4", "--delta", "3"])
    assert (rc, text, err) == (1, "", "error: no built-in rank code for distance 3 on this shape; supply one\n")


def test_experiment_commands(capsys):
    rc, text, _ = run_capture(capsys, ["experiment", "hamming-skeleton"])
    assert rc == 0
    doc = json.loads(text)
    assert doc["code_size"] == 4573
    rc, text, _ = run_capture(
        capsys,
        ["experiment", "bound-attainability", "--zeros", "0,1", "--cols", "2", "--dist", "2"],
    )
    assert rc == 0
    assert json.loads(text)["found"] is True


def test_construct_lift(tmp_path, capsys):
    out = tmp_path / "lift.json"
    rc, _, _ = run_capture(
        capsys,
        ["construct", "lift", "--q", "2", "--m", "3", "--len", "3", "--dist", "2", "--out", str(out)],
    )
    assert rc == 0
    rc, text, _ = run_capture(capsys, ["verify", str(out)])
    doc = json.loads(text)
    assert doc["size"] == 64 and doc["min_distance"] == 4


def test_construct_spread(capsys):
    rc, text, _ = run_capture(capsys, ["construct", "spread", "--n", "6", "--k", "3"])
    assert rc == 0
    doc = json.loads(text)
    assert len(doc["codewords"]) == 9


def test_construct_puncture(tmp_path, capsys):
    c = tmp_path / "c.json"
    run_capture(capsys, ["construct", "multilevel", "--fixture", "w6k3", "--out", str(c)])
    p = tmp_path / "p.json"
    rc, _, _ = run_capture(
        capsys,
        ["construct", "puncture", "--code", str(c), "--special", "001001", "--out", str(p)],
    )
    assert rc == 0
    rc, text, _ = run_capture(capsys, ["verify", str(p)])
    doc = json.loads(text)
    assert doc["size"] == 18 and doc["min_distance"] == 3 and doc["n"] == 5
    check_golden("verify_punctured_18.json", text)
    rc, out, err = run_capture(capsys, ["construct", "puncture", "--code", str(c), "--special", "002001"])
    assert rc == 1 and out == "" and _one_error_line(err) and "invalid digit '2' for GF(2)" in err


@pytest.mark.parametrize(
    "special,message",
    [
        ("00x001", "row 0, column 2: invalid digit 'x' for GF(2)"),
        ("003001", "row 0, column 2: invalid digit '3' for GF(2)"),
        ("00101", "row 0: length 5, expected 6"),
        ("0010010", "row 0: length 7, expected 6"),
        ("001001;000001", "--special needs one vector, got 2"),
        (" ", "--special needs one vector, got 0"),
        ("000000", "special vector must have a nonzero last coordinate"),
    ],
)
def test_puncture_rejects_bad_special(w6k3_file, capsys, special, message):
    argv = ["construct", "puncture", "--code", w6k3_file, "--special", special]
    rc, out, err = run_capture(capsys, argv)
    assert rc == 1 and out == "" and _one_error_line(err) and message in err


@pytest.mark.parametrize("n,words", [(0, [""]), (1, ["", "1"])])
def test_puncture_without_special_needs_n_of_two(tmp_path, capsys, n, words):
    # the default special vector is e_1 + e_n, which n < 2 does not have
    path = tmp_path / "c.json"
    path.write_text(_doc(n=n, codewords=words))
    rc, out, err = run_capture(capsys, ["construct", "puncture", "--code", str(path)])
    assert (rc, out, err) == (1, "", f"error: --special is needed when n < 2, got n = {n}\n")


@pytest.fixture(scope="module")
def w6k3_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "w6k3.json"
    codefile.save_code(multilevel_fixture("w6k3", field_for_order(2)), str(path))
    return str(path)


def test_bounds_json_and_csv(capsys):
    rc, text, _ = run_capture(
        capsys, ["bounds", "--q", "2", "--n", "6", "--k", "3", "--delta", "2"]
    )
    assert rc == 0
    rows = json.loads(text)
    assert rows[0]["singleton_upper"] == 155
    assert rows[0]["anticode_upper"] == 93
    assert rows[0]["johnson_upper"] == 90
    check_golden("bounds_6_3_2.json", text)
    rc, text, _ = run_capture(
        capsys,
        ["bounds", "--q", "2", "--n", "6", "--k", "3", "--delta", "2", "--format", "csv"],
    )
    assert rc == 0
    check_golden("bounds_6_3_2.csv", text)


def test_distance_command(capsys):
    rc, text, _ = run_capture(capsys, ["distance", "--q", "2", "1000;0100", "1000;0101"])
    assert rc == 0 and text.strip() == "2"
    rc, out, err = run_capture(capsys, ["distance", "--n", "-1", "", ""])
    assert rc == 1 and out == "" and _one_error_line(err)
    assert "ambient dimension must be >= 0, got -1" in err
    rc, text, _ = run_capture(capsys, ["distance", "--n", "0", "", ""])
    assert rc == 0 and text == "0\n"
    # an explicit --n 0 is an ambient dimension, not a missing one
    rc, out, err = run_capture(capsys, ["distance", "1", "1", "--n", "0"])
    assert (rc, out, err) == (1, "", "error: row 0: length 1, expected 0\n")


def test_index_roundtrip_cli(capsys):
    rc, text, _ = run_capture(
        capsys,
        ["index", "decode", "--n", "6", "--k", "3", "--subspace", "100000;010000;001000"],
    )
    assert rc == 0
    bits = text.strip()
    assert len(bits) == 11
    rc, text2, _ = run_capture(
        capsys, ["index", "encode", "--n", "6", "--k", "3", "--vector", bits]
    )
    assert rc == 0 and text2.strip() == "100000;010000;001000"
    # hex input form
    rc, text3, _ = run_capture(
        capsys,
        ["index", "encode", "--n", "6", "--k", "3", "--vector", hex(int(bits, 2))],
    )
    assert rc == 0 and text3 == text2


def test_index_extended_mode(capsys):
    rc, text, _ = run_capture(
        capsys,
        ["index", "encode", "--n", "4", "--k", "2", "--mode", "extended", "--vector", "00001"],
    )
    assert rc == 0 and text.strip() == "1000;0100"


def test_simulate_cli(tmp_path, capsys):
    c = tmp_path / "c.json"
    run_capture(capsys, ["construct", "multilevel", "--fixture", "w5k2", "--out", str(c)])
    rc, text, _ = run_capture(
        capsys,
        ["simulate", "--code", str(c), "--t", "1", "--rho", "0", "--trials", "100", "--seed", "3"],
    )
    assert rc == 0
    doc = json.loads(text)
    assert doc["success_rate"] == 1.0 and doc["trials"] == 100
    check_golden("simulate_w5k2.json", text)


def test_exit_codes(tmp_path, capsys):
    rc, _, err = run_capture(capsys, ["verify", str(tmp_path / "missing.json")])
    assert rc == 1 and "error:" in err
    rc, _, err = run_capture(capsys, ["distance", "--q", "3", "102;010", "100;012"])
    assert rc == 0
    rc, _, err = run_capture(capsys, ["distance", "--q", "3", "121;012", "100;0x3"])
    assert rc == 1
    with pytest.raises(SystemExit) as exc:
        run(["bogus-command"])
    assert exc.value.code == 2


def _one_error_line(err: str) -> bool:
    lines = err.splitlines()
    return len(lines) == 1 and lines[0].startswith("error: ")


@pytest.mark.parametrize("delta", ["0", "-1"])
def test_construct_multilevel_refuses_delta_below_one(tmp_path, capsys, delta):
    out = tmp_path / "c.json"
    argv = ["construct", "multilevel", "--n", "6", "--k", "3", "--delta", delta, "--out", str(out)]
    rc, stdout, err = run_capture(capsys, argv)
    assert (rc, stdout) == (1, "") and _one_error_line(err)
    assert err == f"error: need delta >= 1, got delta={delta}\n"
    assert not out.exists()


def test_bound_attainability_refuses_negative_tries(capsys):
    argv = ["experiment", "bound-attainability", "--zeros", "0,0,0", "--cols", "3", "--dist", "3"]
    rc, stdout, err = run_capture(capsys, [*argv, "--tries", "-5"])
    assert (rc, stdout) == (1, "") and _one_error_line(err)
    assert err == "error: need tries >= 0, got tries=-5\n"
    rc, stdout, err = run_capture(capsys, [*argv, "--tries", "0"])
    assert (rc, err) == (0, "") and json.loads(stdout)["tries"] == 0


@pytest.mark.parametrize(
    "codewords,message",
    [
        ([5], "codeword 0: expected a string, got int"),
        (["10000;01000", None], "codeword 1: expected a string, got NoneType"),
        ("1000", "codewords must be a list"),
        ({"0": "1000"}, "codewords must be a list"),
    ],
)
def test_verify_rejects_mistyped_codewords(tmp_path, capsys, codewords, message):
    path = tmp_path / "bad.json"
    doc = {"format_version": 1, "q": 2, "n": 5, "kind": "projective", "codewords": codewords}
    path.write_text(json.dumps(doc))
    rc, out, err = run_capture(capsys, ["verify", str(path)])
    assert rc == 1 and out == ""
    assert _one_error_line(err) and message in err


# a file that is not UTF-8, and JSON nested past the interpreter's recursion limit
_RAW_FAULTS = [
    (b"\xff\xfe\x00", "error: not UTF-8: byte 0: invalid start byte\n"),
    (b"[" * 100000, "error: JSON nested too deeply\n"),
]


@pytest.mark.parametrize("raw,error", _RAW_FAULTS, ids=["not-utf8", "nested"])
@pytest.mark.parametrize("command", [["verify"], ["simulate", "--t", "1", "--rho", "0", "--code"], ["construct", "puncture", "--code"]])
def test_code_file_faults_below_json_are_errors(tmp_path, capsys, raw, error, command):
    path = tmp_path / "bad.json"
    path.write_bytes(raw)
    assert run_capture(capsys, [*command, str(path)]) == (1, "", error)


@pytest.mark.parametrize("q", ["1", "6", "0"])
def test_bounds_rejects_non_prime_power_q(capsys, q):
    rc, out, err = run_capture(capsys, ["bounds", "--q", q, "--n", "6", "--k", "3", "--delta", "2"])
    assert rc == 1 and out == ""
    assert _one_error_line(err) and f"{q} is not a prime power" in err


@pytest.mark.parametrize(
    "given,named",
    [
        (["--k", "0", "--delta", "2"], "k=0"),
        (["--k", "0"], "k=0"),
        (["--k", "3", "--delta", "0"], "delta=0"),
        (["--pspace-d", "0"], "d=0"),
    ],
)
def test_bounds_refuses_an_explicit_zero(capsys, given, named):
    # an explicit 0 is a value given, not an option left out: it is refused
    # by name, never swapped for a default or dropped
    rc, out, err = run_capture(capsys, ["bounds", "--q", "2", "--n", "6", *given])
    assert rc == 1 and out == ""
    assert _one_error_line(err) and named in err


@pytest.mark.parametrize("n", ["0", "-1"])
def test_bounds_refuses_an_ambient_dimension_below_one(capsys, n):
    # with no --k the dimensions run over 1..n/2, none for these n, and the
    # table was an empty list with exit 0
    rc, out, err = run_capture(capsys, ["bounds", "--q", "2", "--n", n])
    assert rc == 1 and out == ""
    assert _one_error_line(err) and f"n={n}" in err


def test_bounds_at_n_1_is_an_empty_table(capsys):
    # no k has 1 <= k <= 1/2, so the empty table is exact
    rc, out, err = run_capture(capsys, ["bounds", "--q", "2", "--n", "1"])
    assert rc == 0 and err == "" and json.loads(out) == []


def test_bounds_factors_a_large_prime_quickly():
    # factoring q by trial division up to q itself did not end
    argv = ["bounds", "--q", "1000000000039", "--n", "4", "--k", "2", "--delta", "2"]
    src = pathlib.Path(codefile.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "subspacecodes.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=10,
    )
    assert proc.returncode == 0 and json.loads(proc.stdout)[0]["q"] == 1000000000039


def test_puncture_takes_q_from_the_code_file(tmp_path, capsys):
    c = tmp_path / "c.json"
    run_capture(capsys, ["construct", "multilevel", "--fixture", "w5k2", "--q", "3", "--out", str(c)])
    rc, text, _ = run_capture(capsys, ["construct", "puncture", "--code", str(c)])
    assert rc == 0 and json.loads(text)["q"] == 3
    with pytest.raises(SystemExit) as exc:
        run(["construct", "puncture", "--code", str(c), "--q", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["encode", "--n", "6", "--k", "3", "--vector", "0001x"], "not a bit string"),
        (["encode", "--n", "6", "--k", "3", "--vector", "0xzz"], "not a hex value"),
        (["encode", "--n", "4", "--k", "5", "--vector", "0"], "need 0 <= k <= n"),
        (["decode", "--n", "4", "--k", "5", "--subspace", "1000"], "need 0 <= k <= n"),
        (["decode", "--n", "4", "--k", "2", "--subspace", "1000"], "expected a 2-subspace"),
        (["decode", "--n", "5", "--k", "2", "--mode", "compact", "--subspace", "10000"], "a 2-subspace"),
        (["decode", "--n", "5", "--k", "2", "--mode", "extended", "--subspace", "10000"], "a 2-subspace"),
    ],
)
def test_index_rejects_bad_input(capsys, argv, message):
    rc, out, err = run_capture(capsys, ["index", *argv])
    assert rc == 1 and out == ""
    assert _one_error_line(err) and message in err


def _doc(**fields) -> str:
    return json.dumps({"format_version": 1, "q": 2, "n": 4, "kind": "p", "codewords": [], **fields})


@pytest.mark.parametrize(
    "text,error,message",
    [
        ("5", ParseError, "expected a JSON object, got int"),
        (_doc(q="x"), ParseError, "q must be an integer"),
        (_doc(n=-1), ParseError, "n must be a non-negative integer"),
        (_doc(n=4.0), ParseError, "n must be a non-negative integer"),
        (_doc(n="4"), ParseError, "n must be a non-negative integer"),
        # a prime this large would take that many trial divisions to factor
        (_doc(q=10**12 + 39), FieldTooLarge, "field order 1000000000039 exceeds"),
        # either would save back as 1, so load then save would not be byte-identical
        (_doc(format_version=True), ParseError, "unsupported format_version True"),
        (_doc(format_version=1.0), ParseError, "unsupported format_version 1.0"),
        (_doc(kind={"a": 1}), ParseError, "kind must be a string, got {'a': 1}"),
    ],
    ids=["not-an-object", "q-text", "n-negative", "n-float", "n-text", "q-huge", "version-bool", "version-float", "kind-object"],
)
def test_verify_rejects_malformed_fields(tmp_path, capsys, text, error, message):
    with pytest.raises(error, match=message):
        codefile.loads_code(text)
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc, out, err = run_capture(capsys, ["verify", str(path)])
    assert rc == 1 and out == ""
    assert _one_error_line(err) and message in err


def _run_quietly(argv) -> tuple[int, str, str]:
    """run() with stdout and stderr captured; argparse's exits become codes."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue(), err.getvalue()


def _check_outcome(rc, out, err):
    assert rc in (0, 1, 2)
    assert "Traceback" not in err
    if rc == 0:
        assert out and "error:" not in err
    else:
        assert out == ""
        assert sum("error:" in line for line in err.splitlines()) == 1


@st.composite
def _index_argv(draw):
    """Mostly well-formed `index` calls, some with one argument replaced by junk."""
    what = draw(st.sampled_from(["encode", "decode"]))
    mode = draw(st.sampled_from(["extended", "full", "compact"]))
    k = draw(st.integers(-1, 5))
    n = k + draw(st.integers(-1, 4))
    if what == "encode":
        size = max(k * (n - k) + (1 if mode == "extended" else 2) + draw(st.sampled_from([0, 0, -1, 1])), 0)
        value = draw(st.text("01", min_size=size, max_size=size) | st.integers(0, 2**40).map(hex))
    else:
        row = st.text("01", min_size=max(n, 0), max_size=max(n, 0))
        value = ";".join(draw(st.lists(row, min_size=max(k, 0), max_size=max(k, 0) + 1)))
    flag = "--vector" if what == "encode" else "--subspace"
    argv = ["index", what, "--n", str(n), "--k", str(k), "--mode", mode, flag, value]
    if draw(st.integers(0, 3)) == 0:
        # short junk: an index call's work and memory grow with n, so a junk
        # --n stays below 2223
        argv[draw(st.integers(1, len(argv) - 1))] = draw(st.text("01xX2;- ", max_size=4))
    return argv


@settings(max_examples=300, deadline=None)
@given(_index_argv())
def test_index_cli_fuzz(argv):
    _check_outcome(*_run_quietly(argv))


_JSON_SCALARS = (
    st.none() | st.booleans() | st.integers(-3, 10) | st.floats(allow_nan=False) | st.text(max_size=4)
)


@st.composite
def _code_doc(draw):
    """A valid code file's fields, each of which may be replaced by junk."""
    q, n = draw(st.sampled_from([2, 3, 4])), draw(st.integers(0, 5))
    rows = st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n), max_size=3)
    words = {to_literal(from_span(r, field_for_order(q), n)) for r in draw(st.lists(rows, max_size=5))}
    doc = {"format_version": 1, "q": q, "n": n, "kind": "projective", "codewords": sorted(words)}
    for key in draw(st.sets(st.sampled_from(sorted(doc)))):
        junk = {
            "q": st.sampled_from([2**20 + 1, 10**12 + 39, 6]),
            "codewords": st.lists(st.text(alphabet="0123;x²", max_size=14) | _JSON_SCALARS, max_size=4),
        }.get(key, _JSON_SCALARS)
        doc[key] = draw(junk | _JSON_SCALARS)
    if draw(st.booleans()):
        del doc[draw(st.sampled_from(sorted(doc)))]
    return doc


# raw file contents: bytes that are mostly not UTF-8, and JSON nested up to
# and past the recursion limit
_RAW_BYTES = st.sampled_from([raw for raw, _ in _RAW_FAULTS]) | st.binary(max_size=8) | st.builds(
    bytes.__mul__, st.sampled_from([b"[", b'{"codewords": ', b"[{}, "]), st.sampled_from([1, 999, 100000])
)


@settings(max_examples=300, deadline=None)
@given(_code_doc() | st.recursive(_JSON_SCALARS, lambda xs: st.lists(xs, max_size=3), max_leaves=5) | _RAW_BYTES)
def test_verify_cli_fuzz(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "code.json")
        with open(path, "wb") as fh:
            fh.write(doc if isinstance(doc, bytes) else json.dumps(doc).encode())
        _check_outcome(*_run_quietly(["verify", path]))


@st.composite
def _distance_argv(draw):
    """`distance` calls on small literals, some with one argument replaced by junk."""
    q = draw(st.sampled_from([2, 3, 4]))
    n = draw(st.integers(0, 5))
    row = st.text("0123"[:q], min_size=n, max_size=n)
    a, b = (";".join(draw(st.lists(row, max_size=3))) for _ in range(2))
    argv = ["distance", "--q", str(q), a, b]
    if draw(st.booleans()):
        argv[3:3] = ["--n", str(n)]
    if draw(st.integers(0, 2)) == 0:
        argv[draw(st.integers(1, len(argv) - 1))] = draw(st.text("01239x;- ", max_size=4))
    return argv


@settings(max_examples=300, deadline=None)
@given(_distance_argv())
def test_distance_cli_fuzz(argv):
    _check_outcome(*_run_quietly(argv))


@settings(max_examples=100, deadline=None)
@given(st.integers(-2, 9999).map(str) | st.text("0123456789x.- ", max_size=4))
def test_bounds_cli_fuzz(q):
    _check_outcome(*_run_quietly(["bounds", "--q", q, "--n", "6", "--k", "3", "--delta", "2"]))


@settings(max_examples=200, deadline=None)
@given(st.text("0123x;- ", max_size=4) | st.text("01", min_size=5, max_size=7))
def test_puncture_cli_fuzz(w6k3_file, special):
    argv = ["construct", "puncture", "--code", w6k3_file, "--special", special]
    _check_outcome(*_run_quietly(argv))


_NO_DIGITS = st.text("x;.,- e", max_size=3)  # junk that never asks for much work


def _small(lo, hi):
    return st.integers(lo, hi).map(str)


@st.composite
def _construct_argv(draw):
    """`construct multilevel`, `lift` and `spread` calls whose codes have
    at most about a thousand words, some with one argument replaced by junk."""
    what = draw(st.sampled_from(["multilevel", "lift", "spread"]))
    q = draw(st.sampled_from([2, 3]))
    argv = ["construct", what, "--q", str(q)]
    if what == "multilevel":
        how = draw(st.sampled_from(["fixture", "words", "greedy", "none"]))
        if how == "fixture":
            argv += ["--fixture", draw(st.sampled_from(["w5k2", "w6k3"]))]
        elif how == "words":
            n = draw(st.integers(0, 6))
            argv += ["--words", ",".join(draw(st.lists(st.text("01", min_size=n, max_size=n), max_size=3)))]
        elif how == "greedy":
            argv += ["--n", draw(_small(-1, 6)), "--k", draw(_small(-1, 4))]
        argv += ["--delta", draw(_small(-1, 3))]
        if draw(st.booleans()):
            argv.append("--puncture-aligned")
    elif what == "lift":
        m = draw(st.integers(-1, 3))
        length = draw(st.integers(-1, max(m, 0) + 1))
        dist = draw(st.integers(-1, max(length, 0) + 1))
        if q ** max(m * (length - dist + 1), 0) > 1000:
            dist = length  # at most q^m words
        argv += ["--m", str(m), "--len", str(length), "--dist", str(dist)]
    else:
        argv += ["--n", draw(_small(-1, 6)), "--k", draw(_small(-1, 7))]
    if draw(st.integers(0, 3)) == 0:
        argv[draw(st.integers(2, len(argv) - 1))] = draw(_NO_DIGITS)
    return argv


@settings(max_examples=200, deadline=None)
@given(_construct_argv())
def test_construct_cli_fuzz(argv):
    _check_outcome(*_run_quietly(argv))


@st.composite
def _experiment_argv(draw):
    """`experiment` calls on staircases of at most 3 x 4 with at most 3
    tries; hamming-skeleton only with a q that fails (with q = 2 it builds
    4573 words), some with one argument replaced by junk."""
    if draw(st.integers(0, 3)) == 0:
        argv = ["experiment", "hamming-skeleton", "--q", draw(st.sampled_from(["0", "1", "6", "-2", "2x"]))]
    else:
        zeros = draw(st.lists(st.integers(-1, 4), max_size=3))
        argv = ["experiment", "bound-attainability", "--zeros", ",".join(map(str, zeros))]
        argv += ["--cols", draw(_small(-1, 4)), "--dist", draw(_small(-1, 4)), "--q", draw(st.sampled_from(["2", "3"]))]
        argv += ["--tries", draw(_small(0, 3)), "--seed", draw(_small(-2, 2**40))]
    if draw(st.integers(0, 3)) == 0:
        argv[draw(st.integers(2, len(argv) - 1))] = draw(_NO_DIGITS)
    return argv


@settings(max_examples=200, deadline=None)
@given(_experiment_argv())
def test_experiment_cli_fuzz(argv):
    _check_outcome(*_run_quietly(argv))


def test_puncture_aligned_pipeline_cli(tmp_path, capsys):
    c = tmp_path / "c8.json"
    rc, _, _ = run_capture(
        capsys,
        ["construct", "multilevel", "--fixture", "w8k4", "--puncture-aligned", "--out", str(c)],
    )
    assert rc == 0
    p = tmp_path / "p7.json"
    rc, _, _ = run_capture(
        capsys,
        [
            "construct", "puncture", "--code", str(c),
            "--special", "10000001", "--add-trivial", "--out", str(p),
        ],
    )
    assert rc == 0
    rc, text, _ = run_capture(capsys, ["verify", str(p)])
    assert rc == 0
    doc = json.loads(text)
    assert doc["size"] == 573 and doc["min_distance"] == 3 and doc["n"] == 7


def test_codefile_roundtrip_byte_identical(tmp_path, gf2):
    code = multilevel_fixture("w5k2", gf2)
    path = tmp_path / "code.json"
    codefile.save_code(code, str(path))
    text = path.read_text()
    loaded = codefile.load_code(str(path))
    assert [w.key() for w in loaded.words] == [w.key() for w in code.words]
    assert codefile.dumps_code(loaded) == text
    assert text.endswith("\n")


def test_codefile_refuses_fields_with_two_digit_entries(tmp_path):
    # a row literal gives each entry one digit, so over GF(11) the entry 10
    # would be written as two and the file read back as a longer row
    code = spread_like(4, 2, field_for_order(11))
    word = next(w for w in code.words if any(10 in row for row in w.gen.entries))
    assert "10" in repr(word)  # the repr still writes it
    refused = "^code files write one digit per entry, so q must be at most 10, got 11$"
    with pytest.raises(BadParams, match=refused):
        codefile.dumps_code(code)
    path = tmp_path / "code.json"
    with pytest.raises(BadParams, match=refused):
        codefile.save_code(code, str(path))
    assert not path.exists()
    nine = spread_like(4, 2, field_for_order(9))
    assert codefile.dumps_code(codefile.loads_code(codefile.dumps_code(nine))) == codefile.dumps_code(nine)


def test_loaded_code_shares_equal_rows(gf2):
    code = codefile.loads_code(codefile.dumps_code(multilevel_fixture("w6k3", gf2)))
    rows = [row for w in code.words for row in w.gen.entries]
    assert len({id(row) for row in rows}) == len(set(rows)) < len(rows)


def test_a_valid_file_loads_in_passes(monkeypatch, gf2):
    # the 573-word shortening: its distinct bare row literals are parsed
    # once each, the zero subspace's '' being none, and the in-order loop,
    # which only names a fault, is never reached, whitespace around a
    # codeword or not
    w8k4 = multilevel_fixture("w8k4", gf2, puncture_aligned=True)
    code = puncture(w8k4, (1, 0, 0, 0, 0, 0, 0, 1), add_trivial=True)
    text = codefile.dumps_code(code)
    literals = {part for lit in json.loads(text)["codewords"] if lit for part in lit.split(";")}
    form, parsed = row_form(gf2, 7), []
    parse = form.parse
    monkeypatch.setattr(form, "parse", lambda digits: parsed.append(digits) or parse(digits))
    monkeypatch.setattr(codefile, "_name_the_first_fault", None)
    loaded = codefile.loads_code(text)
    assert sorted(parsed) == sorted(literals) and len(parsed) == 96
    assert loaded.rows == code.rows and loaded.ids == code.ids and codefile.dumps_code(loaded) == text
    doc = json.loads(text)
    doc["codewords"] = [f" {lit}\t" for lit in doc["codewords"]]
    assert codefile.dumps_code(codefile.loads_code(json.dumps(doc))) == text
    # over GF(3) a row is a tuple, and each distinct one is one object
    gf3 = field_for_order(3)
    text = codefile.dumps_code(multilevel_fixture("w6k3", gf3))
    monkeypatch.setattr(row_form(gf3, 6), "parse", lambda digits: parsed.append(digits) or tuple(map(int, digits)))
    parsed.clear()
    rows = [row for word in codefile.loads_code(text).rows for row in word]
    assert len({id(row) for row in rows}) == len(set(rows)) == len(parsed) < len(rows)


@pytest.mark.parametrize("q", [2, 3])
def test_codefile_names_the_first_duplicate(q):
    base = json.loads(codefile.dumps_code(multilevel_fixture("w5k2", field_for_order(q))))
    words = base["codewords"]
    dup = dict(base, codewords=[words[0], words[1], words[1], words[0]])
    with pytest.raises(InvariantViolation, match="^codeword 2: duplicate subspace$"):
        codefile.loads_code(json.dumps(dup))


def test_codefile_rejects_duplicates_and_noncanonical(gf2):
    base = json.loads(codefile.dumps_code(multilevel_fixture("w5k2", gf2)))
    dup = dict(base)
    dup["codewords"] = [base["codewords"][0]] * 2
    with pytest.raises(InvariantViolation):
        codefile.loads_code(json.dumps(dup))
    not_echelon = "rows are not a reduced echelon generator matrix"
    # not reduced; a zero row; a zero row alone; pivots out of order
    for lit in ["11000;10000", "10000;00000", "00000", " 01000;10000 "]:
        bad = dict(base, codewords=[base["codewords"][0], lit])
        with pytest.raises(InvariantViolation, match=f"^codeword 1: {not_echelon}$"):
            codefile.loads_code(json.dumps(bad))
    q3 = dict(base)
    q3["q"] = 3
    q3["codewords"] = ["13000"]
    with pytest.raises(ParseError):
        codefile.loads_code(json.dumps(q3))
    with pytest.raises(ParseError):
        codefile.loads_code("{not json")
    missing = {k: v for k, v in base.items() if k != "kind"}
    with pytest.raises(ParseError):
        codefile.loads_code(json.dumps(missing))


@pytest.mark.parametrize(
    "codewords,message",
    [
        (["1000;0100", "1000;0120"], "codeword 1: row 1, column 2: invalid digit '2' for GF(2)"),
        (["0100", "1000;0100;001x"], "codeword 1: row 2, column 3: invalid digit 'x' for GF(2)"),
        (["1000;01x0", "01x0"], "codeword 0: row 1, column 2: invalid digit 'x' for GF(2)"),
        (["0010", "1000;0100", "0100;001"], "codeword 2: row 1: length 3, expected 4"),
    ],
)
def test_loader_names_the_bad_row_after_shared_rows(codewords, message):
    # rows parsed for earlier codewords, or earlier in the same codeword,
    # are not parsed again; the error still names the first bad codeword,
    # its row and the column
    with pytest.raises(ParseError) as e:
        codefile.loads_code(_doc(q=2, n=4, codewords=codewords))
    assert str(e.value) == message


_FIRST = ((1, 0, 0, 0),)
_NOT_ECHELON = "rows are not a reduced echelon generator matrix"


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize(
    "codewords,want",
    [
        # surrounding whitespace is stripped from a codeword, not from a row
        (["1000;0100", " 1000;0010 "], [_FIRST + ((0, 1, 0, 0),), _FIRST + ((0, 0, 1, 0),)]),
        (["0100", "\t0100\n"], "InvariantViolation: codeword 1: duplicate subspace"),
        (["1000", "1000 ;0100"], "ParseError: codeword 1: row 0, column 4: invalid digit ' ' for GF({q})"),
        # a known row, then a bad digit or a row of the wrong length
        (["1000", "1000;01x0"], "ParseError: codeword 1: row 1, column 2: invalid digit 'x' for GF({q})"),
        (["1000", "1000;010"], "ParseError: codeword 1: row 1: length 3, expected 4"),
        (["0100", "1000;0100;"], "ParseError: codeword 1: row 2: length 0, expected 4"),
        # the zero subspace, once and twice; a repeated word
        (["1000", ""], [_FIRST, ()]),
        (["", "0001", ""], "InvariantViolation: codeword 2: duplicate subspace"),
        (["1000;0100", "0010", "1000;0100"], "InvariantViolation: codeword 2: duplicate subspace"),
        # two faults: the first in file order is named
        (["1000", "1000", "01x0"], "InvariantViolation: codeword 1: duplicate subspace"),
        (["1000", "1x00", "1000"], "ParseError: codeword 1: row 0, column 1: invalid digit 'x' for GF({q})"),
        (["0100", "0100;1000", "0100"], f"InvariantViolation: codeword 1: {_NOT_ECHELON}"),
        (["1000;0100", "0010;001", "1000;0100"], "ParseError: codeword 1: row 1: length 3, expected 4"),
        # a new row among rows seen before, last, in the middle and twice
        (
            ["1000;0100", "0010", "1000;0010;0001"],
            [_FIRST + ((0, 1, 0, 0),), ((0, 0, 1, 0),), _FIRST + ((0, 0, 1, 0), (0, 0, 0, 1))],
        ),
        (["1000", "0010", "1000;0100;0010"], [_FIRST, ((0, 0, 1, 0),), _FIRST + ((0, 1, 0, 0), (0, 0, 1, 0))]),
        (["1000", "1000;0001;0001"], f"InvariantViolation: codeword 1: {_NOT_ECHELON}"),
    ],
)
def test_loader_on_edge_literals(q, codewords, want):
    # the words, or the error, of codewords whose rows were mostly seen
    # before: the loader's lookup of known rows gives what a full parse
    # of each codeword gives
    try:
        got = [w.gen.entries for w in codefile.loads_code(_doc(q=q, n=4, codewords=codewords)).words]
    except (ParseError, InvariantViolation) as e:
        got = f"{type(e).__name__}: {e}"
    assert got == (want.format(q=q) if isinstance(want, str) else want)


@pytest.mark.parametrize(
    "codewords,want",
    [
        ([""], [()]),
        ([";"], f"InvariantViolation: codeword 0: {_NOT_ECHELON}"),
        (["", ""], "InvariantViolation: codeword 1: duplicate subspace"),
    ],
)
def test_loader_in_the_zero_ambient_space(codewords, want):
    # with n = 0 every row literal is "", so "" must stay the zero
    # subspace rather than one empty row
    try:
        got = [w.rows for w in codefile.loads_code(_doc(n=0, codewords=codewords)).words]
    except InvariantViolation as e:
        got = f"{type(e).__name__}: {e}"
    assert got == want


def test_one_load_scans_for_duplicates_once(monkeypatch, gf2):
    # the loader's set of the words is the load's one duplicate scan: no
    # word's rows are read back after it is built
    # (the code's constructor read each word's rows to scan them again);
    # reads of Subspace.rows are counted, writes pass through
    text = codefile.dumps_code(multilevel_fixture("w6k3", gf2))
    rows, reads = Subspace.__dict__["rows"], []
    monkeypatch.setattr(Subspace, "rows", property(lambda u: reads.append(u) or rows.__get__(u, Subspace), rows.__set__))
    code = codefile.loads_code(text)
    assert len(code) == 71 and reads == []
    # the public constructor still scans the words it is given
    assert len(SubspaceCode(gf2, 6, code.words)) == 71 and len(reads) == 71
    with pytest.raises(BadParams, match="duplicate codewords"):
        SubspaceCode(gf2, 6, code.words[:2] + code.words[:1])


def test_a_loaded_code_is_its_rows(monkeypatch, gf2, tmp_path):
    # loading, len, min_distance, saving and the CLI's verify read the
    # words' rows and build no Subspace; the words are built on first read,
    # once
    text = codefile.dumps_code(multilevel_fixture("w6k3", gf2))
    path = tmp_path / "w6k3.json"
    path.write_text(text)
    built, of_rows = [], Subspace._of_rows.__func__
    monkeypatch.setattr(Subspace, "_of_rows", classmethod(lambda cls, *a: built.append(a) or of_rows(cls, *a)))
    code = codefile.loads_code(text)
    assert len(code) == 71 and min_distance(code) == 4 and codefile.dumps_code(code) == text
    rc, out, _ = _run_quietly(["verify", str(path)])
    assert rc == 0 and json.loads(out)["min_distance"] == 4
    assert built == [] and "words" not in vars(code)
    words = code.words
    assert len(built) == 71 and code.words is words


def _reference_rows(lit, q, n):
    """A literal's rows parsed digit by digit, or the ParseError text."""
    rows = []
    for i, part in enumerate(lit.strip().split(";") if lit.strip() else []):
        for j, c in enumerate(part):
            if c not in "0123456789" or int(c) >= q:
                return f"row {i}, column {j}: invalid digit {c!r} for GF({q})"
        if len(part) != n:
            return f"row {i}: length {len(part)}, expected {n}"
        rows.append(tuple(map(int, part)))
    return tuple(rows)


_PAD = st.sampled_from(["", "", " ", "\t", " \n "])


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.lists(
        st.tuples(
            _PAD,
            # the empty codeword, the zero subspace, drawn at any position
            st.just([]) | st.lists(st.sampled_from(["100", "010", "001", "110", "011", "012", "0x1", "10", ""]), max_size=3),
            _PAD,
        ),
        max_size=5,
    ),
)
def test_loader_rows_match_a_plain_parse(q, words):
    # codewords built from a few row literals, good and bad, many repeated,
    # some with whitespace around them: the loader's rows, or its first
    # error, are those of a parse of each codeword on its own
    codewords = [before + ";".join(rows) + after for before, rows, after in words]
    want, bad = None, len(codewords)
    for i, lit in enumerate(codewords):
        rows = _reference_rows(lit, q, 3)
        if isinstance(rows, str):
            want, bad = f"codeword {i}: {rows}", i
            break
    try:
        code = codefile.loads_code(_doc(q=q, n=3, codewords=codewords))
    except ParseError as e:
        assert str(e) == want
        return
    except InvariantViolation as e:
        # a codeword before the first unparsable one is not canonical or
        # repeats an earlier one
        assert int(str(e).split(":")[0].split()[1]) < bad
        return
    assert want is None
    assert [w.gen.entries for w in code.words] == [_reference_rows(lit, q, 3) for lit in codewords]


def test_save_load_order_preserved(tmp_path, gf2):
    code = multilevel_fixture("w6k3", gf2)
    path = tmp_path / "c.json"
    codefile.save_code(code, str(path))
    loaded = codefile.load_code(str(path))
    assert [w.key() for w in loaded.words] == [w.key() for w in code.words]


_SIMULATE_CODES = {
    "empty": (2, 3, []),
    "one-word": (2, 3, ["100;001"]),
    "zero-dim": (3, 2, [""]),
    "mixed-dim": (2, 4, ["", "1000", "0100;0010", "1001;0101;0011"]),
    "gf3-mixed": (3, 3, ["102", "010;001"]),
}


@pytest.fixture(scope="module")
def simulate_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("simulate")
    paths = {}
    for name, (q, n, words) in _SIMULATE_CODES.items():
        path = root / f"{name}.json"
        path.write_text(_doc(q=q, n=n, codewords=words))
        paths[name] = str(path)
    return paths


@st.composite
def _simulate_argv(draw):
    """`simulate` on small code files, --t and --rho up to and past the
    ambient limits, some with one argument replaced by junk; never more
    than 3 trials."""
    name = draw(st.sampled_from(sorted(_SIMULATE_CODES)))
    n = _SIMULATE_CODES[name][1]
    dims = st.integers(0, 1) | st.integers(-1, n + 2) | st.sampled_from([n, 10**9])
    argv = ["simulate", "--code", name, "--t", str(draw(dims)), "--rho", str(draw(dims))]
    argv += ["--trials", str(draw(st.integers(0, 3))), "--seed", str(draw(st.integers(-2, 2**40)))]
    if draw(st.integers(0, 3)) == 0:
        # junk with no digits, so that a junk --trials is never large
        argv[draw(st.integers(1, len(argv) - 1))] = draw(st.text("x;.- e", max_size=3))
    return argv


@settings(max_examples=200, deadline=None)
@given(_simulate_argv())
def test_simulate_cli_fuzz(simulate_files, argv):
    argv = [simulate_files.get(a, a) if i == 2 else a for i, a in enumerate(argv)]
    _check_outcome(*_run_quietly(argv))

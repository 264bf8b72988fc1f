"""CLI surface: flags, exit codes, output schemas."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import pgroups.cli as cli_mod
import pgroups.harness as harness_mod
from pgroups.cli import EXIT_PIPE, build_parser, run
from pgroups.harness import CheckOutcome, ClaimSpec

ROOT = Path(__file__).resolve().parents[1]


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_classify_json_default(capsys):
    assert run(["classify", "--p", "2", "--partition", "3,1"]) == 0
    doc = _json_out(capsys)
    assert doc["shape"] == "2:1,3"  # echoed canonically despite input order
    assert doc["is_ifi"] is False
    assert doc["char_eq_fi"] is False
    assert doc["witnesses"]["ifi"]["first"]["iso_type"] == "2:1"


def test_classify_elementary(capsys):
    assert run(["classify", "--p", "5", "--partition", "1,1"]) == 0
    doc = _json_out(capsys)
    assert doc["is_ifi"] is True and doc["is_strongly_ic"] is True


def test_classify_table(capsys):
    assert run(["classify", "--p", "2", "--partition", "1,3", "--table"]) == 0
    out = capsys.readouterr().out
    assert "shape" in out and "2:1,3" in out
    assert "is_ifi" in out and "witness ifi:" in out


def test_classify_rejects_non_prime(capsys):
    assert run(["classify", "--p", "4", "--partition", "1"]) == 2
    assert "4 is not prime" in capsys.readouterr().err


def test_classify_rejects_bad_partition(capsys):
    assert run(["classify", "--p", "2", "--partition", "1,x"]) == 2
    assert "partition" in capsys.readouterr().err


def test_classify_cap_exceeded(capsys, monkeypatch):
    monkeypatch.setenv("PGROUPS_CARRIER_CAP", "16")
    assert run(["classify", "--p", "2", "--partition", "5"]) == 3
    assert "carrier" in capsys.readouterr().err


def test_enumerate_counts(capsys):
    assert run(["enumerate", "--p", "2", "--partition", "1,2",
                "--kind", "characteristic"]) == 0
    doc = _json_out(capsys)
    assert doc["count"] == 4
    assert doc["kind"] == "characteristic"
    assert all(e["characteristic"] for e in doc["subgroups"])

    assert run(["enumerate", "--p", "2", "--partition", "1,1"]) == 0
    assert _json_out(capsys)["count"] == 5

    assert run(["enumerate", "--p", "2", "--partition", "1,3",
                "--kind", "fully-invariant"]) == 0
    doc = _json_out(capsys)
    assert doc["count"] == 6
    assert [e["order"] for e in doc["subgroups"]] == sorted(
        e["order"] for e in doc["subgroups"]
    )


def test_enumerate_rejects_unknown_kind():
    with pytest.raises(SystemExit) as err:
        run(["enumerate", "--p", "2", "--partition", "1", "--kind", "weird"])
    assert err.value.code == 2


def test_verify_stream_and_exit(capsys):
    assert run(["verify", "--p", "2", "--max-order", "16",
                "--claims", "prop-2.26,example-2.18"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    docs = [json.loads(line) for line in lines]
    assert [d["claim_id"] for d in docs] == ["prop-2.26", "example-2.18"]
    assert all(d["status"] == "pass" for d in docs)
    for line, doc in zip(lines, docs):
        assert list(doc) == sorted(doc)
        assert line == json.dumps(doc, sort_keys=True)


def test_verify_all_includes_stubs(capsys):
    assert run(["verify", "--p", "2", "--max-order", "8", "--claims", "all"]) == 0
    docs = [json.loads(l) for l in capsys.readouterr().out.strip().splitlines()]
    statuses = {d["claim_id"]: d["status"] for d in docs}
    assert statuses["thm-2.1-ipi"] == "out-of-scope"
    assert statuses["lemma-2.25"] == "adapted"
    assert statuses["thm-2.5-i"] == "pass"


def test_verify_unknown_claim(capsys):
    assert run(["verify", "--p", "2", "--max-order", "16",
                "--claims", "no-such"]) == 2
    assert "unknown claim" in capsys.readouterr().err


def test_verify_violation_exit_code(capsys, monkeypatch):
    spec = ClaimSpec(
        "always-fails", "test-only", "per-shape",
        applies=lambda s: True,
        check=lambda ctx, s: CheckOutcome(
            violations=[{"shape": str(s), "witness": {}}]
        ),
    )
    monkeypatch.setitem(harness_mod._REGISTRY, "always-fails", spec)
    assert run(["verify", "--p", "2", "--max-order", "4",
                "--claims", "always-fails"]) == 1
    doc = json.loads(capsys.readouterr().out.strip())
    assert doc["status"] == "fail" and doc["total_violations"] == 3


def test_verify_cap_exceeded(capsys):
    assert run(["verify", "--p", "2", "--max-order", str(2 ** 20),
                "--claims", "thm-2.5-i"]) == 3
    assert "carrier" in capsys.readouterr().err


def test_verify_enumerates_only_for_the_oracle_claim(capsys, monkeypatch):
    monkeypatch.setenv("PGROUPS_ENUM_CAP", "8")
    args = ["verify", "--p", "2", "--max-order", "16", "--claims"]
    assert run(args + ["lemma-2.25,defs-implications"]) == 0
    capsys.readouterr()
    # the shapes over the enumeration cap skip the parts that read the lattice
    # (and the closure, built only where the lattice is); the rest still run
    assert run(args + ["oracle-crosscheck"]) == 0
    doc = _json_out(capsys)
    assert doc["shapes_checked"] == 11 and doc["status"] == "pass"
    capped = "2:4, 2:1,3, 2:2,2, 2:1,1,2, 2:1,1,1,1"
    parts = [
        "char-flag-vs-closure", "char-orbits-vs-flags", "closure-vs-filtered-endos",
        "fast-aut-vs-bijective-table", "fi-flag-vs-random-endos", "lattice-count-vs-birkhoff",
        "profile-route-vs-brute",
    ]
    assert doc["notes"] == [
        f"{part}: skipped on 5 of 11 shapes (oracle caps): {capped}" for part in parts
    ]
    assert not any("profile-iso-arithmetic" in n for n in doc["notes"])
    assert not any("classify-vs-carrier" in n for n in doc["notes"])


def test_enumerate_over_the_enumeration_cap_exits_3(capsys, monkeypatch):
    monkeypatch.setenv("PGROUPS_ENUM_CAP", "8")
    assert run(["enumerate", "--p", "2", "--partition", "1,3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "enumeration cap exceeded" in captured.err


def test_enumerate_over_the_subgroup_cap_exits_3(capsys):
    # 2:1^9 has order 512, under the enumeration cap, but 8,283,458
    # subgroups; the cap reads the closed-form count before enumeration starts
    assert run(["enumerate", "--p", "2", "--partition", "1,1,1,1,1,1,1,1,1",
                "--kind", "all"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "subgroup cap exceeded: needs 8283458, cap is 1048576" in captured.err


@pytest.mark.parametrize("prime, max_order", [(2, 64), (3, 81)])
def test_route_listings_are_the_full_listing_filtered(capsys, prime, max_order):
    # the two route kinds list what `--kind all` lists under their flag
    for shape in harness_mod.build_corpus(prime, max_order).shapes:
        argv = ["enumerate", "--p", str(prime),
                "--partition", ",".join(map(str, shape.exponents)), "--kind"]
        assert run(argv + ["all"]) == 0
        full = _json_out(capsys)["subgroups"]
        for kind, flag in (("characteristic", "characteristic"),
                           ("fully-invariant", "fully_invariant")):
            assert run(argv + [kind]) == 0
            doc = _json_out(capsys)
            expected = [entry for entry in full if entry[flag]]
            assert doc["subgroups"] == expected, (shape, kind)
            assert doc["count"] == len(expected)


@pytest.mark.parametrize("kind", ["characteristic", "fully-invariant"])
def test_route_kinds_need_no_enumeration(capsys, monkeypatch, kind):
    # 2:1^9 has order 512 and millions of subgroups, but 2 characteristic
    # and 2 fully invariant ones; the enumeration cap does not gate them
    monkeypatch.setenv("PGROUPS_ENUM_CAP", "8")
    assert run(["enumerate", "--p", "2", "--partition", "1,1,1,1,1,1,1,1,1",
                "--kind", kind]) == 0
    doc = _json_out(capsys)
    assert doc["count"] == 2
    assert [entry["order"] for entry in doc["subgroups"]] == [1, 512]


def test_verify_rejects_bad_jobs(capsys):
    assert run(["verify", "--p", "2", "--max-order", "8",
                "--claims", "thm-2.5-i", "--jobs", "0"]) == 2


def test_cache_round_trip_through_cli(tmp_path, capsys):
    args = ["enumerate", "--p", "2", "--partition", "1,3", "--kind", "all",
            "--cache", str(tmp_path)]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert list(tmp_path.glob("*.json.gz"))  # entry written
    assert run(args) == 0
    assert capsys.readouterr().out == first


def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        run([])
    assert err.value.code == 2


# 10^20 - 11, a prime whose order is far over the carrier cap
BIG_PRIME = "99999999999999999989"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["classify", "--p", BIG_PRIME, "--partition", "1"], 3),
        (["enumerate", "--p", BIG_PRIME, "--partition", "1"], 3),
        (["verify", "--p", BIG_PRIME, "--max-order", "1"], 0),
    ],
)
def test_large_prime_is_decided_at_once(argv, code, capsys):
    start = time.perf_counter()
    assert run(argv) == code
    assert time.perf_counter() - start < 1.0
    if code == 3:
        assert "carrier cap exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["classify", "enumerate"])
@pytest.mark.parametrize("sum_", ["20000", "99999999999"])
def test_huge_exponent_sum_exits_on_the_carrier_cap(command, sum_):
    # the cap is decided on the exponent sum, so 2^sum is never computed or
    # printed in full; a subprocess, so a regression hangs only until timeout
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pgroups.cli", command, "--p", "2", "--partition", sum_],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 3
    assert f"carrier cap exceeded: needs 2^{sum_}," in done.stderr


def test_verify_all_never_imports_numpy_random():
    # importing numpy.random costs milliseconds a request; the sampled
    # endomorphisms come from the stdlib generator.  A fresh process, since
    # this test process may have imported it already
    script = (
        "import sys\n"
        "from pgroups.cli import run\n"
        "code = run(['verify', '--p', '2', '--max-order', '16', '--claims', 'all'])\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.count('"claim_id"') == 21


def test_prime_beyond_the_exact_bound_is_a_usage_error(capsys):
    assert run(["classify", "--p", str(10 ** 25 + 13), "--partition", "1"]) == 2
    assert "decided exactly only below" in capsys.readouterr().err


def _outcome(argv, capsys):
    """(exit code, stdout, stderr) of one call, report runtimes dropped."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    out = captured.out
    if argv[0] == "verify":
        docs = [json.loads(line) for line in out.splitlines()]
        out = [{k: v for k, v in d.items() if k != "runtime_ms"} for d in docs]
    return code, out, captured.err


def test_shared_parser_carries_no_state_between_calls(capsys):
    calls = [
        ["classify", "--p", "2", "--partition", "1,2", "--table"],
        ["classify", "--p", "2", "--partition", "1,2"],
        ["classify", "--p", "2"],
        ["classify", "--p", BIG_PRIME, "--partition", "1"],
        ["verify", "--p", "2", "--max-order", "8", "--claims", "prop-2.26"],
    ]
    shared = [_outcome(argv, capsys) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 0, 2, 3, 0]
    assert shared[0][1].startswith("shape ")
    assert json.loads(shared[1][1])["shape"] == "2:1,2"
    for argv, outcome in zip(calls, shared):
        build_parser.cache_clear()
        assert _outcome(argv, capsys) == outcome, argv


_TRICKY_TEXT = st.text(alphabet=st.sampled_from('a"\\/\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600'))
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.integers(min_value=-(2**200), max_value=-1)
    | st.floats()
    | st.text()
    | _TRICKY_TEXT
)
_JSON_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text() | _TRICKY_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(_JSON_VALUES, st.sampled_from(["", "    "]))
def test_json_text_is_the_stdlib_indented_text(obj, prefix):
    expected = json.dumps(obj, sort_keys=True, indent=2)
    assert cli_mod._json_text(obj, prefix) == expected.replace("\n", "\n" + prefix)


def test_json_text_writes_empty_containers_at_every_depth():
    for obj in ({}, [], (), {"a": {}}, {"a": []}, [[]], [{}, [[{}]]], {"a": {"b": [()]}}):
        assert cli_mod._json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


def _classify_argvs():
    return [
        ["classify", "--p", str(p), "--partition", ",".join(map(str, shape.exponents))]
        for p, max_order in ((2, 128), (3, 243), (5, 625))
        for shape in harness_mod.build_corpus(p, max_order).shapes
    ]


_ENUMERATE_ARGVS = [
    ["enumerate", "--p", p, "--partition", partition, "--kind", kind]
    for p, partition in (("2", "1"), ("2", "1,3"), ("3", "1,1"))
    for kind in ("all", "characteristic", "fully-invariant")
]


def test_json_output_is_the_stdlib_indented_text(capsys):
    argvs = _classify_argvs()
    assert len(argvs) == 73
    for argv in argvs + _ENUMERATE_ARGVS:
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", argv


def test_closed_pipe_exits_with_its_code_and_no_traceback():
    # 2:1^6 lists 2825 subgroups, far more than a pipe buffer holds, so the
    # writes go on after the reader has gone
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["enumerate", "--p", "2", "--partition", "1,1,1,1,1,1", "--kind", "all"]
    with subprocess.Popen(
        [sys.executable, "-m", "pgroups.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        try:
            assert proc.stdout.readline() == b"{\n"
            assert proc.stdout.readline() == b'  "count": 2825,\n'
            proc.stdout.close()
            assert proc.wait(timeout=60) == EXIT_PIPE
            assert proc.stderr.read() == b""
        finally:
            proc.kill()


def test_run_leaves_a_closed_pipe_to_its_caller(monkeypatch):
    class Closed:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", Closed())
    with pytest.raises(BrokenPipeError):
        run(["enumerate", "--p", "2", "--partition", "1,1", "--kind", "all"])

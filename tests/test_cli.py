"""Command-line behavior: check, run, dims, exit codes, report files."""

import argparse
import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from glomega import AlgebraSpec, direct_sum_C, nonassoc_witness, null_algebra, save_algebra
from glomega.cli import build_parser, main
from glomega.suites import SuiteConfig


def test_check_reports_table_properties(tmp_path, capsys):
    path = str(tmp_path / "c2.json")
    save_algebra(direct_sum_C(2), path)
    assert main(["check", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "dim: 2" in out
    assert "associative: yes" in out
    assert "unit: 1*u1 + 1*u2" in out
    # x x = 2x is isomorphic to C, with unit x/2; null(2) has no unit
    for spec, line in ((AlgebraSpec(1, ["x"], {(0, 0): {0: 2}}), "unit: 1/2*x"), (null_algebra(2), "unit: none")):
        save_algebra(spec, path)
        assert main(["check", path]) == 0
        assert line in capsys.readouterr().out.splitlines()


def test_check_nonassociative_table(tmp_path, capsys):
    path = str(tmp_path / "bad.json")
    save_algebra(nonassoc_witness(), path)
    assert main(["check", path]) == 0
    assert "associative: no" in capsys.readouterr().out


def test_check_malformed_file(tmp_path, capsys):
    path = str(tmp_path / "broken.json")
    with open(path, "w") as fh:
        fh.write("{not json")
    assert main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err


_ROW = {"i": 0, "j": 0, "terms": [{"k": 0, "num": 1}]}
_MALFORMED = {
    "index-string": {"dim": 1, "basis": ["a"], "table": [dict(_ROW, i="0")]},
    "num-float": {"dim": 1, "basis": ["a"], "table": [dict(_ROW, terms=[{"k": 0, "num": 1.5}])]},
    "num-string": {"dim": 1, "basis": ["a"], "table": [dict(_ROW, terms=[{"k": 0, "num": "1/2"}])]},
    "terms-int": {"dim": 1, "basis": ["a"], "table": [dict(_ROW, terms=5)]},
    "dim-bool": {"dim": True, "basis": ["a"], "table": [_ROW]},
    "basis-not-strings": {"dim": 2, "basis": [1, None], "table": []},
}


@pytest.mark.parametrize("case", sorted(_MALFORMED))
def test_check_malformed_table_exits_2(tmp_path, capsys, case):
    path = str(tmp_path / "bad.json")
    with open(path, "w") as fh:
        json.dump(_MALFORMED[case], fh)
    assert main(["check", path]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content",
    [b'{"dim": 1, "basis": ["\xe9"], "table": []}', b"[" * 100000 + b"]" * 100000],
    ids=["not-utf8", "nested-too-deep"],
)
def test_check_unparsable_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    assert main(["check", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_writes_report(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    code = main(["run", "pbw", "--omega", "C", "--n-max", "3", "--max-len", "2", "--out", out])
    assert code == 0
    data = json.load(open(out))
    assert data["suite"] == "pbw"
    assert data["summary"]["fail"] == 0
    assert data["fingerprint"]
    text = capsys.readouterr().out
    assert "suite=pbw" in text
    assert out in text


def test_run_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OMEGA_OUT_DIR", str(tmp_path))
    code = main(["run", "pbw", "--omega", "C", "--n-max", "3", "--max-len", "2"])
    assert code == 0
    path = tmp_path / "report-pbw.json"
    assert path.exists()
    assert json.load(open(path))["suite"] == "pbw"


def test_run_report_path_that_is_a_directory_exits_2(tmp_path):
    # opening a directory for writing raises an OSError, which ends in exit 2
    proc = subprocess.run(
        [sys.executable, "-m", "glomega", "run", "pbw", "--omega", "C", "--n-max", "2", "--out", str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_a_run_fingerprints_without_loading_openssl(tmp_path):
    # Report.fingerprint takes CPython's builtin SHA-256: hashlib would load
    # OpenSSL's _hashlib, about 3.5 MB resident, for the one digest of a run.
    # Nor does a passing run load dataclasses (which loads inspect) or
    # traceback: only an error record formats a traceback.
    path = tmp_path / "report.json"
    script = (
        "import sys\nfrom glomega.cli import main\nmain(sys.argv[1:])\n"
        "print(sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))\n"
        "print('_hashlib' in sys.modules)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, "run", "pbw", "--out", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2] == "[]"
    if any(importlib.util.find_spec(name) for name in ("_sha256", "_sha2")):
        assert proc.stdout.splitlines()[-1] == "False"
    # the digest is hashlib's of the report without its fingerprint and times
    report = json.loads(path.read_text())
    fingerprint = report.pop("fingerprint")
    for rec in report["records"]:
        del rec["seconds"]
    assert fingerprint == hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ((), []),
        (("run", "double"), []),
        (("run", "symbols"), []),
        (("run", "pbw"), ["glomega.yangian"]),
    ],
    ids=["import", "double", "symbols", "pbw"],
)
def test_a_run_loads_the_top_layers_only_for_the_suites_that_call_them(argv, loaded):
    # yangian and current are about a fifth of what a cold run compiles; a
    # suite or command that calls neither must not load them
    script = (
        "import sys\nimport glomega\nfrom glomega.cli import main\n"
        "code = main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "print(code, sorted({'glomega.yangian', 'glomega.current'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 %r" % (loaded,)


def test_run_flags_follow_the_config_fields():
    # one flag per SuiteConfig field after the suite, in field order, with its
    # default and type; --s is the s values comma-joined, --out the one extra
    parser = build_parser()
    run = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices["run"]
    flags = [(a.option_strings[0], a.dest, a.default, a.type) for a in run._actions if a.dest not in ("help", "suite")]
    assert flags == [
        ("--omega", "omega", "", str),
        ("--n-min", "n_min", 2, int),
        ("--n-max", "n_max", 4, int),
        ("--d", "d", 2, int),
        ("--max-len", "max_len", 3, int),
        ("--max-deg", "max_deg", 2, int),
        ("--s", "s_values", "0,1,-1,5/2", str),
        ("--seed", "seed", 20240, int),
        ("--out", "out", None, None),
    ]
    defaults = SuiteConfig("pbw")
    for _flag, dest, default, _type in flags[:-1]:
        expected = getattr(defaults, dest)
        assert default == (",".join(map(str, expected)) if dest == "s_values" else expected)
    # the flags are in field order: their values, given positionally, are the config
    values = {"omega": "C", "n_min": 1, "n_max": 3, "d": 1, "max_len": 2, "max_deg": 1, "s_values": (1, 2), "seed": 7}
    assert [dest for _flag, dest, _default, _type in flags[:-1]] == list(values)
    assert SuiteConfig("pbw", *values.values()) == SuiteConfig(suite="pbw", **values)


def test_run_bad_s_list_is_usage_error(capsys):
    assert main(["run", "pbw", "--omega", "C", "--s", "1/0"]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("s_list", ["1e5000", "1e4300", "0,-3e-5000"])
def test_run_s_beyond_the_digit_limit_is_usage_error(capsys, s_list):
    # refused by as_scalar, before a huge int is built or a report prints it
    assert main(["run", "pbw", "--omega", "C", "--s", s_list]) == 2
    assert "4300" in capsys.readouterr().err


@pytest.mark.parametrize("s_list", ["1,1", "1,1/1"])
def test_run_repeated_s_value_is_usage_error(capsys, s_list):
    assert main(["run", "projection", "--omega", "C", "--s", s_list, "--n-max", "2"]) == 2
    out = capsys.readouterr()
    assert "distinct" in out.err and "projection.theorem" not in out.out


def test_run_double_on_nonassociative_table_fails_checks(capsys):
    # documented semantics: the fuzz-capable suite accepts the table but its
    # associativity and Jacobi records fail, so the exit code is 1
    code = main(["run", "double", "--omega", "nonassoc", "--n-max", "3", "--max-len", "2"])
    assert code == 1
    out = capsys.readouterr().out
    assert "double.jacobi" in out


def test_run_other_suite_on_nonassociative_table_is_an_error(capsys):
    assert main(["run", "pbw", "--omega", "nonassoc"]) == 2
    assert "associative" in capsys.readouterr().err


def test_run_with_no_checks_is_an_error(capsys):
    # N=1 leaves the projection suite nothing to check, and the symbols suite
    # only its skipped smd record; a run that checked nothing must not pass,
    # also when its only records are skipped ones
    tiny = ["--n-min", "1", "--n-max", "1", "--d", "1"]
    for args in (
        ["projection", "--omega", "C"],
        ["projection", "--omega", "mat(2)"],
        ["projection"],
        ["symbols", "--omega", "C^2"],
    ):
        assert main(["run", *args, *tiny]) == 2, args
        captured = capsys.readouterr()
        assert "no checks" in captured.err
        assert "checks=" not in captured.out


def test_dims_output(capsys):
    assert main(["dims", "--omega", "C^3", "--d", "2", "--grade", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "grade=0 dim=12" in out
    assert "grade=1 dim=36" in out
    assert "grade=2 dim=108" in out


def test_dims_rejects_bad_arguments(capsys):
    assert main(["dims", "--omega", "C", "--d", "0"]) == 2
    assert "d must be an integer >= 1, got 0" in capsys.readouterr().err
    # a negative grade prints no grade, so it is refused rather than exit 0
    assert main(["dims", "--omega", "C", "--grade", "-1"]) == 2
    assert "grade must be an integer >= 0, got -1" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "glomega", "dims", "--omega", "C", "--d", "1", "--grade", "1"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0
    assert "grade=1 dim=1" in proc.stdout


@pytest.mark.parametrize("s_list", ["x", "", " , ", "1/2,y"])
def test_run_s_list_that_is_not_rational_is_usage_error(capsys, s_list):
    assert main(["run", "pbw", "--omega", "C", "--s", s_list]) == 2
    assert "error:" in capsys.readouterr().err

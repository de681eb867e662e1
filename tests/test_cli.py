import ast
import json
import subprocess
import sys

import pytest

from geocrystal import maffei, suites
from geocrystal.cli import main
from geocrystal.linalg import RatMat
from geocrystal.maffei import ThetaContext
from geocrystal.quiver import QuiverRep


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "geocrystal", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="module")
def p0_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "p0.json"
    point = QuiverRep(
        3,
        (1, 1),
        (1, 1),
        B={(2, 1): RatMat([[1]]), (1, 2): RatMat([[0]])},
        i={1: RatMat([[1]]), 2: RatMat([[1]])},
    )
    path.write_text(json.dumps(point.to_json()))
    return path


def test_theta_worked_example(p0_file, tmp_path):
    out = tmp_path / "flag.json"
    result = run_cli("theta", "--input", str(p0_file), "--out", str(out))
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["composition"] == [1, 1, 1]
    assert payload["flag"]["spaces"][1]["entries"] == [["1/1"], ["-1/1"], ["0/1"]]
    assert payload["pass"] is True
    assert set(payload["invariants"]) == {
        "comm1",
        "comm2",
        "flag-subspace",
        "surjectivity",
        "epsilon-agreement",
        "reduction-intertwining",
        "hecke-compatibility",
    }
    assert all(payload["invariants"].values())


def test_theta_predicate_failure(p0_file, tmp_path):
    payload = json.loads(p0_file.read_text())
    payload["maps"]["j:1"] = {"rows": 1, "cols": 1, "entries": [["1/1"]]}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    result = run_cli("theta", "--input", str(bad))
    assert result.returncode == 1
    assert "in_Lambda: j nonzero" in result.stderr


def _malformed_points(payload):
    """JSON that is not a quiver point, built from a valid one; a str is the
    file's text as it stands, anything else is written with json.dumps."""
    div0 = json.loads(json.dumps(payload))
    div0["maps"]["i:1"]["entries"] = [["1/0"]]
    floats = json.loads(json.dumps(payload))
    floats["maps"]["i:1"]["entries"] = [[0.5]]
    maps_list = dict(payload, maps=list(payload["maps"].values()))
    bool_entry = json.loads(json.dumps(payload))
    bool_entry["maps"]["i:1"]["entries"] = [[True]]
    spaced_key = json.loads(json.dumps(payload))
    spaced_key["maps"]["i:1 "] = {"rows": 1, "cols": 1, "entries": [["2/1"]]}
    padded_key = json.loads(json.dumps(payload))
    padded_key["maps"]["i:01"] = padded_key["maps"].pop("i:1")
    # an entry is a JSON int or a "p/q" string in plain decimal, nothing else
    entries = {}
    for entry in ("0.5", "1e3", "1e400", " 1", "1_0", "+1", "01/1", "1/01", "1"):
        entries[f"entry {entry!r}"] = json.loads(json.dumps(payload))
        entries[f"entry {entry!r}"]["maps"]["i:1"]["entries"] = [[entry]]
    string_row = json.loads(json.dumps(payload))
    string_row["maps"]["i:1"]["entries"] = ["1"]
    return {
        **entries,
        "string row": string_row,
        "1/0 entry": div0,
        "float entry": floats,
        "bool entry": bool_entry,
        "maps list": maps_list,
        "top-level array": [payload],
        "null n": dict(payload, n=None),
        "null v": dict(payload, v=None),
        "null w": dict(payload, w=None),
        "float n": dict(payload, n=3.7),
        "string n": dict(payload, n="3"),
        "string v": dict(payload, v="11"),
        "float v": dict(payload, v=[1.5, 1]),
        "bool w": dict(payload, w=[True, 1]),
        "spaced map key": spaced_key,
        "padded map key": padded_key,
        "bool cols": json.loads(json.dumps(payload).replace('"cols": 1', '"cols": true', 1)),
        # deeper than the decoder's recursion limit
        "nested arrays": "[" * 100_000,
        "nested objects": '{"maps": ' * 100_000,
    }


def test_theta_malformed_input(p0_file, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    result = run_cli("theta", "--input", str(bad))
    assert result.returncode == 2
    for name, payload in _malformed_points(json.loads(p0_file.read_text())).items():
        bad.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        assert main(["theta", "--input", str(bad)]) == 2, name
    # json keeps the last of two equal keys; the point reader refuses them
    text = p0_file.read_text()
    i1 = json.dumps(json.loads(text)["maps"]["i:1"])
    bad.write_text(text.replace('"i:1": ', f'"i:1": {i1}, "i:1": ', 1))
    assert main(["theta", "--input", str(bad)]) == 2


def _with_extra_matrix_key(payload):
    payload = json.loads(json.dumps(payload))
    payload["maps"]["i:1"]["extra"] = 1
    return payload


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda payload: dict(payload, extra=1), "unknown quiver point keys ['extra']"),
        (_with_extra_matrix_key, "unknown matrix keys ['extra']"),
        (lambda payload: dict(payload, schema_version=99), "quiver point schema_version 99"),
    ],
    ids=["extra top-level key", "extra matrix key", "schema_version 99"],
)
def test_theta_refuses_unknown_keys_and_versions(p0_file, tmp_path, capsys, change, message):
    bad = tmp_path / "strict.json"
    bad.write_text(json.dumps(change(json.loads(p0_file.read_text()))))
    assert main(["theta", "--input", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "crystal --n 3 --w 1,1 --out {missing}",
        "quotients --n 3 --d 2 --out {missing}",
        "verify --suite quotients --n 2 --d 2 --format text --out {missing}",
        "verify --suite maffei --n 3 --w 1,1 --samples 2 --seed 1 --dump-bundles {missing}",
        "verify --suite maffei --n 3 --w 1,1 --samples 2 --seed 1 --out {directory}",
        "theta --input {point} --out {missing}",
    ],
)
def test_unwritable_output_is_usage_error(p0_file, tmp_path, capsys, argv):
    args = argv.format(
        missing=tmp_path / "missing" / "out.json", directory=tmp_path, point=p0_file
    ).split()
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def _context_with(name, value):
    """The ThetaContext of p0's w with one field replaced."""
    ctx = ThetaContext((1, 1))
    object.__setattr__(ctx, name, value)
    return ctx


@pytest.mark.parametrize(
    "target, replacement, invariant",
    [
        ("is_hecke_pair", lambda *args: False, "hecke-compatibility"),
        ("comp_shift", lambda *args: None, "hecke-compatibility"),
        ("rank", lambda m: -1, "surjectivity"),
        # x_down and inclusion are read only by comm1 and comm2
        ("ThetaContext", lambda w: _context_with("x_down", {2: RatMat.zeros(2, 3)}), "comm1"),
        ("ThetaContext", lambda w: _context_with("inclusion", {1: (0, 2)}), "comm2"),
    ],
)
def test_theta_names_failed_invariant(
    p0_file, monkeypatch, capsys, target, replacement, invariant
):
    monkeypatch.setattr(maffei, target, replacement)
    assert main(["theta", "--input", str(p0_file)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [k for k, ok in payload["invariants"].items() if not ok] == [invariant]
    assert payload["failures"]


def test_crystal_dot(tmp_path):
    out = tmp_path / "b11.dot"
    result = run_cli("crystal", "--n", "3", "--w", "1,1", "--format", "dot", "--out", str(out))
    assert result.returncode == 0
    text = out.read_text()
    node_lines = [l for l in text.splitlines() if "label=" in l and "->" not in l]
    assert len(node_lines) == 8


def test_crystal_json_counts():
    result = run_cli("crystal", "--n", "2", "--w", "2", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["vertex_count"] == 3

    result0 = run_cli("crystal", "--n", "3", "--w", "0,0")
    assert json.loads(result0.stdout)["vertex_count"] == 1


def test_verify_quotients_facts(tmp_path):
    out = tmp_path / "q.json"
    result = run_cli(
        "verify", "--suite", "quotients", "--n", "3", "--d", "3", "--out", str(out)
    )
    assert result.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["facts"]["dim_U_mod_I3"] == 165
    assert payload["facts"]["dim_U_mod_J_(1,1)"] == 65


def test_verify_requires_seed_for_sampling():
    result = run_cli("verify", "--suite", "maffei", "--n", "3", "--w", "1,1", "--samples", "2")
    assert result.returncode == 2


def test_usage_error_exit_code():
    assert run_cli("verify").returncode == 2
    assert run_cli("frobnicate").returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        "verify --suite maffei --samples 0 --seed 1",
        "verify --suite maffei --samples -3 --seed 1",
        "verify --suite crystal --n-max 1",
        "verify --suite signs --n-max 1",
        "quotients --n 3 --d -1",
        "quotients --n 1 --d 3",
        "verify --suite maffei --n 1 --seed 1",
        "quotients --n 3 --d 3 --budget -1",
        "quotients --n 3 --d 3 --budget 0",
        "crystal --n 3 --w 1,1 --budget 0",
        "verify --suite signs --n-max 8",
    ],
)
def test_size_out_of_range_is_usage_error(argv):
    assert main(argv.split()) == 2


@pytest.mark.parametrize(
    "argv, flag",
    [
        ("verify --suite all --n-max 2 --samples 1 --seed 1", "--n-max"),
        ("verify --suite crystal --n 3 --w 0,0", "--n"),
        ("verify --suite crystal --n-max 2 --samples 3", "--samples"),
        ("verify --suite signs --n-max 2 --dump-bundles {out}", "--dump-bundles"),
        ("verify --suite signs --n-max 2 --budget 10", "--budget"),
        ("verify --suite maffei --n 3 --w 1,1 --seed 1 --budget 5", "--budget"),
        ("verify --suite maffei --seed 1 --d 2", "--d"),
        ("verify --suite quotients --n 3 --d 3 --w 1,1", "--w"),
        ("verify --suite quotients --n 2 --d 2 --dump-bundles {out}", "--dump-bundles"),
        ("verify --suite all --seed 1 --n 3", "--n"),
        ("verify --suite quotients --n 2 --d 2 --seed 5", "--seed"),
        ("verify --suite crystal --n-max 2 --seed 0", "--seed"),
    ],
)
def test_options_the_suite_does_not_read_are_usage_errors(tmp_path, capsys, argv, flag):
    # an option the chosen suite would drop is refused before anything runs
    out = tmp_path / "bundles.json"
    assert main(argv.format(out=out).split()) == 2
    captured = capsys.readouterr()
    suite = argv.split()[2]
    assert captured.out == ""
    assert captured.err == f"error: --suite {suite} does not read {flag}\n"
    assert not out.exists()


@pytest.mark.parametrize("budget", ["abc", "1.5", "0", "-5"])
def test_budget_env_out_of_range_is_usage_error(monkeypatch, capsys, budget):
    monkeypatch.setenv("GEOCRYSTAL_BUDGET", budget)
    assert main("quotients --n 3 --d 3".split()) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        "quotients --n 4 --d 9 --budget 1000",
        "verify --suite quotients --n 4 --d 9 --budget 1000",
    ],
)
def test_budget_overrun_is_usage_error(capsys, argv):
    # a size over the budget is a usage error, not a failed invariant
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n^d = 262144 exceeds the size budget 1000\n"


@pytest.mark.parametrize(
    "argv, env, err",
    [
        ("crystal --n 3 --w 1,1 --budget 7", None, "dim B(w) = 8 exceeds the size budget 7"),
        ("crystal --n 3 --w 40,40 --format dot --budget 1000", None,
         "dim B(w) = 68921 exceeds the size budget 1000"),
        ("crystal --n 3 --w 40,40 --format dot", "1000",
         "dim B(w) = 68921 exceeds the size budget 1000"),
        ("crystal --n 3 --w 100,100", None, "dim B(w) = 1030301 exceeds the size budget 100000"),
    ],
)
def test_crystal_over_budget_is_usage_error(monkeypatch, capsys, argv, env, err):
    # the Weyl dimension is checked before a vertex is built
    if env is not None:
        monkeypatch.setenv("GEOCRYSTAL_BUDGET", env)
    else:
        monkeypatch.delenv("GEOCRYSTAL_BUDGET", raising=False)
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {err}\n"


def test_crystal_at_budget_runs(capsys):
    assert main("crystal --n 3 --w 1,1 --budget 8".split()) == 0
    assert capsys.readouterr().out.count('"word"') == 8


def test_suites_never_pass_vacuously():
    report = suites.suite_maffei(3, (1, 1), 0, 1)
    assert report["points_checked"] == 0 and report["pass"] is False
    report = suites.suite_crystal(n_max=1)
    assert report["crystals"] == 0 and report["pass"] is False


def test_cli_commands_skip_numpy(p0_file):
    code = (
        "import sys\n"
        "from geocrystal.cli import main\n"
        f"assert main(['theta', '--input', {str(p0_file)!r}]) == 0\n"
        "assert main(['crystal', '--n', '3', '--w', '1,1', '--format', 'dot']) == 0\n"
        "assert main('verify --suite quotients --n 3 --d 3'.split()) == 0\n"
        "print([m for m in ('numpy', 'scipy') if m in sys.modules])\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    assert run_cli("verify", "--suite", "signs", "--n-max", "3").returncode == 0


def _modules_loaded_by(argv):
    """sys.modules of a fresh interpreter after cli.main(argv)."""
    code = (
        "import sys\n"
        "from geocrystal.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(sys.modules))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return set(ast.literal_eval(result.stdout.splitlines()[-1]))


def test_cli_commands_import_only_what_they_run(p0_file):
    theta = _modules_loaded_by(["theta", "--input", str(p0_file)])
    crystal = _modules_loaded_by(["crystal", "--n", "3", "--w", "1,1", "--format", "dot"])
    quotients = _modules_loaded_by("verify --suite quotients --n 3 --d 3".split())

    def package(*names):
        return {f"geocrystal.{name}" for name in names}

    assert "geocrystal.maffei" in theta
    assert not theta & package("crystal", "repalg", "suites")
    assert "geocrystal.crystal" in crystal
    assert not crystal & package("linalg", "flag", "quiver", "maffei", "repalg", "suites")
    assert "geocrystal.suites" in quotients
    assert "geocrystal.crystal" not in quotients
    for loaded in (theta, crystal, quotients):
        assert not loaded & {"dataclasses", "inspect"}


def test_determinism_byte_identical(p0_file, tmp_path):
    pairs = [
        ("theta", "--input", str(p0_file)),
        ("crystal", "--n", "3", "--w", "1,1", "--format", "dot"),
        ("crystal", "--n", "3", "--w", "2,1", "--format", "json"),
        ("verify", "--suite", "signs", "--n-max", "3", "--seed", "5"),
        (
            "verify", "--suite", "maffei", "--n", "3", "--w", "1,1",
            "--samples", "5", "--seed", "11",
        ),
        ("quotients", "--n", "2", "--d", "3"),
    ]
    for args in pairs:
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode
        assert first.stdout.encode() == second.stdout.encode()


def test_verify_text_format():
    args = ("verify", "--suite", "quotients", "--n", "2", "--d", "2", "--format", "text")
    result = run_cli(*args)
    assert result.returncode == 0
    lines = result.stdout.splitlines()
    assert lines[0] == "schema_version 1"
    assert "pass = True" in lines
    assert "dim_quotient_Id = 10" in lines
    assert run_cli(*args).stdout.encode() == result.stdout.encode()


def test_bundle_dump(tmp_path):
    out = tmp_path / "bundle.json"
    result = run_cli(
        "verify", "--suite", "maffei", "--n", "3", "--w", "1,1",
        "--samples", "4", "--seed", "3", "--dump-bundles", str(out),
    )
    assert result.returncode == 0
    from geocrystal.flag import flag_bundle_from_json

    x, flags = flag_bundle_from_json(json.loads(out.read_text()))
    assert x.d == 3 and len(flags) >= 1
    # the flags are theta of the points the suite checked, in order
    from geocrystal.maffei import ThetaContext, theta
    from geocrystal.quiver import sample_lambda_point

    w = (1, 1)
    ctx = ThetaContext(w)
    vs = suites.valid_dimvecs(w)
    expected = [theta(sample_lambda_point(vs[a % len(vs)], w, 3 + a + 1), ctx) for a in range(4)]
    assert flags == expected


def test_bundle_dump_samples_each_point_once(tmp_path, monkeypatch, capsys):
    # the bundle holds the flags the suite computed, so each of the 16
    # checked points is sampled once
    calls = []
    real = suites.sample_lambda_point

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(suites, "sample_lambda_point", counted)
    argv = "verify --suite maffei --n 5 --w 1,0,0,1 --samples 16 --seed 1 --dump-bundles"
    assert main([*argv.split(), str(tmp_path / "bundle.json")]) == 0
    assert json.loads(capsys.readouterr().out)["points_checked"] == 16
    assert len(calls) == 16

"""Command-line interface: JSON envelope, exit codes, files, determinism."""

import io
import json
import math
import os
import pathlib
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modspaces import cli, modspace, superpose
from modspaces.cli import _CONFIG, _config_problem, main
from modspaces.modspace import SampledFunction, load_function, save_function
from modspaces.specialfn import density_by_name

import _oracles as orc


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout_doc, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def strip_meta(doc):
    d = dict(doc)
    d.pop("meta", None)
    return d


# ----------------------------------------------------------------------
# envelope and determinism
# ----------------------------------------------------------------------

_PINS = pathlib.Path(__file__).parent / "data" / "special_pins.json"


@pytest.mark.parametrize("command", ["constants --table", "special up --check",
                                     "special bump --check --mu -1",
                                     "special bump --check --mu -1.5"])
def test_command_result_matches_pin(capsys, command):
    # every leaf of the result exactly as recorded; the JSON text also
    # tells a -0.0 from a 0.0
    code, doc, _ = run_cli(capsys, *command.split())
    pin = json.loads(_PINS.read_text())["commands"][command]
    assert code == 0
    assert doc["result"] == pin
    assert json.dumps(doc["result"], sort_keys=True) == json.dumps(pin, sort_keys=True)


def test_verify_partition_envelope(capsys):
    code, doc, err = run_cli(capsys, "verify", "partition", "--profile", "quick")
    assert code == 0
    assert doc["command"] == "verify partition --profile quick"
    assert doc["passed"] is True
    assert set(doc["meta"]) == {"version", "timestamp", "runtime_seconds",
                                "family_seconds"}
    assert "ok" in err


def test_family_seconds_cover_the_families_run(capsys):
    code, doc, _ = run_cli(capsys, "verify", "all", "--profile", "quick")
    assert code == 0
    seconds = doc["meta"]["family_seconds"]
    assert set(seconds) == set(doc["result"]["families"])
    assert all(t >= 0.0 and round(t, 3) == t for t in seconds.values())


def test_result_payload_is_deterministic(capsys):
    _, doc1, _ = run_cli(capsys, "verify", "partition", "--profile", "quick")
    _, doc2, _ = run_cli(capsys, "verify", "partition", "--profile", "quick")
    assert strip_meta(doc1) == strip_meta(doc2)


def test_verify_weights_quick(capsys):
    code, doc, _ = run_cli(capsys, "verify", "weights", "--profile", "quick")
    assert code == 0
    fam = doc["result"]["families"]["weights"]
    assert fam["passed"] is True
    kinds = [c["kind"] for c in fam["checks"]]
    assert "weight_analysis" in kinds
    assert all(c["passed"] for c in fam["checks"])
    assert fam["analysis"]["p0"] == pytest.approx(0.410247, abs=1e-6)


def test_verify_rejects_unknown_family(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "starlight"])
    assert exc.value.code == 2


def test_config_controls_domains(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "weights": {"gevrey_s": [2.0], "gevrey_radius_1d": 10,
                    "loglog_grid_max": 50.0, "loglog_step": 2.0,
                    "loglog_random": 100, "elementary_points": 101,
                    "sharpness_probe": False},
    }))
    code, doc, _ = run_cli(capsys, "--config", str(cfg),
                           "verify", "weights", "--profile", "quick")
    assert code == 0
    checks = doc["result"]["families"]["weights"]["checks"]
    assert sum(c["kind"] == "gevrey" for c in checks) == 1


def test_config_syntax_error_is_usage_error(capsys, tmp_path):
    cfg = tmp_path / "broken.json"
    cfg.write_text("{not json")
    code, doc, err = run_cli(capsys, "--config", str(cfg), "verify", "partition")
    assert code == 2
    assert doc is None
    assert "config" in err


def test_config_nested_too_deep_is_usage_error(capsys, tmp_path):
    # json.load raised RecursionError, a traceback with exit 1
    cfg = tmp_path / "deep.json"
    cfg.write_text('{"corpus": {"bands": ' + "[" * 100_000 + "]" * 100_000 + "}}")
    code, doc, err = run_cli(capsys, "--config", str(cfg), "verify", "constants")
    assert code == 2
    assert doc is None
    assert err.startswith("error: cannot read config") and err.count("\n") == 1


@pytest.mark.parametrize("config, named", [
    ({"algebra": {"n_pairs": 2}, "algebr": {}}, "'algebr'"),
    ({"algebra": {"n_pair": 2}}, "'n_pair'"),
    ({"partition": [1]}, "'partition'"),
])
def test_config_typo_is_usage_error(capsys, tmp_path, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, doc, err = run_cli(capsys, "--config", str(cfg),
                             "verify", "algebra", "--profile", "quick")
    assert code == 2
    assert doc is None
    assert len(err.strip().splitlines()) == 1
    assert named in err


@pytest.mark.parametrize("family, config, named", [
    ("algebra", {"algebra": {"n_pairs": "x"}}, "'n_pairs'"),
    ("algebra", {"algebra": {"n_pairs": 2.5}}, "'n_pairs'"),
    ("algebra", {"algebra": {"weights": ["nope"]}}, "'nope'"),
    ("subalgebra", {"subalgebra": {"loglog_R": 4}}, "'loglog_R'"),
    ("superposition", {"superposition": {"lambdas": 2.0}}, "'lambdas'"),
    ("weights", {"weights": {"sharpness_probe": "yes"}}, "'sharpness_probe'"),
], ids=["int-as-string", "int-as-fraction", "unknown-weight", "list-as-int",
        "list-as-float", "bool-as-string"])
def test_config_value_of_wrong_type_is_usage_error(capsys, tmp_path, family,
                                                   config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, doc, err = run_cli(capsys, "--config", str(cfg),
                             "verify", family, "--profile", "quick")
    assert code == 2
    assert doc is None
    assert len(err.strip().splitlines()) == 1
    assert named in err and repr(family) in err


@pytest.mark.parametrize("command, config, named", [
    (("verify", "constants"), {"superposition": {"typo": 1}}, "'typo'"),
    (("verify", "partition"), {"superposition": {"lambdas": "x"}}, "'lambdas'"),
    (("verify", "constants"), {"algebra": {"weights": ["nope"]}}, "'nope'"),
    (("verify", "constants"), {"corpus": {"bands": []}}, "'bands'"),
    (("verify", "constants"), {"corpus": {"n": 5}}, "'n'"),
    (("verify", "constants"), {"corpus": {"N": 0}}, "'N'"),
    (("verify", "constants"), {"corpus": {"N": 12}}, "'N'"),
    (("verify", "constants"), {"corpus": {"L": -1}}, "'L'"),
    (("verify", "constants"), {"partition": {"dims": [3]}}, "'dims'"),
    (("verify", "constants"), {"partition": {"dims": [1.0]}}, "'dims'"),
    (("verify", "constants"), {"weights": {"gevrey_s": [1.0]}}, "'gevrey_s'"),
    (("verify", "constants"), {"superposition": {"product_N": 21}}, "'product_N'"),
    (("verify", "constants"), {"weights": {"loglog_grid_max": 10**400}},
     "'loglog_grid_max'"),
], ids=["unknown-key", "wrong-type", "unknown-weight", "no-bands", "corpus-n-5",
        "corpus-N-0", "corpus-N-12", "corpus-L-negative", "dims-3", "dims-not-integer",
        "gevrey-s-1", "product-N-21", "int-beyond-float"])
def test_config_is_checked_whole_before_any_family_runs(capsys, tmp_path, command,
                                                        config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    code, doc, err = run_cli(capsys, "--config", str(cfg), *command)
    assert code == 2
    assert doc is None
    assert len(err.strip().splitlines()) == 1
    assert named in err and repr(next(iter(config))) in err


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers() | st.sampled_from([10**400, -(10**400)]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([(f, k) for f, rows in _CONFIG.items() for k in rows]), _JSON_VALUES)
def test_config_problem_of_any_value_is_none_or_one_line(family_key, value):
    # whatever JSON value a key gets, the check returns and never raises
    family, key = family_key
    problem = _config_problem({family: {key: value}})
    assert problem is None or (len(problem.splitlines()) == 1
                               and repr(family) in problem and repr(key) in problem)
    top = _config_problem(value)
    assert top is None or len(top.splitlines()) == 1


@pytest.mark.parametrize("config, named", [
    ({"loglog_grid_max": 1e12, "loglog_step": 0.001}, "grid_max"),
    ({"gevrey_radius_2d": 100000}, "radius"),
], ids=["loglog-7-PiB", "gevrey-2d-596-GiB"])
def test_config_sweep_over_the_element_cap_is_usage_error(capsys, tmp_path, config, named):
    # a domain too large to allocate is refused before numpy is asked
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"weights": config}))
    code, doc, err = run_cli(capsys, "--config", str(cfg), "verify", "weights",
                             "--profile", "quick")
    assert code == 2
    assert doc is None
    assert len(err.strip().splitlines()) == 1
    assert f"sweep: {named} " in err and "over the cap" in err


def test_config_defaults_pass_their_own_rule():
    for family, rows in _CONFIG.items():
        for key, (quick, full, (what, test)) in rows.items():
            assert test(quick) is None and test(full) is None, (family, key, what)


@pytest.mark.parametrize("command, config, named", [
    (("subalgebra", "quick"), {"subalgebra": {"loglog_R": []}}, "'loglog_R'"),
    (("subalgebra", "quick"), {"subalgebra": {"loglog_R": [8, 4]}}, "'loglog_R'"),
    (("subalgebra", "full"), {"subalgebra": {"loglog_R": [4]}}, "'loglog_R'"),
    (("subalgebra", "quick"), {"subalgebra": {"loglog_R": [4]}}, "'loglog_R'"),
    (("subalgebra", "full"), {"subalgebra": {"loglog_R": [0, 4]}}, "'loglog_R'"),
    (("algebra", "quick"), {"algebra": {"n_pairs": 0}}, "'n_pairs'"),
    (("superposition", "quick"), {"superposition": {"n_fixtures": 0}}, "'n_fixtures'"),
    (("partition", "quick"), {"partition": {"dims": []}}, "'dims'"),
    (("algebra", "quick"), {"algebra": {"weights": []}}, "'weights'"),
    (("superposition", "quick"), {"superposition": {"measure_lams": []}},
     "'measure_lams'"),
    (("superposition", "quick"), {"superposition": {"lambdas": []}}, "'lambdas'"),
    (("weights", "quick"), {"weights": {"gevrey_s": []}}, "'gevrey_s'"),
    (("weights", "quick"), {"weights": {"gevrey_radius_1d": -3}}, "'gevrey_radius_1d'"),
    (("weights", "quick"), {"weights": {"gevrey_radius_2d": -1}}, "'gevrey_radius_2d'"),
    (("weights", "quick"), {"weights": {"loglog_grid_max": -5.0}}, "'loglog_grid_max'"),
    (("weights", "quick"), {"weights": {"loglog_step": 0.0}}, "'loglog_step'"),
    (("weights", "quick"), {"weights": {"loglog_step": -1.0}}, "'loglog_step'"),
    (("weights", "quick"), {"weights": {"loglog_step": math.nan}}, "'loglog_step'"),
    (("weights", "quick"), {"weights": {"loglog_random": -5}}, "'loglog_random'"),
    (("weights", "quick"), {"weights": {"elementary_points": 0}}, "'elementary_points'"),
    (("superposition", "quick"), {"superposition": {"product_N": 0}}, "'product_N'"),
    (("superposition", "quick"), {"superposition": {"lambdas": [-2.0]}}, "'lambdas'"),
    (("superposition", "quick"), {"superposition": {"measure_lams": [-1.0]}},
     "'measure_lams'"),
], ids=["loglog-R-empty", "loglog-R-decreasing", "loglog-R-one-rung",
        "loglog-R-one-rung-quick", "loglog-R-zero", "no-pairs", "no-fixtures",
        "no-dims", "no-weights", "no-measure-lams", "no-lambdas", "no-gevrey-s",
        "radius-1d-negative", "radius-2d-negative", "grid-max-negative", "step-zero",
        "step-negative", "step-nan", "random-negative", "no-elementary-points",
        "no-product-factors", "lambda-negative", "measure-lam-negative"])
def test_config_value_leaving_nothing_to_test_is_usage_error(capsys, tmp_path,
                                                             command, config, named):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    family, profile = command
    code, doc, err = run_cli(capsys, "--config", str(cfg),
                             "verify", family, "--profile", profile)
    assert code == 2
    assert doc is None
    assert len(err.strip().splitlines()) == 1
    assert named in err and repr(family) in err


# keys fixed in the code at the one value both profiles gave them
_REMOVED_KEYS = [
    ("algebra", "N", 128), ("algebra", "B", 20.0),
    ("subalgebra", "gevrey_R", [4, 8, 16, 32]), ("subalgebra", "gevrey_s", 1.5),
    ("subalgebra", "gevrey_decay", 10.0), ("subalgebra", "loglog_stepwise_from", 16.0),
    ("superposition", "N", 256), ("superposition", "B", 12.0),
    ("superposition", "split_R", 8.0),
]


@pytest.mark.parametrize("family, key, value", _REMOVED_KEYS,
                         ids=[f"{family}.{key}" for family, key, _ in _REMOVED_KEYS])
def test_config_removed_key_is_usage_error(capsys, tmp_path, family, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({family: {key: value}}))
    code, doc, err = run_cli(capsys, "--config", str(cfg),
                             "verify", family, "--profile", "quick")
    assert code == 2
    assert doc is None
    assert len(err.strip().splitlines()) == 1
    assert f"unknown key {key!r} in family {family!r}" in err


def test_config_valid_keys_are_accepted(capsys, tmp_path):
    # the quick profile runs the loglog ladder once a config asks for it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "algebra": {"n_pairs": 2}, "partition": {"dims": [1]},
        "subalgebra": {"loglog_R": [16, 64]},
        "corpus": {"N": 64},
    }))
    code, doc, _ = run_cli(capsys, "--config", str(cfg),
                           "verify", "subalgebra", "--profile", "quick")
    assert code == 0
    kinds = [c["kind"] for c in doc["result"]["families"]["subalgebra"]["checks"]]
    assert kinds == ["subalgebra_gevrey_ladder", "subalgebra_loglog_ladder"]
    code, _, _ = run_cli(capsys, "--config", str(cfg), "corpus", "generate",
                         "--count", "1", "--out", str(tmp_path / "c"))
    assert code == 0
    assert json.loads((tmp_path / "c" / "fixture_000.csv").read_text()
                      .splitlines()[0])["N"] == 64


# ----------------------------------------------------------------------
# norm
# ----------------------------------------------------------------------

def test_norm_on_saved_function(capsys, tmp_path):
    path = tmp_path / "fn.csv"
    code, doc, _ = run_cli(capsys, "corpus", "generate", "--count", "1",
                           "--out", str(tmp_path), "--seed", "5")
    assert code == 0
    files = sorted(p for p in tmp_path.iterdir() if p.suffix == ".csv")
    assert files
    code, doc, _ = run_cli(capsys, "norm", str(files[0]),
                           "--p", "2", "--q", "1", "--weight", "gevrey:s=2")
    assert code == 0
    assert doc["result"]["value"] > 0.0
    assert doc["result"]["params"]["weight"] == {"variant": "gevrey", "s": 2.0}
    # determinism of the result payload
    code2, doc2, _ = run_cli(capsys, "norm", str(files[0]),
                             "--p", "2", "--q", "1", "--weight", "gevrey:s=2")
    assert strip_meta(doc) == strip_meta(doc2)


def test_norm_zero_function(capsys, tmp_path):
    f = SampledFunction(1, math.pi, 32, np.zeros(32, dtype=complex))
    path = tmp_path / "zero.csv"
    save_function(f, path)
    code, doc, _ = run_cli(capsys, "norm", str(path))
    assert code == 0
    assert doc["result"]["value"] == 0.0


def _strict(text):
    def reject(token):
        raise ValueError(f"bare {token} in JSON output")
    return json.loads(text, parse_constant=reject)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_norm_non_finite_value_fails(capsys, tmp_path):
    # e^(10|k|) overflows far below the N = 256 Nyquist index, and the
    # spectrum recomputed from the file's samples has no exact zeros.
    run_cli(capsys, "corpus", "generate", "--count", "1", "--out", str(tmp_path))
    path = str(tmp_path / "fixture_000.csv")
    for mode in ("lattice", "continuum"):
        code = main(["norm", path, "--weight", "exponential:lam=10", "--mode", mode])
        doc = _strict(capsys.readouterr().out)
        assert code == 1
        assert doc["passed"] is False
        assert doc["result"]["value"] == "inf"
    # finite samples of alternating sign +-1e308 overflow in the FFT
    f = SampledFunction(1, math.pi, 32, 1e308 * (-1.0) ** np.arange(32) + 0j)
    save_function(f, tmp_path / "overflow.csv")
    code = main(["norm", str(tmp_path / "overflow.csv")])
    doc = _strict(capsys.readouterr().out)
    assert code == 1
    assert doc["passed"] is False
    assert doc["result"]["value"] == "nan"


def test_norm_rejects_non_finite_sample(capsys, tmp_path):
    f = SampledFunction(1, math.pi, 32, np.ones(32, dtype=complex))
    f.values[3] = math.nan
    save_function(f, tmp_path / "nan.csv")
    code, doc, err = run_cli(capsys, "norm", str(tmp_path / "nan.csv"))
    assert code == 2
    assert doc is None
    assert "finite" in err


def test_norm_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "norm", str(tmp_path / "missing.csv"))
    assert code == 2
    f = SampledFunction(1, math.pi, 32, np.zeros(32, dtype=complex))
    path = tmp_path / "zero.csv"
    save_function(f, path)
    code, _, err = run_cli(capsys, "norm", str(path), "--weight", "sparkle:s=2")
    assert code == 2
    assert "error" in err


_GOOD_HEADER = {"n": 1, "L": math.pi, "N": 4}


@pytest.mark.parametrize("header, indices", [
    (_GOOD_HEADER, [0, 1, 1, 3]),                         # duplicate index
    (_GOOD_HEADER, [0, 1, 2, -1]),                        # negative index
    (_GOOD_HEADER, [0, 1, 2, 4]),                         # index >= size
    (_GOOD_HEADER, [0, 1, 2, 2**64]),                     # beyond int64
    ({"n": 1, "L": math.pi}, [0, 1, 2, 3]),               # missing N
    ({"n": 1, "L": math.pi, "N": None}, [0, 1, 2, 3]),    # mistyped N
    ({"n": 1, "L": math.pi, "N": 4.5}, [0, 1, 2, 3]),     # non-integer N
    ({"n": 0, "L": math.pi, "N": 4}, [0]),                # no dimension
    ({"n": -1, "L": math.pi, "N": 4}, [0, 1, 2, 3]),      # negative dimension
    ({"n": 3, "L": math.pi, "N": 2}, list(range(8))),     # three dimensions
    ({"n": True, "L": math.pi, "N": 4}, [0, 1, 2, 3]),    # boolean n, read as 1
    ({"n": 1, "L": True, "N": 4}, [0, 1, 2, 3]),          # boolean L, read as 1.0
    ({"n": 1, "L": "3.0", "N": 4}, [0, 1, 2, 3]),         # string L, read as 3.0
    ({"n": 1, "L": 10**400, "N": 4}, [0, 1, 2, 3]),       # L beyond the float range
    ({"n": 1, "L": math.pi, "N": math.inf}, [0, 1, 2, 3]),  # N = Infinity
], ids=["duplicate", "negative", "beyond-size", "beyond-int64", "missing-N", "null-N",
        "fractional-N", "n-zero", "n-negative", "n-three", "n-true", "L-true", "L-string",
        "L-beyond-float", "N-infinity"])
def test_norm_rejects_malformed_function_file(capsys, tmp_path, header, indices):
    path = tmp_path / "bad.csv"
    rows = "".join(f"{i},1.0,0.0\n" for i in indices)
    path.write_text(json.dumps(header) + "\n" + rows)
    # continuum mode takes any L > 0, so only the file reader rejects L = true
    code, doc, err = run_cli(capsys, "norm", str(path), "--mode", "continuum")
    assert code == 2
    assert doc is None
    assert err.startswith("error: ") and err.count("\n") == 1


def test_norm_rejects_a_header_nested_too_deep(capsys, tmp_path):
    # json.loads raised RecursionError, and norm exited 1 with a traceback
    path = tmp_path / "deep.csv"
    path.write_text("[" * 100_000 + "\n0,1.0,0.0\n")
    code, doc, err = run_cli(capsys, "norm", str(path))
    assert code == 2
    assert doc is None
    assert err == "error: function header is nested too deeply\n"


@pytest.mark.parametrize("body, line", [
    ("0,1.0,0.0\n1,1.0,0.0\n2," + "1" * 200_000 + ",0.0\n3,1.0,0.0\n", 4),
    ("0,1.0,0.0\n1,1.0\n2,1.0,0.0\n3,1.0,0.0\n", 3),
    ("0,1.0,0.0\n1,1.0,0.0,7\n2,1.0,0.0\n3,1.0,0.0\n", 3),
], ids=["field-beyond-csv-limit", "short-row", "long-row"])
def test_norm_names_the_line_of_an_unreadable_row(capsys, tmp_path, body, line):
    # A field past the csv module's 131072-character limit raised
    # csv.Error with a traceback; a row of the wrong width gave a bare
    # "not enough values to unpack".
    path = tmp_path / "bad.csv"
    path.write_text(json.dumps(_GOOD_HEADER) + "\n" + body)
    with pytest.raises(ValueError, match=f"^line {line}: "):
        load_function(path)
    code, doc, err = run_cli(capsys, "norm", str(path))
    assert code == 2
    assert doc is None
    assert err.startswith(f"error: line {line}: ") and err.count("\n") == 1


_BODY_LINE = st.one_of(
    st.text(max_size=40),
    st.builds("{},{!r},{!r}".format,
              st.one_of(st.integers(0, 3), st.integers()), st.floats(), st.floats()),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_BODY_LINE, max_size=6))
def test_norm_fuzzed_function_body_is_a_result_or_a_usage_error(lines):
    # Any text after a valid header: load_function returns or raises
    # ValueError, and `modspaces norm` exits 0, 1 or 2 without raising.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(_GOOD_HEADER) + "\n" + "\n".join(lines) + "\n")
        try:
            load_function(path)
        except ValueError:
            pass
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["norm", path])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


def test_norm_rejects_negative_k_max(capsys, tmp_path):
    # --k-max -1 printed "value": 0.0 and "passed": true with exit 0.
    f = SampledFunction(1, math.pi, 32, np.ones(32, dtype=complex))
    save_function(f, tmp_path / "one.csv")
    code, doc, err = run_cli(capsys, "norm", str(tmp_path / "one.csv"), "--k-max", "-1")
    assert code == 2
    assert doc is None
    assert err == "error: k_max must be >= 0, got -1\n"


@pytest.mark.parametrize("weight, key, keys", [
    ("loglog:s=3", "s", "none"),
    ("polynomial:t=2", "t", "s"),
    ("gevrey:lam=1", "lam", "s"),
    ("exponential:s=2", "s", "lam"),
])
def test_norm_rejects_a_weight_key_the_kind_does_not_take(capsys, tmp_path, weight, key, keys):
    # Keys the kind does not take were dropped, and the norm ran with
    # the defaults.
    f = SampledFunction(1, math.pi, 32, np.ones(32, dtype=complex))
    save_function(f, tmp_path / "one.csv")
    code, doc, err = run_cli(capsys, "norm", str(tmp_path / "one.csv"), "--weight", weight)
    assert code == 2
    assert doc is None
    kind = weight.partition(":")[0]
    assert err == f"error: weight {kind!r} takes no key {key!r}; its keys: {keys}\n"


@pytest.mark.parametrize("option", [
    ("--weight", "gevrey:s=nan"),
    ("--weight", "polynomial:s=inf"),
    ("--weight", "exponential:lam=nan"),
    ("--p", "nan"),
    ("--q", "nan"),
], ids=["gevrey-s-nan", "polynomial-s-inf", "exponential-lam-nan", "p-nan", "q-nan"])
def test_norm_rejects_a_non_finite_parameter(capsys, tmp_path, option):
    # Each printed "value": "nan" and exited 1, a failed check, since
    # every range test on the parameter was false for NaN.
    f = SampledFunction(1, math.pi, 32, np.ones(32, dtype=complex))
    save_function(f, tmp_path / "one.csv")
    code, doc, err = run_cli(capsys, "norm", str(tmp_path / "one.csv"), *option)
    assert code == 2
    assert doc is None
    assert err.startswith("error: ") and err.count("\n") == 1


def test_norm_takes_infinite_exponents_and_rejects_small_ones(capsys, tmp_path):
    f = SampledFunction(1, math.pi, 32, np.ones(32, dtype=complex))
    save_function(f, tmp_path / "one.csv")
    code, doc, _ = run_cli(capsys, "norm", str(tmp_path / "one.csv"),
                           "--p", "Infinity", "--q", " INF ")
    assert code == 0
    assert (doc["result"]["params"]["p"], doc["result"]["params"]["q"]) == ("inf", "inf")
    code, doc, err = run_cli(capsys, "norm", str(tmp_path / "one.csv"), "--q", "0.5")
    assert code == 2
    assert err == "error: p and q must lie in [1, inf], got p = 2.0, q = 0.5\n"


@pytest.mark.parametrize("L", [0.0, -math.pi, math.inf, math.nan])
def test_norm_rejects_bad_half_period(capsys, tmp_path, L):
    # Lattice mode rejects every L != pi; in continuum mode L = 0 divided
    # by zero and L = -pi gave 0.0 for a nonzero function.
    path = tmp_path / "bad.csv"
    rows = "".join(f"{i},1.0,0.0\n" for i in range(4))
    path.write_text(json.dumps({"n": 1, "L": L, "N": 4}) + "\n" + rows)
    code, doc, err = run_cli(capsys, "norm", str(path), "--mode", "continuum")
    assert code == 2
    assert doc is None
    assert err.startswith("error: ") and err.count("\n") == 1


# ----------------------------------------------------------------------
# constants / special
# ----------------------------------------------------------------------

def test_constants_table(capsys):
    code, doc, _ = run_cli(capsys, "constants", "--table")
    assert code == 0
    rows = doc["result"]["rows"]
    assert len(rows) >= 30
    for row in rows:
        assert isinstance(row["name"], str)
        v = row["value"]
        assert (isinstance(v, (int, float)) and math.isfinite(v)) or v == "inf"


def test_special_checks(capsys):
    code, doc, _ = run_cli(capsys, "special", "up", "--check")
    assert code == 0
    assert doc["passed"] is True
    code, doc, _ = run_cli(capsys, "special", "bump", "--check", "--mu", "-1.5")
    assert code == 0
    decay = next(c for c in doc["result"]["checks"]
                 if c["kind"] == "bump_decay_certificate")
    assert decay["eps"] > 0.0 and decay["passed"]


@pytest.mark.parametrize("mu", ["0", "-0.0", "nan", "-inf"])
def test_special_bump_rejects_a_mu_that_is_not_negative_and_finite(capsys, mu):
    # mu = 0 raised ZeroDivisionError from s = 1 - 1/mu, with a traceback;
    # nan and -inf exited 2 with a quadrature-floor message that names no mu
    with pytest.raises(ValueError, match="^mu must be negative and finite"):
        density_by_name("gevrey_bump", mu=float(mu))
    code, doc, err = run_cli(capsys, "special", "bump", "--check", f"--mu={mu}")
    assert code == 2
    assert doc is None
    assert err.startswith("error: mu ") and err.count("\n") == 1


# ----------------------------------------------------------------------
# corpus
# ----------------------------------------------------------------------

def test_corpus_generate_deterministic(capsys, tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    for d in (d1, d2):
        code, doc, _ = run_cli(capsys, "corpus", "generate", "--count", "3",
                               "--out", str(d), "--seed", "9")
        assert code == 0
    names = sorted(p.name for p in d1.iterdir())
    assert names == sorted(p.name for p in d2.iterdir())
    assert "manifest.json" in names
    assert sum(n.endswith(".csv") for n in names) == 3
    for name in names:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
    manifest = json.loads((d1 / "manifest.json").read_text())
    assert len(manifest["files"]) == 3


def test_corpus_generate_rejects_a_negative_band(capsys, tmp_path):
    # a negative band wrote an all-zero fixture whose norm 0.0 "passed"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus": {"bands": [-5.0], "N": 16}}))
    code, doc, err = run_cli(capsys, "--config", str(cfg), "corpus", "generate",
                             "--count", "1", "--out", str(tmp_path / "c"))
    assert code == 2
    assert doc is None
    assert len(err.strip().splitlines()) == 1
    assert "'bands'" in err and "-5.0" in err
    assert not (tmp_path / "c" / "fixture_000.csv").exists()


@pytest.mark.parametrize("corpus", [
    {"N": 65536, "n": 2},        # 2^32 samples per file
    {"N": 2 ** 27},              # n = 1 by default
    {"N": 2 ** 70, "n": 1},      # beyond the float range of N^n
    {"N": 16384, "n": 2},        # one factor of 4 over the cap
], ids=["2d-65536", "1d-2^27", "1d-2^70", "2d-16384"])
def test_corpus_generate_rejects_n_to_the_n_over_the_cap(capsys, tmp_path, monkeypatch, corpus):
    # refused before synthesize could allocate a file's samples
    monkeypatch.setattr(cli, "synthesize", lambda *a, **k: pytest.fail("synthesize was reached"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus": corpus}))
    code, doc, err = run_cli(capsys, "--config", str(cfg), "corpus", "generate",
                             "--count", "1", "--out", str(tmp_path / "c"))
    assert code == 2
    assert doc is None
    assert len(err.strip().splitlines()) == 1
    assert "'N'" in err and str(cli._MAX_ELEMENTS) in err
    assert not (tmp_path / "c").exists()


def test_corpus_generate_takes_n_to_the_n_at_the_cap(capsys, tmp_path, monkeypatch):
    # 8192^2 = 2^26 samples is allowed: synthesize is reached (and stopped there)
    def stop(*args, **kwargs):
        raise ValueError("stopped at synthesize")
    monkeypatch.setattr(cli, "synthesize", stop)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"corpus": {"N": 8192, "n": 2}}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "corpus", "generate",
                           "--count", "1", "--out", str(tmp_path / "c"))
    assert code == 2
    assert err == "error: stopped at synthesize\n"


# ----------------------------------------------------------------------
# report merge
# ----------------------------------------------------------------------

def _bare_report(id_, passed, margin):
    return {"id": id_, "kind": "demo", "passed": passed, "min_margin": margin}


def test_report_merge_empty_dir(capsys, tmp_path):
    code, doc, _ = run_cli(capsys, "report", "merge", str(tmp_path))
    assert code == 0
    assert doc["result"]["reports"] == 0


def test_report_merge_pass_fail_and_malformed(capsys, tmp_path):
    (tmp_path / "good.json").write_text(json.dumps(_bare_report("g", True, 0.5)))
    (tmp_path / "bad.json").write_text(json.dumps(_bare_report("b", False, -0.1)))
    (tmp_path / "broken.json").write_text("{oops")
    code, doc, _ = run_cli(capsys, "report", "merge", str(tmp_path))
    assert code == 1  # one failing report
    res = doc["result"]
    assert res["reports"] == 2
    assert res["failing"] == ["b"]
    assert any(m["file"] == "broken.json" for m in res["malformed"])
    assert res["worst_margins"]["demo"] == pytest.approx(-0.1)


@pytest.mark.parametrize("report, error", [
    ({"checks": [1]}, "checks:0: a check must be a JSON object"),
    ({"checks": [{"passed": True, "min_margin": [1]}]}, '"min_margin" must be a number'),
    ({"checks": [{"kind": "x", "passed": "false", "min_margin": -1.0}]},
     'checks:0:x: "passed" must be true or false'),
    ({"checks": [{"kind": "x", "passed": True, "min_margin": 1.0}, 1]},
     "checks:1: a check must be a JSON object"),
    ({"checks": [{"kind": "x"}]}, 'checks:0:x: "passed" must be true or false'),
    ({"result": {"families": []}}, 'odd:unknown: "passed" must be true or false'),
    ({"checks": [{"passed": True, "min_margin": 10**400}]}, '"min_margin" must be a number'),
], ids=["check-not-object", "margin-not-number", "passed-not-boolean",
        "bad-check-after-good", "passed-missing", "families-a-list", "margin-beyond-float"])
def test_report_merge_lists_malformed_check(capsys, tmp_path, report, error):
    # a missing "passed" was listed with the bare KeyError text "'passed'",
    # and an int margin beyond the float range ended in an OverflowError
    (tmp_path / "odd.json").write_text(json.dumps(report))
    code, doc, _ = run_cli(capsys, "report", "merge", str(tmp_path))
    res = doc["result"]
    assert [m["file"] for m in res["malformed"]] == ["odd.json"]
    assert error in res["malformed"][0]["error"]
    assert res["reports"] == 0


def test_report_merge_lists_a_file_nested_too_deep(capsys, tmp_path):
    # json.load raised RecursionError, a traceback with exit 1
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    code, doc, _ = run_cli(capsys, "report", "merge", str(tmp_path))
    assert code == 1
    assert [m["file"] for m in doc["result"]["malformed"]] == ["deep.json"]


def test_report_merge_fails_on_malformed_file(capsys, tmp_path):
    (tmp_path / "odd.json").write_text(json.dumps({"checks": [1]}))
    code, doc, _ = run_cli(capsys, "report", "merge", str(tmp_path))
    assert code == 1
    assert doc["passed"] is False and doc["result"]["passed"] is False
    assert doc["result"]["failing"] == []


def test_report_merge_keeps_a_command_verdict(capsys, tmp_path):
    saved = {"command": "norm x", "passed": False, "result": {"value": "inf"}}
    (tmp_path / "norm_x.json").write_text(json.dumps(saved))
    (tmp_path / "good.json").write_text(json.dumps(_bare_report("g", True, 0.5)))
    code, doc, _ = run_cli(capsys, "report", "merge", str(tmp_path))
    assert code == 1
    res = doc["result"]
    assert res["reports"] == 2
    assert res["failing"] == ["norm_x:unknown"]
    assert res["malformed"] == []


def test_report_merge_dedups_by_id(capsys, tmp_path):
    rep = _bare_report("same", True, 0.25)
    (tmp_path / "one.json").write_text(json.dumps(rep))
    (tmp_path / "two.json").write_text(json.dumps(rep))
    code, doc, err = run_cli(capsys, "report", "merge", str(tmp_path))
    assert code == 0
    assert doc["result"]["reports"] == 1
    assert doc["result"]["duplicates"] == ["same"]


def test_report_merge_ingests_campaign_document(capsys, tmp_path):
    code, campaign, _ = run_cli(capsys, "verify", "partition", "--profile", "quick")
    assert code == 0
    (tmp_path / "campaign.json").write_text(json.dumps(campaign))
    code, doc, _ = run_cli(capsys, "report", "merge", str(tmp_path))
    assert code == 0
    res = doc["result"]
    assert res["reports"] >= 1
    assert not res["failing"]
    assert set(res["environment"]) == {"numpy", "platform", "python"}


def test_report_merge_output_is_strict_json(capsys, tmp_path):
    (tmp_path / "neg.json").write_text(json.dumps(_bare_report("n", False, "-inf")))
    code = main(["report", "merge", str(tmp_path)])
    doc = _strict(capsys.readouterr().out)
    assert code == 1
    assert doc["result"]["failing"] == ["n"]
    assert doc["result"]["worst_margins"]["demo"] == "-inf"


_REPORT_KEYS = st.sampled_from(["passed", "checks", "result", "families", "kind", "id",
                                "min_margin"]) | st.text(max_size=3)
_REPORT_DOCS = st.recursive(
    st.none() | st.booleans() | st.floats() | st.integers()
    | st.sampled_from([10**400, "inf", "-inf", "nan", "x"]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(_REPORT_KEYS, inner, max_size=5),
    max_leaves=16)


@settings(max_examples=200, deadline=None)
@given(st.lists(_REPORT_DOCS, max_size=3))
def test_report_merge_of_any_documents_is_one_strict_json_verdict(docs):
    # whatever JSON the directory holds, the merge lists it or counts it
    with tempfile.TemporaryDirectory() as tmp:
        for i, doc in enumerate(docs):
            with open(os.path.join(tmp, f"r{i}.json"), "w") as fh:
                json.dump(doc, fh)
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = main(["report", "merge", tmp])
    assert code in (0, 1)
    assert _strict(out.getvalue())["passed"] is (code == 0)


def test_verify_superposition_fits_once_per_regime(monkeypatch):
    # the scans only scan: every fixture's lambdas run as one stack (four
    # transforms however many fixtures), pooled into one fit per regime;
    # a fit per fixture would make 7 fit calls
    def run(n_fixtures):
        fits, ffts, scanning = [], [], []

        def counting(module, name):
            fn = getattr(module, name)

            def wrapper(*args, **kwargs):
                fits.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counting(cli, "fit_growth_envelope")
        counting(superpose, "fit_growth_envelope")
        for name in ("fft", "ifft", "fftn", "ifftn"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                if scanning:
                    ffts.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)

        def scan(*args, _scan=cli._scan_rows, **kwargs):
            scanning.append(True)
            try:
                return _scan(*args, **kwargs)
            finally:
                scanning.pop()
        monkeypatch.setattr(cli, "_scan_rows", scan)

        out = cli.verify_superposition("full", {"superposition": {"n_fixtures": n_fixtures}})
        monkeypatch.undo()
        assert {"growth_envelope_gevrey", "growth_envelope_loglog"} <= {
            c["kind"] for c in out["checks"]}
        return len(fits), ffts

    assert run(1) == run(5) == (2, ["fftn", "fftn", "ifftn", "fftn"])


@pytest.mark.parametrize("n_pairs", [1, 7])
def test_algebra_corpus_stack_matches_one_function_at_a_time(n_pairs):
    # drawn and inverse-transformed as one stack, the same floats as the
    # per-mode generator and one inverse transform per function
    phase, scale = modspace._normalization(1, math.pi, 128)
    pairs = cli._algebra_corpus(n_pairs)
    assert len(pairs) == n_pairs
    for i, pair in enumerate(pairs):
        for seed, got in zip((100 + 2 * i, 101 + 2 * i), pair):
            spectrum = orc.random_bandlimited_per_mode(1, math.pi, 128, 20.0, True, seed).spectrum
            values = np.fft.ifftn(spectrum * phase / scale)
            assert (got.n, got.L, got.N) == (1, math.pi, 128)
            for a, b in ((got.values, values), (got.spectrum, spectrum)):
                assert np.array_equal(a.view(float), b.view(float))
                assert np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float)))


def test_verify_algebra_runs_a_fixed_number_of_transforms(monkeypatch):
    # the pairs run as stacks: one fftn at scale 1, one ifftn and one fftn
    # at scale 2, however many pairs share the grid
    def fft_calls(n_pairs):
        pairs = cli._algebra_corpus(n_pairs)  # prebuilt: spectra cached
        calls = []
        for name in ("fft", "ifft", "fftn", "ifftn"):
            def counted(*args, _fn=getattr(np.fft, name), _name=name, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.fft, name, counted)
        reports = modspace.check_algebra_ratio(pairs, [
            modspace.NormParams(p=2.0, q=2.0, weight=w, mode="lattice")
            for w in cli._ALGEBRA_WEIGHTS.values()])
        monkeypatch.undo()
        assert len(reports) == 3 and all(r.points_checked == n_pairs for r in reports)
        return calls

    assert fft_calls(10) == fft_calls(50) == ["fftn", "ifftn", "fftn"]

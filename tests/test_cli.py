"""Command-line interface: JSON envelope, exit codes, files, determinism."""

import json
import math

import numpy as np
import pytest

from modspaces.cli import main
from modspaces.modspace import SampledFunction, save_function


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

def test_verify_partition_envelope(capsys):
    code, doc, err = run_cli(capsys, "verify", "partition", "--profile", "quick")
    assert code == 0
    assert doc["command"] == "verify partition --profile quick"
    assert doc["passed"] is True
    assert set(doc["meta"]) == {"version", "timestamp", "runtime_seconds"}
    assert "ok" in err


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
    f = SampledFunction(1, math.pi, 32, np.ones(32, dtype=complex))
    f.values[3] = math.nan
    save_function(f, tmp_path / "nan.csv")
    code = main(["norm", str(tmp_path / "nan.csv")])
    doc = _strict(capsys.readouterr().out)
    assert code == 1
    assert doc["passed"] is False
    assert doc["result"]["value"] == "nan"


def test_norm_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "norm", str(tmp_path / "missing.csv"))
    assert code == 2
    f = SampledFunction(1, math.pi, 32, np.zeros(32, dtype=complex))
    path = tmp_path / "zero.csv"
    save_function(f, path)
    code, _, err = run_cli(capsys, "norm", str(path), "--weight", "sparkle:s=2")
    assert code == 2
    assert "error" in err


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

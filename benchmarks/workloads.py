"""The benchmark's workloads: inputs, operations and output checks.

Each workload builds its inputs from the seed in setup(), lists one round
of operations in operations(), and judges every output of a run in
check().  Rounds repeat whole, so every run attempts the same mix.

* campaign_full: `modspaces verify all --profile full` through cli.main,
  the headline verification task.  Its inputs are fixed by the profile,
  so the seed does not change them.
* norm_files: `modspaces norm FILE` (lattice mode) over a corpus written
  in setup by `modspaces corpus generate`: 1-d files of one grid size,
  three weights, varied p and q.  This is the file-reading path.  One
  operation is one pass over the corpus, one invocation per (file,
  weight): single invocations last ~10 ms, and the highest percentile
  with ten of ~3000 samples beyond it was host noise, not the program.
* norm_equivalence: library calls on band-limited functions in 1-d and
  2-d, at L = pi and at L != pi: per function, the continuum norm at p = 2
  and p = 1 and the short-time-transform norm at p = 2.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys

import numpy as np

import reference as ref
from modspaces import cli
from modspaces import modspace
from modspaces.modspace import NormParams, mod_norm, synthesize
from modspaces.partition import build_window, sigma_eval
from modspaces.weights import WeightSpec


def _program_caches() -> list:
    """functools caches of the program, cleared before each CLI operation.

    Every `modspaces` command starts in a fresh process, so its caches
    start empty; clearing them keeps in-process operations honest to that.
    """
    found = []
    for name, mod in list(sys.modules.items()):
        if name == "modspaces" or name.startswith("modspaces."):
            for val in vars(mod).values():
                if callable(getattr(val, "cache_clear", None)):
                    found.append(val)
    return found


class CliRunner:
    """Runs `modspaces` commands in process, capturing their output."""

    def __init__(self):
        self.caches = _program_caches()

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        for c in self.caches:
            c.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue(), err.getvalue()


def strict_json(text: str):
    """One JSON document, with no bare NaN or Infinity."""
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")
    return json.loads(text, parse_constant=reject)


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


class Checks:
    """Collects failed checks and the worst observed deviations."""

    def __init__(self):
        self.failures: list[str] = []
        self.worst: dict[str, float] = {}

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def close(self, name: str, got: float, want: float, rtol: float, where) -> None:
        e = rel_err(got, want)
        self.worst[name] = max(self.worst.get(name, 0.0), e)
        self.expect(e <= rtol, f"{name} {where}: {got!r} vs {want!r} (rel {e:.3g} > {rtol:g})")


def _cli_outputs(checks: Checks, outputs: dict) -> dict:
    """Parse every CLI output; require exit 0, strict JSON and a deterministic result."""
    docs = {}
    for key, runs in outputs.items():
        first = None
        for rc, out, _ in runs:
            checks.expect(rc == 0, f"{key}: exit code {rc}")
            try:
                doc = strict_json(out)
            except ValueError as exc:
                checks.expect(False, f"{key}: stdout is not one strict JSON document: {exc}")
                continue
            result = json.dumps(doc.get("result"), sort_keys=True)
            if first is None:
                first = result
                docs[key] = doc
            checks.expect(result == first, f"{key}: result differs between operations")
    return docs


# ---------------------------------------------------------------------------
# campaign_full
# ---------------------------------------------------------------------------

FAMILIES = ("weights", "partition", "algebra", "subalgebra", "superposition", "constants")
LADDER_S = 1.5  # gevrey_s of the full profile's subalgebra ladder


class CampaignFull:
    name = "campaign_full"
    warmup_s = 0.0  # one round is a whole campaign; the run's median discounts the first

    def setup(self, seed: int, workdir: str, run_cli: CliRunner) -> dict:
        return {"run_cli": run_cli}

    def operations(self, state: dict) -> list:
        run_cli = state["run_cli"]
        argv = ["verify", "all", "--profile", "full"]
        return [("verify all --profile full", lambda: run_cli(argv))]

    def failed(self, output) -> bool:
        return output[0] != 0

    def check(self, state: dict, outputs: dict) -> Checks:
        checks = Checks()
        for key, doc in _cli_outputs(checks, outputs).items():
            checks.expect(doc.get("passed") is True, f"{key}: passed is not true")
            fams = doc["result"]["families"]
            checks.expect(sorted(fams) == sorted(FAMILIES), f"{key}: families {sorted(fams)}")
            for fam, block in fams.items():
                checks.expect(block.get("passed") is True, f"{key}: family {fam} failed")
                for c in block["checks"]:
                    checks.expect(c.get("passed") is True, f"{key}: check {fam}/{c['kind']} failed")
            ladder = [c for c in fams["subalgebra"]["checks"]
                      if c["kind"] == "subalgebra_gevrey_ladder"]
            checks.expect(len(ladder) == 1, f"{key}: no subalgebra_gevrey_ladder check")
            for c in ladder:
                for R, ratio in zip(c["R"], c["ratio"]):
                    checks.close("ladder_ratio", ratio, ref.band_ladder_ratio(R, LADDER_S),
                                 1e-6, f"R={R:g}")
        return checks


# ---------------------------------------------------------------------------
# norm_files
# ---------------------------------------------------------------------------

CORPUS_N = 256
CORPUS_COUNT = 12
FILE_WEIGHTS = ("polynomial:s=2", "gevrey:s=2", "loglog")
FILE_PQ = (("1", "1"), ("2", "2"), ("2", "1"), ("3", "2"), ("inf", "2"), ("2", "inf"))


def _pq_value(text: str) -> float:
    return math.inf if text == "inf" else float(text)


class NormFiles:
    name = "norm_files"
    warmup_s = 2.0

    def setup(self, seed: int, workdir: str, run_cli: CliRunner) -> dict:
        config = os.path.join(workdir, "corpus_config.json")
        with open(config, "w") as fh:
            json.dump({"corpus": {"N": CORPUS_N}}, fh)
        corpus = os.path.join(workdir, "corpus")
        rc, _, err = run_cli(["--config", config, "corpus", "generate",
                              "--seed", str(1000 + 100 * seed),
                              "--count", str(CORPUS_COUNT), "--out", corpus])
        if rc != 0:
            raise RuntimeError(f"corpus generate failed ({rc}): {err.strip()}")
        with open(os.path.join(corpus, "manifest.json")) as fh:
            manifest = json.load(fh)
        # Every (p, q) pair appears equally often in a round; the seed
        # decides which file and weight each pair lands on.
        n_ops = len(manifest["files"]) * len(FILE_WEIGHTS)
        perm = np.random.default_rng(seed).permutation(n_ops)
        plan = []
        for j in range(n_ops):
            entry = manifest["files"][j // len(FILE_WEIGHTS)]
            p, q = FILE_PQ[perm[j] % len(FILE_PQ)]
            plan.append((entry, FILE_WEIGHTS[j % len(FILE_WEIGHTS)], p, q))
        return {"run_cli": run_cli, "corpus": corpus, "plan": plan}

    def operations(self, state: dict) -> list:
        run_cli = state["run_cli"]
        calls = [((entry["name"], w, p, q),
                  ["norm", os.path.join(state["corpus"], entry["name"]),
                   "--weight", w, "--p", p, "--q", q])
                 for entry, w, p, q in state["plan"]]

        def corpus_pass():
            return [(key, run_cli(argv)) for key, argv in calls]

        return [("corpus pass", corpus_pass)]

    def failed(self, output) -> bool:
        return any(rc != 0 for _, (rc, _, _) in output)

    def check(self, state: dict, outputs: dict) -> Checks:
        checks = Checks()
        per_call: dict = {}
        for batch in outputs.get("corpus pass", []):
            for key, out in batch:
                per_call.setdefault(key, []).append(out)
        for (name, w, p, q), doc in _cli_outputs(checks, per_call).items():
            entry = next(e for e in state["plan"] if e[0]["name"] == name)[0]
            res = doc["result"]
            where = f"{name} {w} p={p} q={q}"
            checks.expect(doc.get("passed") is True, f"{where}: passed is not true")
            checks.expect(res["warnings"] == [], f"{where}: warnings {res['warnings']}")
            checks.expect(res["truncation_tail"] < 1e-9,
                          f"{where}: truncation_tail {res['truncation_tail']}")
            f = synthesize("random_bandlimited", n=entry["n"], L=entry["L"], N=entry["N"],
                           seed=entry["seed"], B=entry["B"])
            variant, s = ref.parse_weight(w)
            want = ref.lattice_norm(f.spectrum, entry["n"], entry["L"], _pq_value(p),
                                    _pq_value(q), variant, s, entry["N"] // 2)
            checks.close("file_norm", res["value"], want, 1e-9, where)
        return checks


# ---------------------------------------------------------------------------
# norm_equivalence
# ---------------------------------------------------------------------------

# (n, N, L, band): a 1-d and a 2-d record cost about the same on these
# grids; L != pi puts the frequency grid off the integer lattice, and the
# two such L are picked so that all four records cost within ~10 % of
# each other, which keeps the median of the mixed round steady.
EQUIV_GRIDS = ((1, 512, math.pi, 10.0), (1, 512, 3.5, 10.0),
               (2, 32, math.pi, 8.0), (2, 32, 2.8, 7.0))
EQUIV_PER_GRID = 2
EQUIV_WEIGHT = ("gevrey", 2.0)
EQUIV_P_OTHER = 1.0
STFT_SPREAD_MAX = 20.0  # README: STFT/decomposition ratio interval spread


def _axis_rows(ks, xi):
    w1 = build_window(1)
    return np.stack([sigma_eval(w1, int(k), xi) for k in ks])


class NormEquivalence:
    name = "norm_equivalence"
    warmup_s = 2.0

    def setup(self, seed: int, workdir: str, run_cli: CliRunner) -> dict:
        spec = WeightSpec.gevrey(EQUIV_WEIGHT[1])
        items = []
        for g, (n, N, L, B) in enumerate(EQUIV_GRIDS):
            window = synthesize("gaussian", n=n, L=L, N=N, a=2.0)
            for i in range(EQUIV_PER_GRID):
                fseed = 10_000 + 100 * seed + EQUIV_PER_GRID * g + i
                f = synthesize("random_bandlimited", n=n, L=L, N=N, seed=fseed, B=B)
                items.append({"key": (n, N, round(L, 6), fseed), "f": f, "window": window})
        return {"spec": spec, "items": items}

    def operations(self, state: dict) -> list:
        spec = state["spec"]
        p2 = NormParams(2.0, 2.0, spec, mode="continuum")
        p_other = NormParams(EQUIV_P_OTHER, 2.0, spec, mode="continuum")

        def record(f, window):
            # Looked up at call time, so a traced run sees the wrapped functions.
            r2 = modspace.mod_norm_record(f, p2)
            r_other = modspace.mod_norm_record(f, p_other)
            st = modspace.stft_norm(f, 2.0, 2.0, spec, window)
            return (r2["value"], r_other["value"], st, r2["warnings"] + r_other["warnings"])

        return [(it["key"], lambda it=it: record(it["f"], it["window"]))
                for it in state["items"]]

    def failed(self, output) -> bool:
        return False

    def check(self, state: dict, outputs: dict) -> Checks:
        checks = Checks()
        variant, s = EQUIV_WEIGHT
        ratios = []
        for it in state["items"]:
            runs = outputs.get(it["key"], [])
            if not runs:
                continue
            f, window = it["f"], it["window"]
            v2, v_other, st, warns = runs[0]
            where = "n={} N={} L={:g} seed={}".format(*it["key"])
            checks.expect(all(r == runs[0] for r in runs), f"{where}: values differ between rounds")
            checks.expect(warns == [], f"{where}: warnings {warns}")
            checks.close("continuum_p2_vs_parseval", v2,
                         ref.continuum_p2_norm(f.values, f.L, 2.0, variant, s, _axis_rows),
                         1e-10, where)
            checks.close("stft_p2_vs_correlation", st,
                         ref.stft_p2_norm(f.values, window.values, f.L, 2.0, variant, s),
                         1e-10, where)
            # Riemann-sum Cauchy-Schwarz per block: ||g||_1 <= (2L)^(n/2) ||g||_2.
            checks.expect(v_other <= (2.0 * f.L) ** (0.5 * f.n) * v2 * (1 + 1e-12),
                          f"{where}: p=1 norm {v_other!r} above its Hoelder bound")
            if abs(f.L - math.pi) < 1e-12:
                for p, got in ((2.0, v2), (EQUIV_P_OTHER, v_other)):
                    lat = mod_norm(f, NormParams(p, 2.0, state["spec"], mode="lattice"))
                    checks.close("continuum_vs_lattice", got, lat, 1e-12, f"{where} p={p:g}")
            ratios.append(st / v2)
        if ratios:
            spread = max(ratios) / min(ratios)
            checks.worst["stft_ratio_spread"] = spread
            checks.expect(min(ratios) > 0 and spread <= STFT_SPREAD_MAX,
                          f"STFT/decomposition ratio spread {spread:.3g} > {STFT_SPREAD_MAX:g}")
        return checks


WORKLOADS = {wl.name: wl for wl in (CampaignFull(), NormFiles(), NormEquivalence())}

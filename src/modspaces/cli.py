"""Batch command-line interface.

Subcommands
    norm <file> --p --q --weight --mode   modulation norm of a stored function
    verify [family] [--profile quick|full]   verification campaigns
    constants --table                     tabulate the named constants
    special up|bump --check               special-function self checks
    corpus generate --seed --count        deterministic fixture corpus
    report merge <dir>                    aggregate report JSONs

Machine-readable JSON goes to stdout, human prose to stderr.  The JSON
document is {"command", "passed", "result", "meta"}: everything under
"result" is deterministic for identical inputs and seeds, while wall
times and timestamps are quarantined under "meta" so byte-level
comparison of results stays meaningful.

Exit codes: 0 when every invoked check passes, 1 when a check fails,
2 on usage or input errors.

A JSON config file (--config) can override the per-family settings
(sweep domains, counts, radii, weight parameters); the schema is
the flat per-family key tables documented in the README.  Sweeps and
scans run sequentially; there is no worker-count setting.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import platform
import reprlib
import sys
import time

import numpy as np

from . import __version__
from .constants import (
    choose_R,
    constant_c3,
    constant_c4,
    constant_E_R,
    constant_G_RN,
    inverse_g,
    upper_incomplete_gamma,
)
from .modspace import (
    NormParams,
    _bandlimited_spectra,
    _from_spectra,
    check_algebra_ratio,
    load_function,
    mod_norm,
    mod_norm_record,
    save_function,
    synthesize,
)
from .partition import build_window, verify_partition
from .specialfn import (
    density_by_name,
    gevrey_bump_decay,
    gevrey_bump_ft,
    measure_L1,
    up_decay_bound,
    up_derivative_residual,
    up_eval,
    up_fourier,
    up_grid,
)
from .superpose import (
    _scan_rows,
    fit_growth_envelope,
    lipschitz_check,
    phase_split,
    product_identity_check,
    subalgebra_ladder,
)
from .weights import (
    _MAX_ELEMENTS,
    LoglogCloud,
    WeightSpec,
    _finite,
    _int_in,
    analyze_weight,
    verify_weight_inequality,
)

# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------


def _emit(command: str, passed: bool, result: dict, started: float,
          meta: dict | None = None) -> int:
    doc = {
        "command": command,
        "passed": bool(passed),
        "result": result,
        "meta": {
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc)
            .isoformat(),
            "runtime_seconds": round(time.time() - started, 3),
            **(meta or {}),
        },
    }
    print(json.dumps(_strict_json(doc), sort_keys=True, indent=2, allow_nan=False))
    status = "ok" if passed else "FAIL"
    print(f"{status}: {command} ({doc['meta']['runtime_seconds']:.1f}s)",
          file=sys.stderr)
    return 0 if passed else 1


def _strict_json(v):
    """v as plain JSON values, every non-finite float as its _float_token string."""
    if isinstance(v, dict):
        return {k: _strict_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict_json(x) for x in v]
    if isinstance(v, np.ndarray):
        return _strict_json(v.tolist())
    if isinstance(v, (complex, np.complexfloating)):
        return {"re": _float_token(v.real), "im": _float_token(v.imag)}
    if isinstance(v, (float, np.floating)):
        return _float_token(float(v))
    if isinstance(v, (np.integer, np.bool_)):
        return v.item()
    return v


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _float_token(v: float):
    """v itself when finite, else the strict-JSON token "inf", "-inf" or "nan"."""
    if math.isfinite(v):
        return v
    return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")


# the keys each --weight kind takes, with their defaults
_WEIGHT_KEYS = {"polynomial": {"s": 2.0}, "gevrey": {"s": 2.0},
                "loglog": {}, "exponential": {"lam": 1.0}}


def _parse_weight(text: str) -> WeightSpec:
    """Parse 'kind' or 'kind:key=val,key=val', e.g. 'gevrey:s=2'."""
    kind, _, tail = text.partition(":")
    kind = kind.strip()
    if kind not in _WEIGHT_KEYS:
        raise ValueError(f"unknown weight kind {kind!r}; use polynomial, "
                         "gevrey, loglog or exponential")
    kv = dict(_WEIGHT_KEYS[kind])
    if tail:
        for item in tail.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise ValueError(f"bad weight parameter {item!r}")
            key = key.strip()
            if key not in kv:
                raise ValueError(f"weight {kind!r} takes no key {key!r}; "
                                 f"its keys: {', '.join(kv) or 'none'}")
            kv[key] = float(val)
    return getattr(WeightSpec, kind)(**kv)


def _check(kind: str, passed: bool, margin: float, detail: dict) -> dict:
    return {"kind": kind, "passed": bool(passed),
            "min_margin": float(margin), **detail}


def _positive(v) -> bool:
    return _finite(v) and v > 0


def _value(what: str, ok) -> tuple:
    """The rule (what, test) of a key whose value ok accepts; the test
    returns None for a value it takes, else the value shown in one line."""
    return what, lambda v: None if ok(v) else reprlib.repr(v)


def _entries(what: str, ok) -> tuple:
    """The rule of a key taking a non-empty list of entries that ok
    accepts; its test shows a value that is no such list, or the list's
    first failing entry."""
    def test(v):
        if not isinstance(v, list) or not v:
            return reprlib.repr(v)
        return next((f"entry {reprlib.repr(e)}" for e in v if not ok(e)), None)
    return f"a non-empty list of {what}", test


# the weights an "algebra" config may name
_ALGEBRA_WEIGHTS = {
    "gevrey": WeightSpec.gevrey(s=2.0),
    "loglog": WeightSpec.loglog(),
    "polynomial": WeightSpec.polynomial(s=2.0),
}

_SIZE = _value("an integer > 0", _int_in(1))
_SIZE_OR_SKIP = _value("an integer >= 0 (0 skips)", _int_in(0))
_POSITIVE_NUMBER = _value("a number > 0", _positive)

# The --config keys: family -> key -> (quick profile default, full
# profile default, (what the key takes, test)).  A config may set exactly
# these keys; corpus generation always takes the full column.
_CONFIG = {
    "weights": {
        "gevrey_s": ([1.5, 2.0], [1.2, 1.5, 2.0, 3.0],
                     _entries("numbers > 1", lambda s: _finite(s) and s > 1)),
        "gevrey_radius_1d": (50, 200, _SIZE),
        "gevrey_radius_2d": (0, 40, _SIZE_OR_SKIP),
        "loglog_grid_max": (500.0, 2000.0, _POSITIVE_NUMBER),
        "loglog_step": (2.0, 0.5, _POSITIVE_NUMBER),
        "loglog_random": (20_000, 100_000, _SIZE_OR_SKIP),
        "sharpness_probe": (False, True, _value("true or false", lambda b: isinstance(b, bool))),
        "elementary_points": (50_001, 200_001, _SIZE),
    },
    "partition": {"dims": ([1], [1, 2], _entries("integers 1 or 2", _int_in(1, 2)))},
    "algebra": {
        "n_pairs": (10, 50, _SIZE),
        "weights": (["gevrey"], ["gevrey", "loglog", "polynomial"],
                    _entries("the names " + ", ".join(_ALGEBRA_WEIGHTS),
                             lambda w: isinstance(w, str) and w in _ALGEBRA_WEIGHTS)),
    },
    # a ladder needs two rungs to decay between
    "subalgebra": {"loglog_R": (None, [4, 16, 64, 256, 512], _value(
        "null or at least 2 strictly increasing numbers > 0",
        lambda R: R is None or (isinstance(R, list) and len(R) >= 2 and all(map(_positive, R))
                                and all(a < b for a, b in zip(R, R[1:])))))},
    "superposition": {
        "n_fixtures": (2, 5, _SIZE),
        "lambdas": ([2.0, 4.0, 8.0], [2.0, 4.0, 8.0, 16.0], _entries("numbers > 0", _positive)),
        "measure_lams": ([1.0], [0.1, 1.0, 10.0], _entries("numbers > 0", _positive)),
        # 20 caps product_identity_check's subset enumeration
        "product_N": (6, 8, _value("an integer in [1, 20]", _int_in(1, 20))),
    },
    "corpus": {
        "N": (256, 256, _value("a power of two >= 2",
                               lambda N: _int_in(2)(N) and N & (N - 1) == 0)),
        "L": (math.pi, math.pi, _POSITIVE_NUMBER),
        "n": (1, 1, _value("1 or 2", _int_in(1, 2))),
        "bands": ([10.0, 25.0, 40.0, 55.0], [10.0, 25.0, 40.0, 55.0],
                  _entries("numbers >= 0", lambda B: _finite(B) and B >= 0)),
    },
}


def _family_settings(profile: str, config: dict, family: str) -> dict:
    """The profile's defaults for one family, overridden by its config keys."""
    column = ("quick", "full").index(profile)
    return {**{key: row[column] for key, row in _CONFIG[family].items()},
            **config.get(family, {})}


# ---------------------------------------------------------------------------
# verify families
# ---------------------------------------------------------------------------


def verify_weights(profile: str, config: dict) -> dict:
    st = _family_settings(profile, config, "weights")

    ana = analyze_weight()
    analysis = {"t0": ana.t0, "p0": ana.p0,
                "s_admissible": ana.s_admissible, "deriv_sup": ana.deriv_sup}
    margin = min(ana.t0 - 16.4449, 16.4451 - ana.t0,
                 ana.p0 - 0.410247, 0.410248 - ana.p0)
    checks = [_check("weight_analysis", margin > 0, margin,
                     {"values": analysis})]

    for s in st["gevrey_s"]:
        rep = verify_weight_inequality(
            "gevrey", {"s": s},
            {"n": 1, "radius": st["gevrey_radius_1d"]})
        checks.append(rep.to_dict())
        if st["gevrey_radius_2d"]:
            rep2 = verify_weight_inequality(
                "gevrey", {"s": s},
                {"n": 2, "radius": st["gevrey_radius_2d"]})
            checks.append(rep2.to_dict())

    loglog_domain = {"grid_max": st["loglog_grid_max"], "step": st["loglog_step"],
                     "n_random": st["loglog_random"]}
    # the admissible sweep and the probe share one draw of the far-field cloud
    cloud = LoglogCloud(st["loglog_random"])
    rep = verify_weight_inequality("loglog", {}, loglog_domain, cloud=cloud)
    checks.append(rep.to_dict())

    if st["sharpness_probe"]:
        probe = verify_weight_inequality("loglog", {"s": 0.99}, loglog_domain, cloud=cloud)
        d = probe.to_dict()
        d["kind"] = "loglog_sharpness_probe"
        # The probe passes when the inequality is violated: s = 0.99 is
        # past the admissible range, so a clean sweep there would mean
        # the sweep has no teeth.
        d["passed"] = not probe.passed
        d["min_margin"] = -probe.min_margin
        checks.append(d)
    del cloud  # its arrays would add to the elementary sweep's peak memory

    checks.append(verify_weight_inequality(
        "elementary", {}, {"n_points": st["elementary_points"]}).to_dict())

    return {"analysis": analysis, "checks": checks}


def verify_partition_family(profile: str, config: dict) -> dict:
    st = _family_settings(profile, config, "partition")
    checks = []
    for n in st["dims"]:
        rep = verify_partition(build_window(n))
        d = rep.to_dict()
        d["kind"] = f"partition_n{n}"
        checks.append(d)
    return {"checks": checks}


def _algebra_corpus(n_pairs: int):
    """The algebra family's pairs, drawn and inverse-transformed as one stack.

    Pair i is synthesize("random_bandlimited", n=1, N=128, B=20) at
    seeds 100 + 2i and 101 + 2i, the same floats.
    """
    spectra = _bandlimited_spectra(1, math.pi, 128, 20.0, True, range(100, 100 + 2 * n_pairs))
    fs = _from_spectra(1, math.pi, 128, spectra)
    return list(zip(fs[0::2], fs[1::2]))


def verify_algebra(profile: str, config: dict) -> dict:
    st = _family_settings(profile, config, "algebra")
    pairs = _algebra_corpus(st["n_pairs"])
    reports = check_algebra_ratio(pairs, [
        NormParams(p=2.0, q=2.0, weight=_ALGEBRA_WEIGHTS[name], mode="lattice")
        for name in st["weights"]])
    checks = []
    for name, rep in zip(st["weights"], reports):
        d = rep.to_dict()
        d["kind"] = f"algebra_ratio_{name}"
        for key in ("ratios", "ratios_refined"):  # keep reports compact
            d["extra"].pop(key)
        checks.append(d)
    return {"checks": checks}


def verify_subalgebra(profile: str, config: dict) -> dict:
    st = _family_settings(profile, config, "subalgebra")
    checks = []

    lad = subalgebra_ladder(WeightSpec.gevrey(s=1.5), [4, 8, 16, 32])
    rs = lad["ratio"]
    steps = [rs[i] - rs[i + 1] for i in range(len(rs) - 1)]
    decay = rs[0] / rs[-1]
    margin = min(min(steps), decay - 10.0)
    checks.append(_check(
        "subalgebra_gevrey_ladder", min(steps) >= 0 and decay >= 10.0, margin,
        {"R": lad["R"], "ratio": rs, "total_decay": decay,
         "required_decay": 10.0}))

    if st["loglog_R"]:
        lad2 = subalgebra_ladder(WeightSpec.loglog(), st["loglog_R"])
        rs2, Rs2 = lad2["ratio"], lad2["R"]
        # The frozen reference scale inside the slowly varying weight
        # keeps its bracket essentially constant below |xi| ~ 15, so
        # the inverse-power decay is asserted stepwise from that scale
        # on, plus end to end across the whole ladder.
        margins = [rs2[0] / rs2[-1] - Rs2[-1] / Rs2[0]]
        for i in range(len(Rs2) - 1):
            if Rs2[i] >= 16.0:
                margins.append(rs2[i] / rs2[i + 1] - Rs2[i + 1] / Rs2[i])
        checks.append(_check(
            "subalgebra_loglog_ladder", min(margins) >= 0, min(margins),
            {"R": Rs2, "ratio": rs2, "end_to_end_decay": rs2[0] / rs2[-1],
             "required_end_to_end": Rs2[-1] / Rs2[0]}))

    return {"checks": checks}


def verify_superposition(profile: str, config: dict) -> dict:
    st = _family_settings(profile, config, "superposition")
    checks = []
    wspec = WeightSpec.gevrey(s=2.0)
    params = NormParams(p=2.0, q=1.0, weight=wspec, mode="lattice")

    fixtures = []
    for i in range(st["n_fixtures"]):
        f = synthesize("random_bandlimited", n=1, N=256, seed=300 + i, B=12.0)
        f = f.copy_with(f.values.real.astype(np.complex128))
        fixtures.append(f.copy_with(f.values * (0.5 / mod_norm(f, params))))

    # spectral split reconstruction and triangle inequality
    worst_resid = 0.0
    worst_tri = math.inf
    for f in fixtures:
        split = phase_split(f, 8.0)
        worst_resid = max(worst_resid, split.residual(f))
        total = mod_norm(split.u0, params) + sum(
            mod_norm(p, params) for p in split.parts.values())
        worst_tri = min(worst_tri, total - mod_norm(f, params))
    checks.append(_check("phase_split_reconstruction",
                         worst_resid <= 1e-10, 1e-10 - worst_resid,
                         {"max_residual": worst_resid, "tolerance": 1e-10}))
    checks.append(_check("phase_split_norm_triangle",
                         worst_tri >= -1e-12, worst_tri,
                         {"min_slack": worst_tri}))

    # pointwise exponential-difference identity
    worst_id = 0.0
    for f, g in zip(fixtures, fixtures[1:] + fixtures[:1]):
        worst_id = max(worst_id,
                       lipschitz_check(f, g, params)["identity_residual"])
    checks.append(_check("exp_difference_identity",
                         worst_id <= 1e-12, 1e-12 - worst_id,
                         {"max_residual": worst_id, "tolerance": 1e-12}))

    # product expansion identity against subset enumeration
    rng = np.random.default_rng(20260814)
    worst_prod = 0.0
    for nn in range(1, st["product_N"] + 1):
        zs = rng.random(nn) * np.exp(2j * np.pi * rng.random(nn))
        worst_prod = max(worst_prod, product_identity_check(zs))
    checks.append(_check("product_identity",
                         worst_prod <= 1e-12, 1e-12 - worst_prod,
                         {"max_residual": worst_prod, "tolerance": 1e-12,
                          "max_factors": st["product_N"]}))

    # one-sided growth envelopes with a single constant pair per regime,
    # fitted to the (norm, lhs) points of every fixture's scan
    rows = _scan_rows(fixtures, params, st["lambdas"])
    vs = [row["norm_u"] for row in rows]
    lhss = [row["lhs"] for row in rows]
    for regime, rp in (("gevrey", {"s": 2.0}),
                       ("loglog", {"theta": 1.5, "N": 3.0})):
        fit = fit_growth_envelope(vs, lhss, regime, rp)
        checks.append(_check(
            f"growth_envelope_{regime}", fit["min_residual"] >= 0.0,
            fit["min_residual"],
            {"b": fit["b"], "c": fit["c"],
             "points": len(vs), "regime_params": rp}))

    # weighted integrability of the registered densities
    finite_flags = {}
    ok = True
    bump = density_by_name("gevrey_bump", mu=-2.0)
    upden = density_by_name("up")
    for lam in st["measure_lams"]:
        r1 = measure_L1("gevrey", bump, lam, {"s": 2.0})
        r2 = measure_L1("loglog", upden, lam, {"theta": 1.0, "eps": 0.5})
        finite_flags[f"bump_gevrey_lam_{lam:g}"] = r1["converged"]
        finite_flags[f"up_loglog_lam_{lam:g}"] = r2["converged"]
        ok = ok and r1["converged"] and r2["converged"]
    checks.append(_check("density_integrability", ok,
                         1.0 if ok else -1.0, {"flags": finite_flags}))

    return {"checks": checks}


def verify_constants(profile: str, config: dict) -> dict:
    checks = []

    # tail integral versus its recurrence and the closed forms
    worst = 0.0
    for alpha in (0.5, 1.0, 1.7, 2.0, 3.3):
        for t in (0.0, 0.3, 1.0, 4.0, 20.0):
            lhs = upper_incomplete_gamma(alpha + 1.0, t)
            rhs = alpha * upper_incomplete_gamma(alpha, t) + \
                t ** alpha * math.exp(-t) if t > 0 else \
                alpha * upper_incomplete_gamma(alpha, t)
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-300))
    for t in (0.0, 0.5, 2.0, 10.0):
        worst = max(worst, abs(upper_incomplete_gamma(1.0, t)
                               - math.exp(-t)) / math.exp(-t))
        worst = max(worst, abs(upper_incomplete_gamma(2.0, t)
                               - (t + 1.0) * math.exp(-t))
                    / ((t + 1.0) * math.exp(-t)))
    checks.append(_check("tail_integral_identities", worst <= 1e-9,
                         1e-9 - worst, {"max_rel_error": worst,
                                        "tolerance": 1e-9}))

    # inverse round-trip
    worst_rt = 0.0
    for alpha in (0.5, 1.0, 2.0, 3.3):
        for u in (1e-12, 1e-6, 1e-2, 0.5):
            t = inverse_g(alpha, u)
            back = upper_incomplete_gamma(alpha, t)
            worst_rt = max(worst_rt, abs(back - u) / u)
    checks.append(_check("inverse_round_trip", worst_rt <= 1e-8,
                         1e-8 - worst_rt, {"max_rel_error": worst_rt,
                                           "tolerance": 1e-8}))

    # asymptote of the inverse: g(u)/log(1/u) decreasing toward 1
    ratios = [inverse_g(2.0, u) / math.log(1.0 / u)
              for u in (1e-4, 1e-8, 1e-12)]
    mono = ratios[0] > ratios[1] > ratios[2] > 1.0
    close = abs(ratios[2] - 1.0) <= 0.2
    checks.append(_check("inverse_asymptote", mono and close,
                         0.2 - abs(ratios[2] - 1.0), {"ratios": ratios}))

    # radius selection round-trips
    worst_cr = 0.0
    for norm_u in (1.5, 4.0, 30.0):
        R = choose_R("gevrey", norm_u, {"s": 2.0, "q": 2.0, "n": 1})
        x_back = (2.0 - math.sqrt(2.0)) * 2.0 * math.sqrt(R - 2.0)
        lhs = (upper_incomplete_gamma(2.0, x_back) / math.gamma(2.0)) ** 0.5
        rhs = norm_u ** (0.5 - 1.0)
        worst_cr = max(worst_cr, abs(lhs - rhs) / rhs)
        R2 = choose_R("loglog", norm_u, {"N": 2})
        worst_cr = max(worst_cr, abs(R2 - 2.0 * norm_u ** 0.5) / R2)
    checks.append(_check("radius_selection_round_trip", worst_cr <= 1e-10,
                         1e-10 - worst_cr, {"max_rel_error": worst_cr}))

    # tabulated values stay positive, finite and monotone where claimed
    ER = [constant_E_R(2.0, 2.0, 1, R) for R in (3.0, 5.0, 9.0, 17.0)]
    mono_er = all(a > b > 0.0 for a, b in zip(ER, ER[1:]))
    c3g = constant_c3("gevrey", 2.0, 1, s=2.0)
    c3l = constant_c3("loglog", 2.0, 1)
    c4g = constant_c4("gevrey", 1, s=2.0)
    c4l = constant_c4("loglog", 1)
    vals = [c3g, c3l, c4g, c4l]
    checks.append(_check(
        "constant_tables", mono_er and all(
            math.isfinite(v) and v > 0 for v in vals),
        1.0 if mono_er else -1.0,
        {"E_R_gevrey": ER, "c3_gevrey": c3g, "c3_loglog": c3l,
         "c4_gevrey": c4g, "c4_loglog": c4l}))

    return {"checks": checks}


_FAMILIES = {
    "weights": verify_weights,
    "partition": verify_partition_family,
    "algebra": verify_algebra,
    "subalgebra": verify_subalgebra,
    "superposition": verify_superposition,
    "constants": verify_constants,
}

def cmd_verify(args, config: dict) -> int:
    started = time.time()
    families = list(_FAMILIES) if args.family == "all" else [args.family]
    results = {}
    seconds = {}
    all_passed = True
    for fam in families:
        t0 = time.time()
        result = _FAMILIES[fam](args.profile, config)
        seconds[fam] = time.time() - t0
        passed = all(c["passed"] for c in result["checks"])
        results[fam] = {**result, "passed": passed}
        all_passed = all_passed and passed
        _say(f"{'ok' if passed else 'FAIL'}: verify {fam} "
             f"({seconds[fam]:.1f}s)")
    return _emit(f"verify {args.family} --profile {args.profile}",
                 all_passed, {"profile": args.profile,
                              "families": results}, started,
                 {"family_seconds": {f: round(t, 3) for f, t in seconds.items()}})


# ---------------------------------------------------------------------------
# other subcommands
# ---------------------------------------------------------------------------


def cmd_norm(args, config: dict) -> int:
    started = time.time()
    f, header = load_function(args.file)
    weight = _parse_weight(args.weight)
    params = NormParams(p=float(args.p), q=float(args.q),
                        weight=weight, mode=args.mode,
                        k_max=args.k_max)
    rec = mod_norm_record(f, params)
    result = {
        "file": os.path.basename(args.file),
        "header": header,
        "value": rec["value"],
        "truncation_tail": rec["truncation_tail"],
        "params": rec["params"],
        "warnings": rec["warnings"],
    }
    # A norm that overflowed or came out NaN is not a result.
    passed = math.isfinite(rec["value"])
    return _emit(f"norm {os.path.basename(args.file)}", passed, result, started)


def cmd_constants_table(args, config: dict) -> int:
    started = time.time()
    ana = analyze_weight()
    rows = [
        {"name": "t0", "params": {}, "value": ana.t0},
        {"name": "p0", "params": {}, "value": ana.p0},
        {"name": "s_admissible", "params": {}, "value": ana.s_admissible},
        {"name": "deriv_sup", "params": {}, "value": ana.deriv_sup},
    ]
    for s in (1.5, 2.0):
        for q in (1.0, 2.0):
            for R in (3.0, 5.0, 9.0):
                rows.append({"name": "E_R",
                             "params": {"s": s, "q": q, "n": 1, "R": R},
                             "value": constant_E_R(s, q, 1, R)})
            rows.append({"name": "c3",
                         "params": {"regime": "gevrey", "q": q, "n": 1,
                                    "s": s},
                         "value": constant_c3("gevrey", q, 1, s=s)})
    for q in (1.0, 2.0):
        rows.append({"name": "c3",
                     "params": {"regime": "loglog", "q": q, "n": 1},
                     "value": constant_c3("loglog", q, 1)})
    for n in (1, 2):
        rows.append({"name": "c4", "params": {"regime": "gevrey", "n": n,
                                              "s": 2.0},
                     "value": constant_c4("gevrey", n, s=2.0)})
        rows.append({"name": "c4", "params": {"regime": "loglog", "n": n},
                     "value": constant_c4("loglog", n)})
    for N in (1, 2, 3):
        for R in (4.0, 16.0):
            rows.append({"name": "G_RN", "params": {"N": N, "R": R},
                         "value": constant_G_RN(N, R)})
    for alpha in (1.0, 2.0):
        for t in (1.0, 5.0, 20.0):
            rows.append({"name": "tail_integral",
                         "params": {"alpha": alpha, "t": t},
                         "value": upper_incomplete_gamma(alpha, t)})
    return _emit("constants --table", True, {"rows": rows}, started)


def cmd_special(args, config: dict) -> int:
    started = time.time()
    checks = []
    if args.function == "up":
        grid = up_grid()
        h = 2.0 ** -14
        integral = float(np.trapezoid(grid, dx=h))
        checks.append(_check("up_integral", abs(integral - 1.0) <= 1e-6,
                             1e-6 - abs(integral - 1.0),
                             {"integral": integral, "tolerance": 1e-6}))
        xs = np.linspace(0.0, 2.0, 801)
        d = float(np.max(np.abs(up_eval(xs, "convolution")
                                - up_eval(xs, "fourier"))))
        checks.append(_check("up_two_route_agreement", d <= 1e-5,
                             1e-5 - d, {"sup_difference": d,
                                        "tolerance": 1e-5}))
        resid = up_derivative_residual()
        checks.append(_check("up_derivative_identity", resid <= 1e-4,
                             1e-4 - resid, {"residual": resid,
                                            "tolerance": 1e-4}))
        margin = math.inf
        vals = {}
        for xi in (4.0, 8.0, 16.0, 32.0, 64.0):
            bound = up_decay_bound(xi)
            actual = abs(complex(up_fourier(np.array([xi]))[0]))
            margin = min(margin, bound - actual)
            vals[f"{xi:g}"] = {"transform": actual, "bound": bound}
        checks.append(_check("up_transform_decay_bound", margin >= 0.0,
                             margin, {"points": vals}))
    else:  # bump
        mu = args.mu
        fit = gevrey_bump_decay(mu, np.linspace(5.0, 200.0, 40))
        checks.append(_check("bump_decay_certificate",
                             fit["eps"] > 0 and fit["c"] > 0, fit["eps"],
                             {"mu": mu, **{k: fit[k] for k in
                                           ("s", "eps", "c", "xi_max")}}))
        # transform at 0 equals the area over sqrt(2 pi); conjugate symmetry
        v0 = complex(gevrey_bump_ft(mu, np.array([0.0]))[0])
        vps = gevrey_bump_ft(mu, np.array([3.0, 11.0]))
        vns = gevrey_bump_ft(mu, np.array([-3.0, -11.0]))
        sym = float(np.max(np.abs(vps - np.conj(vns))))
        checks.append(_check("bump_transform_symmetry",
                             abs(v0.imag) <= 1e-13 and sym <= 1e-13,
                             1e-13 - max(abs(v0.imag), sym),
                             {"value_at_zero": {"re": v0.real,
                                                "im": v0.imag},
                              "conjugate_residual": sym}))
    passed = all(c["passed"] for c in checks)
    return _emit(f"special {args.function} --check", passed,
                 {"checks": checks}, started)


def cmd_corpus_generate(args, config: dict) -> int:
    started = time.time()
    st = _family_settings("full", config, "corpus")
    # every file's samples are one array of N^n values: checked against
    # the sweeps' element cap before anything is allocated or written
    if st["N"] ** st["n"] > _MAX_ELEMENTS:
        raise ValueError(f"corpus key 'N' = {reprlib.repr(st['N'])} gives N^n samples per file "
                         f"for n = {st['n']}, over the cap of {_MAX_ELEMENTS}")
    outdir = args.out
    os.makedirs(outdir, exist_ok=True)
    entries = []
    for i in range(args.count):
        seed_i = args.seed + i
        B = st["bands"][i % len(st["bands"])]
        f = synthesize("random_bandlimited", n=st["n"], L=st["L"],
                       N=st["N"], seed=seed_i, B=B)
        name = f"fixture_{i:03d}.csv"
        save_function(f, os.path.join(outdir, name),
                      kind="random_bandlimited", seed=seed_i)
        entries.append({"name": name, "seed": seed_i, "B": B,
                        "n": st["n"], "L": st["L"], "N": st["N"]})
    manifest = {"seed": args.seed, "count": args.count, "files": entries}
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return _emit(f"corpus generate --seed {args.seed} --count {args.count}",
                 True, {"out": outdir, "manifest": manifest}, started)


def _extract_reports(doc, stem: str):
    """Yield (id, kind, passed, min_margin) from a report JSON document.

    Campaign outputs get position-derived ids (family:index:kind) so
    the same campaign merged twice deduplicates; bare single reports
    fall back to an explicit "id" field or the file name.  A command
    document whose result holds neither families nor checks (a saved
    norm, say) is one report carrying its own top-level verdict.
    """
    if isinstance(doc, dict) and "result" in doc and \
            isinstance(doc["result"], dict):
        fams = doc["result"].get("families")
        if isinstance(fams, dict):
            for fam, block in sorted(fams.items()):
                for i, c in enumerate(_check_list(block)):
                    yield _report_tuple(c, f"{fam}:{i}")
            return
        if "checks" not in doc["result"]:
            yield _report_tuple(doc, stem)
            return
        for i, c in enumerate(_check_list(doc["result"])):
            yield _report_tuple(c, f"checks:{i}")
        return
    if isinstance(doc, dict) and "checks" in doc:
        for i, c in enumerate(_check_list(doc)):
            yield _report_tuple(c, f"checks:{i}")
        return
    if isinstance(doc, dict) and "passed" in doc:
        yield _report_tuple(doc, stem)
        return
    raise ValueError("unrecognized report layout")


def _check_list(block) -> list:
    checks = block.get("checks", []) if isinstance(block, dict) else None
    if not isinstance(checks, list):
        raise ValueError("\"checks\" must be a list inside a JSON object")
    return checks


def _report_tuple(check, fallback_prefix: str):
    """(id, kind, passed, min_margin) of one check; ValueError when malformed."""
    if not isinstance(check, dict):
        raise ValueError(f"{fallback_prefix}: a check must be a JSON object")
    kind = str(check.get("kind", "unknown"))
    rid = check.get("id", f"{fallback_prefix}:{kind}")
    passed = check.get("passed")
    if not isinstance(passed, bool):
        raise ValueError(f"{rid}: \"passed\" must be true or false")
    margin = check.get("min_margin", 0.0)
    if not (isinstance(margin, float) or _finite(margin) or margin in ("inf", "-inf", "nan")):
        raise ValueError(f"{rid}: \"min_margin\" must be a number "
                         "or \"inf\", \"-inf\", \"nan\"")
    return (str(rid), kind, passed, float(margin))


def cmd_report_merge(args, config: dict) -> int:
    started = time.time()
    files = sorted(f for f in os.listdir(args.dir) if f.endswith(".json"))
    rows = []
    malformed = []
    for name in files:
        path = os.path.join(args.dir, name)
        try:
            with open(path) as fh:
                doc = json.load(fh)
            rows.extend(list(_extract_reports(doc, os.path.splitext(name)[0])))
        except (ValueError, RecursionError, OSError) as exc:
            malformed.append({"file": name, "error": str(exc)})
            _say(f"warning: skipping malformed report {name}: {exc}")

    # deduplicate by report id (first occurrence wins)
    seen = {}
    duplicates = []
    for row in rows:
        if row[0] in seen:
            duplicates.append(row[0])
            _say(f"warning: duplicate report id {row[0]} deduplicated")
        else:
            seen[row[0]] = row
    unique = list(seen.values())

    worst = {}
    for _, kind, _, margin in unique:
        worst[kind] = min(worst.get(kind, math.inf), margin)
    failing = [rid for rid, _, ok, _ in unique if not ok]
    # A file the merge could not read is a report it cannot vouch for.
    passed = not failing and not malformed
    result = {
        "files": len(files),
        "reports": len(unique),
        "passed": passed,
        "failing": failing,
        "duplicates": duplicates,
        "malformed": malformed,
        "worst_margins": worst,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
        },
    }
    return _emit(f"report merge {args.dir}", passed, result, started)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modspaces",
        description="Weighted modulation-space verification toolkit")
    parser.add_argument("--config", help="JSON config file overriding "
                                         "per-family defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="modulation norm of a stored function")
    p.add_argument("file")
    p.add_argument("--p", default="2")
    p.add_argument("--q", default="2")
    p.add_argument("--weight", default="polynomial:s=2")
    p.add_argument("--mode", choices=["lattice", "continuum"],
                   default="lattice")
    p.add_argument("--k-max", type=int, default=None)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("verify", help="run a verification family")
    p.add_argument("family", nargs="?", default="all",
                   choices=sorted(_FAMILIES) + ["all"])
    p.add_argument("--profile", choices=["quick", "full"], default="quick")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("constants", help="tabulate named constants")
    p.add_argument("--table", action="store_true", required=True)
    p.set_defaults(func=cmd_constants_table)

    p = sub.add_parser("special", help="special-function self checks")
    p.add_argument("function", choices=["up", "bump"])
    p.add_argument("--check", action="store_true", required=True)
    p.add_argument("--mu", type=float, default=-1.0)
    p.set_defaults(func=cmd_special)

    p = sub.add_parser("corpus", help="fixture corpus management")
    csub = p.add_subparsers(dest="corpus_command", required=True)
    g = csub.add_parser("generate", help="write a deterministic corpus")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--count", type=int, default=10)
    g.add_argument("--out", default="corpus")
    g.set_defaults(func=cmd_corpus_generate)

    p = sub.add_parser("report", help="report aggregation")
    rsub = p.add_subparsers(dest="report_command", required=True)
    m = rsub.add_parser("merge", help="merge a directory of report JSONs")
    m.add_argument("dir")
    m.set_defaults(func=cmd_report_merge)

    return parser


def _config_problem(config) -> str | None:
    """What is wrong with a parsed config, or None when nothing is.

    Every family in the config is checked, whichever command runs: its
    name, that it maps to an object, and each key and value against the
    key's row of _CONFIG.
    """
    if not isinstance(config, dict):
        return "must be a JSON object keyed by family name"
    for family, overrides in sorted(config.items()):
        if family not in _CONFIG:
            return (f"unknown family {family!r}; known families: "
                    f"{', '.join(sorted(_CONFIG))}")
        if not isinstance(overrides, dict):
            return f"family {family!r} must map to a JSON object"
        rows = _CONFIG[family]
        for key, value in sorted(overrides.items()):
            if key not in rows:
                return (f"unknown key {key!r} in family {family!r}; "
                        f"known keys: {', '.join(sorted(rows))}")
            what, test = rows[key][2]
            rejected = test(value)
            if rejected is not None:
                return f"key {key!r} in family {family!r} takes {what}, not {rejected}"
    return None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = {}
    if args.config:
        try:
            with open(args.config) as fh:
                config = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            _say(f"error: cannot read config {args.config}: {exc}")
            return 2
        problem = _config_problem(config)
        if problem:
            _say(f"error: config {args.config}: {problem}")
            return 2
    try:
        return args.func(args, config)
    except (ValueError, OSError) as exc:
        _say(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())

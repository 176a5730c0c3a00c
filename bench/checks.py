"""Output checks applied to every benchmark run.

`check_run` verifies one run's output directory on its own and against
the reference recorded from the first run of the set:

* every scenario in `report.json` reports `ok`;
* every file's sha256 on disk equals the hash the report gives for it;
* the fan-chart CSVs are byte-identical to the reference run's;
* the params and tsfit CSVs match the reference run's to 1e-9 relative.

`check_projection` recomputes the projection side of each scenario from
its own params and tsfit CSVs with an implementation that shares no code
with mortkit (a least-squares Kannisto fit, a backward life-table
recursion and a PCG64 normal stream):

* the fan-chart `best` rows (the zero-noise central path) match it to
  1e-9 relative;
* every quantile row lies where an empirical quantile of the same
  distribution can lie.  For probe p over n program paths, the value is
  an interpolation of the order statistics k and k+1 around (n-1)p, and
  F(X_(k)) ~ Beta(k, n+1-k); the oracle's empirical CDF at the value
  must fall inside the two Beta quantiles at ALPHA, widened by the
  oracle's own sampling error.  A different random stream passes; a
  life table off by a fraction of a year fails, at the latest in the
  first projection years, where the paths have barely spread.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np
import yaml
from scipy.special import betaincinv

#: Relative tolerance for deterministic outputs.
REL_TOL = 1e-9

#: Two-sided false-alarm probability of one quantile-row check.
ALPHA = 1e-9

#: Standard errors of slack for the oracle's own empirical CDF.
ORACLE_Z = 6.0

#: Paths the oracle simulates per scenario.
ORACLE_PATHS = 2000

#: Kannisto fit ages and the closure's top age, as the model defines them.
FIT_LO, FIT_HI, TOP_AGE = 80, 90, 120

GENDERS = ("M", "F")
KINDS = ("params", "tsfit", "fanchart")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _close(a, b) -> np.ndarray:
    return np.abs(a - b) <= REL_TOL * np.maximum(np.abs(a), np.abs(b))


def _read_csv(path) -> list:
    with Path(path).open(newline="") as handle:
        return list(csv.reader(handle))[1:]


def _numbers(path) -> np.ndarray:
    """Every value column of a params or tsfit CSV, in file order."""
    return np.array([float(row[-1]) for row in _read_csv(path)])


def load_report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text())


def record_reference(out: Path) -> dict:
    """{label: {"fanchart": sha256, "params": values, "tsfit": values}}
    for every scenario of a run that reported ok."""
    reference = {}
    for scenario in load_report(out)["scenarios"]:
        if scenario["status"] != "ok":
            continue
        files = scenario["files"]
        reference[scenario["label"]] = {
            "fanchart": sha256(out / files["fanchart"]),
            "params": _numbers(out / files["params"]),
            "tsfit": _numbers(out / files["tsfit"]),
        }
    return reference


def check_run(out: Path, reference: dict) -> list:
    """Problems found in one run's outputs; empty when all checks pass."""
    try:
        report = load_report(out)
    except (OSError, ValueError) as exc:
        return [f"report.json unreadable: {exc}"]
    problems = []
    labels = []
    for scenario in report["scenarios"]:
        label = scenario["label"]
        labels.append(label)
        found = len(problems)
        if scenario["status"] != "ok":
            problems.append(f"{label}: {scenario['status']}: {scenario.get('error')}")
            continue
        files = scenario["files"]
        if set(files) != set(KINDS):
            problems.append(f"{label}: report lists files {sorted(files)}")
            continue
        for name in files.values():
            path = out / name
            if not path.is_file():
                problems.append(f"{label}: {name} missing")
            elif sha256(path) != scenario["hashes"].get(name):
                problems.append(f"{label}: {name} does not match its reported hash")
        if len(problems) > found or label not in reference:
            continue
        ref = reference[label]
        if sha256(out / files["fanchart"]) != ref["fanchart"]:
            problems.append(f"{label}: fan chart differs from the reference run")
        for kind in ("params", "tsfit"):
            values = _numbers(out / files[kind])
            if values.shape != ref[kind].shape \
                    or not _close(values, ref[kind]).all():
                problems.append(f"{label}: {kind} differs from the reference run")
    if sorted(labels) != sorted(reference):
        problems.append(f"scenarios {sorted(labels)} differ from the reference "
                        f"run's {sorted(reference)}")
    return problems


# ---------------------------------------------------------------------------
# Independent projection oracle
# ---------------------------------------------------------------------------

def _read_params(path) -> dict:
    """{gender: {name: values in index order}} from a params CSV."""
    out = {g: {} for g in GENDERS}
    for name, gender, index, value in _read_csv(path):
        out[gender].setdefault(name, []).append((int(index), float(value)))
    return {g: {name: np.array([v for _, v in sorted(pairs)])
                for name, pairs in table.items()} for g, table in out.items()}


def _read_tsfit(path):
    values = {name: float(value) for name, value in _read_csv(path)}
    C = np.empty((4, 4))
    for i in range(4):
        for j in range(i, 4):
            C[i, j] = C[j, i] = values[f"C_{i + 1}{j + 1}"]
    return values, C


def _read_fanchart(path) -> dict:
    """{(quantity, gender, age, year): {probe: value}}; probe "best" is the
    central path, the others are floats."""
    rows = {}
    for quantity, gender, age, year, probe, value in _read_csv(path):
        key = (quantity, gender, int(age) if age else None, int(year))
        probe = probe if probe == "best" else float(probe)
        rows.setdefault(key, {})[probe] = float(value)
    return rows


def _factor(C) -> np.ndarray:
    try:
        return np.linalg.cholesky(C)
    except np.linalg.LinAlgError:
        eigval, eigvec = np.linalg.eigh(C)
        return eigvec * np.sqrt(np.clip(eigval, 0.0, None))


def _period_effects(tsfit, jump_off, eps):
    """K and kappa per gender, (rows, years); column 0 is the jump-off."""
    n, H, _ = eps.shape
    K, kappa = {}, {}
    for col, g in enumerate(GENDERS):
        k = np.empty((n, H + 1))
        d = np.empty((n, H + 1))
        k[:, 0], d[:, 0] = jump_off[g]
        for h in range(H):
            k[:, h + 1] = k[:, h] + tsfit[f"theta_{g}"] + eps[:, h, 2 * col]
            d[:, h + 1] = tsfit[f"c_{g}"] + tsfit[f"phi_{g}"] * d[:, h] \
                + eps[:, h, 2 * col + 1]
        K[g], kappa[g] = k, d
    return K, kappa


def _closed_forces(mu, a0) -> np.ndarray:
    """Forces over ages a0..120: the model ages, then a logistic in age
    fitted by least squares to logit(mu) on ages 80..90."""
    x = np.arange(FIT_LO, FIT_HI + 1, dtype=float)
    fit = mu[:, FIT_LO - a0:FIT_HI - a0 + 1]
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, np.log(fit / (1.0 - fit)).T, rcond=None)
    top = a0 + mu.shape[1]
    ext = np.arange(top, TOP_AGE + 1, dtype=float)
    tail = 1.0 / (1.0 + np.exp(-(coef[0][:, None] + coef[1][:, None] * ext)))
    return np.concatenate([mu, tail], axis=1)


def _expectancy(mu) -> np.ndarray:
    """Expected years lived from every age to 120 under piecewise-constant
    forces (trailing axis = ages): e_x = (1-e^-mu_x)/mu_x + e^-mu_x e_(x+1)."""
    e = np.empty_like(mu)
    ahead = np.zeros(mu.shape[:-1])
    for i in range(mu.shape[-1] - 1, -1, -1):
        m = mu[..., i]
        survive = np.exp(-m)
        ahead = np.where(m > 0, (1.0 - survive) / np.where(m > 0, m, 1.0), 1.0) \
            + survive * ahead
        e[..., i] = ahead
    return e


def _oracle_series(cfg, params, tsfit, C, rng) -> dict:
    """{(quantity, gender, age): (years, values)}; `values` is
    (1 + ORACLE_PATHS, len(years)) with the central path in row 0."""
    a0 = cfg["ages"]["min"]
    years = np.arange(cfg["years"]["last"], cfg["simulation"]["horizon"] + 1)
    H = len(years) - 1
    report_ages = cfg["report"]["ages"]
    cohort_ages = cfg["report"].get("cohort_ages") or []
    jump_off = {g: (params[g]["K"][-1], params[g]["kappa"][-1]) for g in GENDERS}
    eps = np.concatenate([
        np.zeros((1, H, 4)),
        rng.standard_normal((ORACLE_PATHS, H, 4)) @ _factor(C).T,
    ])
    K, kappa = _period_effects(tsfit, jump_off, eps)
    series = {}
    for g in GENDERS:
        p = params[g]
        series[("K", g, None)] = (years, K[g])
        series[("kappa", g, None)] = (years, kappa[g])
        q = {a: np.empty_like(K[g]) for a in report_ages}
        e_per = {a: np.empty_like(K[g]) for a in report_ages}
        diag = {a: [] for a in cohort_ages}
        for j in range(len(years)):
            mu = np.exp((p["A"] + p["alpha"])[None, :]
                        + K[g][:, j, None] * p["B"][None, :]
                        + kappa[g][:, j, None] * p["beta"][None, :])
            closed = _closed_forces(mu, a0)
            e = _expectancy(closed)
            for age in report_ages:
                q[age][:, j] = -np.expm1(-mu[:, age - a0])
                e_per[age][:, j] = e[:, age - a0]
            for age in cohort_ages:
                if j < TOP_AGE - age + 1:
                    diag[age].append(closed[:, age + j - a0])
        for age in report_ages:
            series[("q", g, age)] = (years, q[age])
            series[("e_per", g, age)] = (years, e_per[age])
        for age in cohort_ages:
            e_coh = _expectancy(np.stack(diag[age], axis=1))[:, :1]
            series[("e_coh", g, age)] = (years[:1], e_coh)
    return series


def _quantile_band(p, n):
    """Bounds on F(value) for the probe-p quantile of n paths."""
    h = (n - 1) * p
    lo, hi = math.floor(h), math.ceil(h)
    return (float(betaincinv(lo + 1, n - lo, ALPHA / 2)),
            float(betaincinv(hi + 1, n - hi, 1 - ALPHA / 2)))


def _quantiles_ok(values, samples, p, band) -> np.ndarray:
    """Per column: does `values` pass as the probe-p quantile of a sample
    from the distribution the oracle's `samples` (paths x columns) draw?"""
    exact = _close(values, np.quantile(samples, p, axis=0))
    lower, upper = band
    f_mid = min(max(0.5, lower), upper)
    n_o = samples.shape[0]
    slack = ORACLE_Z * math.sqrt(f_mid * (1.0 - f_mid) / n_o) + 1.0 / n_o
    F = (np.count_nonzero(samples < values, axis=0)
         + 0.5 * np.count_nonzero(samples == values, axis=0)) / n_o
    return exact | ((lower - slack <= F) & (F <= upper + slack))


def check_projection(out: Path, config_path: Path, seed: int) -> list:
    """Problems found by the independent oracle in every ok scenario."""
    cfg = yaml.safe_load(Path(config_path).read_text())
    n = cfg["simulation"]["n_paths"]
    rng = np.random.default_rng([seed, 0x0AC1E])
    bands = {}
    problems = []
    for scenario in load_report(out)["scenarios"]:
        if scenario["status"] != "ok":
            continue
        label, files = scenario["label"], scenario["files"]
        params = _read_params(out / files["params"])
        tsfit, C = _read_tsfit(out / files["tsfit"])
        got = _read_fanchart(out / files["fanchart"])
        want = _oracle_series(cfg, params, tsfit, C, rng)
        expected = {(*key, int(y)) for key, (years, _) in want.items() for y in years}
        if set(got) != expected:
            problems.append(f"{label}: fan chart has {len(got)} rows, expected "
                            f"{len(expected)}")
            continue
        bad_best, bad_quantile = [], []
        for key, (years, values) in want.items():
            rows = [got[(*key, int(y))] for y in years]
            best = np.array([row["best"] for row in rows])
            bad_best += [(*key, int(y)) for y, ok
                         in zip(years, _close(best, values[0])) if not ok]
            for p in sorted(set(rows[0]) - {"best"}):
                if p not in bands:
                    bands[p] = _quantile_band(p, n)
                got_p = np.array([row[p] for row in rows])
                ok = _quantiles_ok(got_p, values[1:], p, bands[p])
                bad_quantile += [(*key, int(y), p) for y, good in zip(years, ok)
                                 if not good]
        if bad_best:
            problems.append(f"{label}: {len(bad_best)} best rows differ from the "
                            f"oracle's central path, first {bad_best[0]}")
        if bad_quantile:
            problems.append(f"{label}: {len(bad_quantile)} quantile rows outside "
                            f"the Monte-Carlo band, first {bad_quantile[0]}")
    return problems

"""Readers of the params and tsfit CSVs the pipeline writes, the inverses
of `mortkit.lilee.export_params_csv` and `mortkit.dynamics.export_fit_csv`;
the package itself never reads its outputs back."""
import csv
from pathlib import Path

import numpy as np

from mortkit.data import AgeRange, YearRange
from mortkit.dynamics import PSI_NAMES
from mortkit.errors import ParseError
from mortkit.lilee import _PARAM_FIELDS, LiLeeParams


def import_params_csv(path) -> dict:
    """Inverse of `mortkit.lilee.export_params_csv`."""
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != ("param", "gender", "index", "value"):
        raise ParseError(f"{path}: expected header param,gender,index,value")
    table = {}
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not f.strip() for f in row):
            continue
        name, gender, idx, value = row
        if name not in _PARAM_FIELDS:
            raise ParseError(f"{path}:{lineno}: unknown param {name!r}")
        table.setdefault((gender, name), []).append((int(idx), float(value)))
    genders = sorted({g for g, _ in table})
    out = {}
    for gender in genders:
        arrays = {}
        indexes = {}
        for name in _PARAM_FIELDS:
            entries = sorted(table.get((gender, name), ()))
            if not entries:
                raise ParseError(f"{path}: missing {name} for gender {gender}")
            indexes[name] = [i for i, _ in entries]
            arrays[name] = np.array([v for _, v in entries])
        ages = AgeRange(indexes["A"][0], indexes["A"][-1])
        years = YearRange(indexes["K"][0], indexes["K"][-1])
        out[gender] = LiLeeParams(
            ages=ages, years=years, A=arrays["A"], B=arrays["B"], K=arrays["K"],
            alpha=arrays["alpha"], beta=arrays["beta"], kappa=arrays["kappa"],
        )
    return out


def import_fit_csv(path) -> tuple[np.ndarray, np.ndarray]:
    """Read back (psi, C) from `mortkit.dynamics.export_fit_csv` output."""
    path = Path(path)
    with path.open(newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != ("param", "value"):
        raise ParseError(f"{path}: expected header param,value")
    values = {name: float(value) for name, value in rows[1:] if name}
    try:
        psi = np.array([values[name] for name in PSI_NAMES])
        C = np.zeros((4, 4))
        for i in range(4):
            for j in range(i, 4):
                C[i, j] = C[j, i] = values[f"C_{i + 1}{j + 1}"]
    except KeyError as exc:
        raise ParseError(f"{path}: missing entry {exc}") from exc
    return psi, C

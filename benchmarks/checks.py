"""Output checks: each job's exit code and values against the stored reference.

A job fails if any of these does not hold:
  - a CLI job exits 0 (validate's 2 and asymptotics' 3 count as failures);
  - its reference columns (closed form, Schur, dense, select picks, the
    asymptotics report) are within RTOL of the values stored from the seed
    commit in reference.json;
  - a Monte Carlo estimate is within Z_LIMIT standard errors of the closed form;
  - the posterior-mean MSE is at least the bound minus two standard errors.

CSV bytes are compared with the seed's only as an informational count.
"""

from __future__ import annotations

import csv
import hashlib
import math

RTOL = 1e-8
Z_LIMIT = 4.0  # the CLI's validate limit at the seed commit


def read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _cell(text: str):
    return None if text == "" else float(text)


def _close(value, ref) -> bool:
    if value is None or ref is None:
        return value is None and ref is None
    return abs(value - ref) <= RTOL * abs(ref)


def reference_entry(rows: list[dict], columns) -> dict:
    """What reference.json stores for a CSV job."""
    return {"rows": len(rows), "columns": {c: [_cell(r[c]) for r in rows] for c in columns}}


def check_csv(rows: list[dict], ref: dict) -> list[str]:
    if len(rows) != ref["rows"]:
        return [f"{len(rows)} rows, reference has {ref['rows']}"]
    problems = []
    for column, expected in ref["columns"].items():
        for i, (row, want) in enumerate(zip(rows, expected)):
            got = _cell(row[column])
            if not _close(got, want):
                problems.append(f"row {i} {column} = {got!r}, reference {want!r}")
    for i, row in enumerate(rows):
        if "z_score" in row and not abs(float(row["z_score"])) <= Z_LIMIT:
            problems.append(f"row {i} |z| = {abs(float(row['z_score'])):.2f} > {Z_LIMIT}")
    return problems


def check_cli(rc, csv_path: str, ref: dict) -> list[str]:
    """Problems with one CLI job's exit code and CSV; empty when it passed."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        rows = read_csv(csv_path)
    except OSError as exc:
        return [f"cannot read output: {exc}"]
    return check_csv(rows, ref)


def check_mc_narrow(result: dict, ref: dict) -> list[str]:
    problems = []
    if not _close(result["closed_form"], ref["closed_form"]):
        problems.append(f"closed form {result['closed_form']!r}, reference {ref['closed_form']!r}")
    z = (result["estimate"] - result["closed_form"]) / result["std_err"]
    if not abs(z) <= Z_LIMIT:
        problems.append(f"MC estimate |z| = {abs(z):.2f} > {Z_LIMIT}")
    return problems


def check_posterior(result: dict, ref: dict) -> list[str]:
    problems = []
    if not _close(result["bound"], ref["bound"]):
        problems.append(f"bound {result['bound']!r}, reference {ref['bound']!r}")
    floor = result["bound"] - 2.0 * result["std_err"]
    if not (math.isfinite(result["estimate"]) and result["estimate"] >= floor):
        problems.append(f"posterior MSE {result['estimate']!r} < bound - 2 se = {floor!r}")
    return problems

"""Correctness gate and quality figures read back from a run directory.

Everything here reads the files a repetition left on disk (report.csv,
membership_*.csv, models/*.json, evaluation.csv) and the certificates in the
returned ``ExperimentResult``; nothing is recomputed by the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np


class GateFailure(Exception):
    """A correctness check failed; the message names the check."""


def digest_outputs(out_dir) -> dict:
    """{relative path: sha256} of every file a repetition wrote."""
    out_dir = Path(out_dir)
    return {str(p.relative_to(out_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.rglob("*")) if p.is_file()}


def bytes_written(out_dir) -> int:
    return sum(p.stat().st_size for p in Path(out_dir).rglob("*") if p.is_file())


def check_identical(first: dict, digests: dict, repetition: int) -> None:
    """Criterion 10 at benchmark scale: every repetition of a config writes
    the same bytes as its first."""
    if digests != first:
        changed = sorted(k for k in first.keys() | digests.keys()
                         if first.get(k) != digests.get(k))
        raise GateFailure(f"byte-identity: repetition {repetition} differs from the "
                          f"first run of its config in {changed[:5]}")


def bound(eps: float, n_test: int) -> float:
    """Acceptance criterion 09's limit on a selected row's joint_freq."""
    return eps + 3.0 * math.sqrt(eps * (1.0 - eps) / n_test)


def _read_csv(path: Path) -> list:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def _membership(path: Path) -> tuple:
    """(labels, {member index: inside column}) from one membership file."""
    header = path.read_text().split("\n", 1)[0].split(",")
    table = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    columns = {int(name.removeprefix("member_")): table[:, k]
               for k, name in enumerate(header) if name.startswith("member_")}
    return table[:, 1], columns


def check_run(out_dir, result, evaluate: bool) -> dict:
    """Gate one repetition's outputs; returns its quality figures.

    Raises ``GateFailure`` naming the first failed check.  The figures are
    the attempted and failed member counts over (variant, eps) and, per
    selected row, joint_freq as a share of the criterion-09 bound and the
    share of safe test points inside the region.
    """
    out_dir = Path(out_dir)
    for (variant, eps), family in result.family_results.items():
        cert = family.selected.certificate
        if cert is None or not cert.certified:
            raise GateFailure(f"certified: selected {variant} member at eps={eps} "
                              "is not certified")
    if not result.all_certified:
        raise GateFailure("certified: a plan did not certify")

    rows = _read_csv(out_dir / "report.csv")
    members = failed = violations = 0
    bound_use, coverage, selected = [], [], {}
    for (variant, eps), family in result.family_results.items():
        labels, inside = _membership(out_dir / f"membership_{variant}_eps_{eps!r}.csv")
        n_test = labels.size
        unsafe, safe = labels == -1, labels == 1
        for row in rows:
            if row["variant"] != variant or float(row["eps"]) != eps:
                continue
            members += 1
            if row["rho_eps"] == "":
                failed += 1
                continue
            column = inside[int(row["member"])]
            joint = int((column.astype(bool) & unsafe).sum()) / n_test
            if repr(joint) != row["joint_freq"]:
                raise GateFailure(
                    f"joint_freq: {variant} eps={eps} member {row['member']} reports "
                    f"{row['joint_freq']}, membership file gives {joint!r}")
            if row["selected"] == "1":
                limit = bound(eps, n_test)
                violations += joint > limit
                bound_use.append(joint / limit)
                coverage.append(int((column.astype(bool) & safe).sum()) / max(1, safe.sum()))
                selected[variant, eps] = row
    if members != len(rows):
        raise GateFailure(f"report: {len(rows)} rows but {members} match a family")
    if violations:
        raise GateFailure(f"bound: {violations} selected rows exceed "
                          "eps + 3*sqrt(eps(1-eps)/n_test)")
    if evaluate:
        check_evaluation(out_dir, selected)
    return {"members": members, "members_failed": failed, "bound_violations": violations,
            "bound_use": bound_use, "safe_coverage": coverage}


def check_evaluation(out_dir: Path, selected: dict) -> None:
    """evaluation.csv must repeat the selected report rows cell for cell.

    The one exception is the kernel label: report.csv labels the configured
    kernel (``gaussian(gamma=auto)``), evaluation.csv the saved model's
    resolved one (``gaussian(gamma=0.5)``), so only the kernel kinds are
    compared.
    """
    rows = _read_csv(out_dir / "evaluation.csv")
    if len(rows) != len(selected):
        raise GateFailure(f"evaluation: {len(rows)} rows for {len(selected)} selected models")
    for row in rows:
        report = selected.get((row["variant"], float(row["eps"])))
        if report is None:
            raise GateFailure(f"evaluation: no selected report row for {row['variant']} "
                              f"eps={row['eps']}")
        differ = [k for k in row if k != "kernel" and row[k] != report[k]]
        if row["kernel"].split("(")[0] != report["kernel"].split("(")[0]:
            differ.append("kernel")
        if differ:
            raise GateFailure(f"evaluation: {row['variant']} eps={row['eps']} differs from "
                              f"report.csv in {differ}")

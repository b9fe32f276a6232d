"""Correctness gate: compare a job's exit code and stdout with the recorded reference.

The reference (``reference.json``, written by ``record.py``) holds one record
per pool entry.  A record keeps:

* ``exit``: the exit code;
* ``exact_sha256``: a digest of every exact field of the document, compared
  byte for byte (coefficient ``num``/``den``/``validity``, ``kappa``,
  ``poly``, ``classification``, the band ``N``, and every other field that is
  not listed below);
* ``floats``: the growth diagnostics ``C_estimate`` and ``C1_min``, compared at
  ``FLOAT_RTOL`` relative;
* ``approximate``: oracle-filled coefficients (validity ``approximate``),
  compared at ``APPROX_RTOL`` relative;
* ``checks``: for ``verify`` jobs, the PASS/FAIL of each named check and the
  summary line.  Check details hold float deviations and are not compared.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")

# C_estimate and C1_min come from log-space arithmetic that is accurate to
# about 12 significant digits; a change of summation order may move the last
# few of them, nothing more.
FLOAT_RTOL = 1e-9
# The README's accuracy of the spectral oracle.
APPROX_RTOL = 1e-6
_GROWTH_FLOATS = ("C_estimate", "C1_min")


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _split_coefficients(rows: list[dict]) -> dict:
    """Move the values of approximate entries out of ``rows``; return them by n."""
    approx = {}
    for row in rows:
        if row["validity"] == "approximate":
            approx[str(row["n"])] = f"{row.pop('num')}/{row.pop('den')}"
            row.pop("decimal", None)
    return approx


def digest(args: tuple[str, ...] | list[str], returncode: int, stdout: bytes) -> dict:
    """The reference record of one job output (see the module docstring)."""
    record: dict = {"exit": returncode}
    if returncode not in (0, 1):
        return record
    text = stdout.decode()
    if args[0] == "verify":
        lines = text.splitlines()
        checks = {}
        for line in lines[:-1]:
            status, _, rest = line.partition("] ")
            checks[rest.partition(": ")[0]] = status.lstrip("[")
        record["checks"] = checks
        record["summary"] = lines[-1] if lines else ""
        return record
    if "--format" in args and args[args.index("--format") + 1] == "csv":
        rows = list(csv.DictReader(io.StringIO(text)))
        record["approximate"] = _split_coefficients(rows)
        record["exact_sha256"] = _sha256(rows)
        return record
    doc = json.loads(text)
    if doc.get("kind") == "coefficients":
        record["approximate"] = _split_coefficients(doc["coefficients"])
    if doc.get("kind") == "growth":
        record["floats"] = {k: doc["growth"].pop(k) for k in _GROWTH_FLOATS}
    record["exact_sha256"] = _sha256(doc)
    return record


def _close(a: float | Fraction, b: float | Fraction, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def compare(expected: dict, actual: dict) -> str | None:
    """None when ``actual`` matches ``expected``, else the reason it does not."""
    if actual["exit"] != expected["exit"]:
        return f"exit code {actual['exit']}, expected {expected['exit']}"
    for key in ("checks", "summary", "exact_sha256"):
        if actual.get(key) != expected.get(key):
            return f"{key} differs"
    floats, ref_floats = actual.get("floats", {}), expected.get("floats", {})
    if floats.keys() != ref_floats.keys():
        return "float fields differ"
    for k, ref in ref_floats.items():
        if not (math.isfinite(floats[k]) and _close(floats[k], ref, FLOAT_RTOL)):
            return f"{k} = {floats[k]!r}, expected {ref!r} (rtol {FLOAT_RTOL})"
    approx, ref_approx = actual.get("approximate", {}), expected.get("approximate", {})
    if approx.keys() != ref_approx.keys():
        return "approximate entries differ"
    for n, ref in ref_approx.items():
        if not _close(Fraction(approx[n]), Fraction(ref), APPROX_RTOL):
            return f"approximate A_{n} = {approx[n]}, expected {ref} (rtol {APPROX_RTOL})"
    return None


def check(reference: dict, args, returncode: int | None, stdout: bytes) -> str | None:
    """None when a finished job matches its reference record, else the reason."""
    if returncode is None:
        return "timeout"
    expected = reference.get(" ".join(args))
    if expected is None:
        return "no reference record"
    try:
        return compare(expected, digest(args, returncode, stdout))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"

"""Serialization of result tables to machine-readable and display formats.

Each table is emitted in every format into the run directory:
json and csv carry full round-trip precision and identical numbers, markdown
displays four decimals and mirrors the publication layouts (descriptives,
correlation matrix with probabilities underneath, unit-root table, and
estimation tables as Coefficient/Prob column pairs).
"""

import csv
import io
import itertools
import json
import math
import os
from types import MappingProxyType
from typing import NamedTuple

from .diagnostics import (CorrelationResult, StationarityRow, TestResult, VariableSummary,
                          _pvalue_bracket)
from .errors import IoFailure, SchemaMismatch
from .ingest import _csv_cell, _csv_text, _read_text
from .models import EstimationReport

SCHEMA_VERSION = "1"

# publication-style display labels per model family, in the published row order
_VALUE_LABELS = {"C": "C", "X": "X", "Marin": "Marin", "Age": "AGE",
                 "Size": "Size", "Lev": "Lev", "OW": "OW", "OW*Marin": "OW*Marin"}
_RISK_LABELS = {"C": "C", "Marin": "Marin", "Age": "AGE", "Size": "SIZ",
                "Lev": "LEVR", "OW": "OW", "OW*Marin": "OW*Marin"}


class ReportBundle(NamedTuple):
    """The tables of one pipeline run plus run metadata; a table left out is not rendered."""

    estimates: list[EstimationReport]
    descriptives_table: list[VariableSummary] | None = None
    correlation_table: CorrelationResult | None = None
    stationarity_table: list[StationarityRow] | None = None
    metadata: dict = MappingProxyType({})


def _num(value):
    """JSON-safe number: NaN/inf become null."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _csv_value(value) -> str:
    """A table value as a csv cell: a float by its repr, None and a non-finite float empty."""
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else ""
    return "" if value is None else _csv_cell(str(value))


def _fmt4(value) -> str:
    if value is None:
        return ""
    value = float(value)
    return f"{value:.4f}" if math.isfinite(value) else ""


def _test_dict(test: TestResult | None):
    if test is None:
        return None
    return {
        "name": test.name,
        "statistic": _num(test.statistic),
        "p_value": _num(test.p_value),
        "critical_values": ({k: _num(v) for k, v in test.critical_values.items()}
                            if test.critical_values else None),
        "decision": test.decision,
        "detail": test.detail,
    }


# --- per-table builders -------------------------------------------------------

def _descriptives_json(rows: list[VariableSummary]) -> str:
    return _json_text({
        "schema_version": SCHEMA_VERSION,
        "table": "descriptives",
        "rows": [{"variable": r.name, "n": r.n, "minimum": _num(r.minimum),
                  "maximum": _num(r.maximum), "mean": _num(r.mean),
                  "std": _num(r.std), "flag": r.flag} for r in rows],
    })


def _descriptives_csv(rows: list[VariableSummary]) -> str:
    return _to_csv([["variable", "n", "minimum", "maximum", "mean", "std"],
                    *([r.name, r.n, r.minimum, r.maximum, r.mean, r.std] for r in rows)])


def _descriptives_md(rows: list[VariableSummary]) -> str:
    lines = ["# Descriptive statistics", "",
             "| Variable | N | Minimum | Maximum | Mean | Std. Deviation |",
             "| --- | --- | --- | --- | --- | --- |"]
    for r in rows:
        lines.append(f"| {r.name} | {r.n} | {_fmt4(r.minimum)} | {_fmt4(r.maximum)} "
                     f"| {_fmt4(r.mean)} | {_fmt4(r.std)} |")
    return "\n".join(lines) + "\n"


def _correlations_json(c: CorrelationResult) -> str:
    return _json_text({
        "schema_version": SCHEMA_VERSION,
        "table": "correlations",
        "variables": list(c.variables),
        "r": [[_num(v) for v in row] for row in c.r],
        "p": [[_num(v) for v in row] for row in c.p],
        "n": [[int(v) for v in row] for row in c.n],
    })


def _correlations_csv(c: CorrelationResult) -> str:
    out = [["variable_a", "variable_b", "r", "p", "n"]]
    for i, a in enumerate(c.variables):
        for j, b in enumerate(c.variables[:i + 1]):
            out.append([a, b, float(c.r[i, j]), float(c.p[i, j]), int(c.n[i, j])])
    return _to_csv(out)


def _correlations_md(c: CorrelationResult) -> str:
    header = "| Probability | " + " | ".join(c.variables) + " |"
    sep = "| --- |" + " --- |" * len(c.variables)
    lines = ["# Variable correlation matrix", "", header, sep]
    for i, name in enumerate(c.variables):
        # the r row, then its probabilities under it; blank above the diagonal
        for label, matrix in ((name, c.r), ("", c.p)):
            cells = [_fmt4(float(matrix[i, j])) if j <= i else "" for j in range(len(c.variables))]
            lines.append(f"| {label} | " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


def _stationarity_json(rows: list[StationarityRow]) -> str:
    return _json_text({
        "schema_version": SCHEMA_VERSION,
        "table": "stationarity",
        "rows": [{"variable": r.variable,
                  "level": _test_dict(r.level),
                  "difference": _test_dict(r.difference),
                  "order": r.order,
                  "fisher": _test_dict(r.fisher)} for r in rows],
    })


def _stationarity_csv(rows: list[StationarityRow]) -> str:
    out = [["variable", "level_statistic", "difference_statistic", "order",
            "fisher_statistic", "fisher_p"]]
    for r in rows:
        out.append([r.variable, r.level.statistic if r.level else None,
                    r.difference.statistic if r.difference else None, r.order,
                    r.fisher.statistic if r.fisher else None,
                    r.fisher.p_value if r.fisher else None])
    return _to_csv(out)


def _stationarity_md(rows: list[StationarityRow]) -> str:
    lines = ["# Unit-root tests", "",
             "| Variable | Level | 1 Difference | Order |",
             "| --- | --- | --- | --- |"]
    for r in rows:
        level = "-"
        if r.level:
            bracket = _pvalue_bracket(r.level.statistic, r.level.critical_values)
            level = f"{_fmt4(r.level.statistic)} ({bracket})"
        diff = _fmt4(r.difference.statistic) if r.difference else "-"
        lines.append(f"| {r.variable} | {level} | {diff} | {r.order} |")
    lines += ["", "Harris-Tzavalis z on the firms of the modal length (lag 0, i.i.d. "
              "errors, N large with T fixed), brackets from normal critical values; "
              "per-firm ADF Fisher combination reported in the machine-readable formats. "
              "With few firms the normal limit over-rejects: at N = 20 and T = 9, 7.3-7.8% "
              "of 10 000 simulated random-walk panels were rejected at the nominal 5%."]
    return "\n".join(lines) + "\n"


def _estimation_json(report: EstimationReport, companion=None) -> str:
    fit = report.fit
    rows = [{"variable": variable, "coefficient": _num(coefficient),
             "std_error": _num(std_error), "prob": _num(prob)}
            for variable, coefficient, std_error, prob in report.rows]
    diagnostics = {t.name: _test_dict(t) for t in report.diagnostics}
    f_statistic, f_pvalue = report.f_test
    return _json_text({
        "schema_version": SCHEMA_VERSION,
        "table": report.table,
        "model_id": report.model_id,
        "marin_variant": report.marin_variant,
        "r_squared": _num(fit.r_squared),
        "r_squared_label": fit.r_squared_kind,
        "f_statistic": _num(f_statistic),
        "f_pvalue": _num(f_pvalue),
        "nobs": fit.nobs,
        "n_input_rows": report.n_input_rows,
        "n_excluded": report.n_excluded,
        "hausman_decision": report.hausman_decision,
        "dropped_columns": list(report.dropped_columns),
        "diagnostics": diagnostics,
        "notes": list(report.notes),
        "rows": rows,
    })


def _estimation_csv(report: EstimationReport, companion=None) -> str:
    return _to_csv([["variable", "coefficient", "std_error", "prob"], *report.rows,
                    ["R-squared", report.fit.r_squared, None, None]])


def _estimation_md(report: EstimationReport, companion: EstimationReport | None = None) -> str:
    """Markdown estimation table in Coefficient/Prob column pairs.

    When a companion (direct) report is supplied the table mirrors the
    two-model layout with blanks where the direct model has no row.
    """
    labels = _VALUE_LABELS if report.model_id.startswith("value") else _RISK_LABELS
    main = {v: (c, p) for v, c, _, p in report.rows}
    other = {v: (c, p) for v, c, _, p in companion.rows} if companion else None

    lines = [f"# {_MD_TITLES.get(report.table, report.table)}", ""]
    if other is not None:
        lines += ["| Variable | Direct Model Coefficient | Direct Model Prob. "
                  "| Moderating Model Coefficient | Moderating Model Prob. |",
                  "| --- | --- | --- | --- | --- |"]
    else:
        lines += ["| Variable | Coefficient | Prob. |", "| --- | --- | --- |"]

    for key, label in labels.items():
        if key not in main and (other is None or key not in other):
            continue
        main_c, main_p = main.get(key, (None, None))
        if other is not None:
            oc, op = other.get(key, (None, None))
            lines.append(f"| {label} | {_fmt4(oc)} | {_fmt4(op)} "
                         f"| {_fmt4(main_c)} | {_fmt4(main_p)} |")
        else:
            lines.append(f"| {label} | {_fmt4(main_c)} | {_fmt4(main_p)} |")

    r2 = _fmt4(report.fit.r_squared)
    if other is not None:
        lines.append(f"| R-squared | {_fmt4(companion.fit.r_squared)} |  | {r2} |  |")
    else:
        lines.append(f"| R-squared | {r2} |  |")

    notes = [f"R-squared is the {report.fit.r_squared_kind} R-squared; "
             f"covariance: {report.fit.cov_kind}; nobs = {report.fit.nobs}."]
    if "B" in main:
        b_coef, b_prob = main["B"]
        notes.append(f"Book value entered as a free regressor: "
                     f"coefficient {_fmt4(b_coef)} (prob {_fmt4(b_prob)}).")
    notes.append(f"Hausman decision: {report.hausman_decision}.")
    return "\n".join(lines + [""] + notes) + "\n"


def _to_csv(rows) -> str:
    """The csv text of rows of table values, the header first."""
    return _csv_text([map(_csv_value, row) for row in rows])


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"


# --- emission -----------------------------------------------------------------

_COMPANIONS = {"value_moderated": "value_direct", "risk_moderated": "risk_direct"}


def _bundle_files(bundle: ReportBundle) -> dict[str, tuple]:
    """File name -> (table kind, builder arguments), for each table the bundle holds."""
    diagnostic = {"descriptives": bundle.descriptives_table,
                  "correlations": bundle.correlation_table,
                  "stationarity": bundle.stationarity_table}
    files = {name: (name, (table,)) for name, table in diagnostic.items() if table is not None}
    # a moderated base model's markdown pairs with its direct model; no direct model
    # is estimated under the alternative measures, so a refit's table stands alone
    by_table = {r.table: r for r in bundle.estimates}
    for r in bundle.estimates:
        files[r.table] = ("estimation", (r, by_table.get(_COMPANIONS.get(r.table))))
    return files


_MD_TITLES = {
    "value_direct": "Marketing investment and firm value: direct model",
    "value_moderated": "Marketing investment and firm value: estimation results",
    "risk_direct": "Marketing investment and systematic risk: direct model",
    "risk_moderated": "Marketing investment and systematic risk: estimation results",
    "robustness_value_assets": "Firm value, first alternative (marketing/total assets)",
    "robustness_value_log": "Firm value, second alternative (ln marketing)",
    "robustness_risk_assets": "Systematic risk, first alternative (marketing/total assets)",
    "robustness_risk_log": "Systematic risk, second alternative (ln marketing)",
}

# table kind -> (json, csv, markdown) builder, writing .json, .csv and .md files
_BUILDERS = {
    "descriptives": (_descriptives_json, _descriptives_csv, _descriptives_md),
    "correlations": (_correlations_json, _correlations_csv, _correlations_md),
    "stationarity": (_stationarity_json, _stationarity_csv, _stationarity_md),
    "estimation": (_estimation_json, _estimation_csv, _estimation_md),
}


def render(bundle: ReportBundle) -> dict[str, str]:
    """File name -> text of every table the bundle holds, json then csv then markdown,
    each by name. Rendering is deterministic: identical bundles give identical texts."""
    tables = sorted(_bundle_files(bundle).items())
    return {f"{name}.{ext}": _BUILDERS[kind][column](*args)
            for column, ext in enumerate(("json", "csv", "md")) for name, (kind, args) in tables}


def emit(bundle: ReportBundle, path: str) -> list[str]:
    """Write the rendered tables under ``path``, then ``manifest.json``.

    Returns the table paths in :func:`render`'s order.
    """
    texts = {os.path.join(path, name): text for name, text in render(bundle).items()}
    manifest = _json_text({"schema_version": SCHEMA_VERSION, **bundle.metadata})
    try:
        os.makedirs(path, exist_ok=True)
        for file_path, text in [*texts.items(), (os.path.join(path, "manifest.json"), manifest)]:
            with open(file_path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write report files under {path}: {exc}")
    return list(texts)


# --- table comparison -------------------------------------------------------------

# cells holding a probability: json keys (the correlations' ``p`` is a matrix) and csv columns
_P_KEYS = frozenset({"prob", "p_value", "f_pvalue", "p"})
_P_COLUMNS = frozenset({"prob", "p", "fisher_p"})


def _close(a: float, b: float, rel_tol: float, is_p: bool) -> bool:
    """Whether ``a`` and ``b`` differ by at most ``rel_tol`` times the larger magnitude.

    A p cell's bound is widened by max(1, 2|ln p|), the condition number of a
    t or normal tail at p: it passes when the statistic behind it moved by at
    most ``rel_tol``, however far in the tail it lies.
    """
    if a == b:
        return True
    scale = max(abs(a), abs(b))
    if is_p:
        rel_tol *= max(1.0, 2.0 * abs(math.log(scale)))
    return math.isfinite(a - b) and abs(a - b) <= rel_tol * scale


def _compare_json(name: str, a, b, rel_tol: float, loc: str, key: str, lines: list[str]):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                lines.append(f"{name}:{loc}/{k}: present on one side only")
            else:
                # the Hausman statistic inverts a difference of two covariance
                # matrices, which magnifies last-bit moves in either fit
                tol = rel_tol * 1e2 if k == "hausman" else rel_tol
                _compare_json(name, a[k], b[k], tol, f"{loc}/{k}", k, lines)
    elif isinstance(a, list) and isinstance(b, list) and len(a) != len(b):
        lines.append(f"{name}:{loc}: length {len(a)} vs {len(b)}")
    elif isinstance(a, list) and isinstance(b, list):
        for i, (ai, bi) in enumerate(zip(a, b)):
            # a row that names its variable is located by it
            label = ai["variable"] if isinstance(ai, dict) and "variable" in ai else i
            _compare_json(name, ai, bi, rel_tol, f"{loc}[{label}]", key, lines)
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if not _close(float(a), float(b), rel_tol, key in _P_KEYS):
            lines.append(f"{name}:{loc}: {a!r} vs {b!r}")
    elif a != b:
        lines.append(f"{name}:{loc}: {a!r} vs {b!r}")


def _compare_csv(name: str, a_text: str, b_text: str, rel_tol: float, lines: list[str]):
    a_rows, b_rows = (list(csv.reader(io.StringIO(text))) for text in (a_text, b_text))
    if len(a_rows) != len(b_rows):
        lines.append(f"{name}: row count {len(a_rows)} vs {len(b_rows)}")
        return
    header = a_rows[0] if a_rows else []
    # a row is located by its variable cells (two in the correlations)
    keys = [j for j, column in enumerate(header) if column.startswith("variable")] or [0]
    for ra, rb in zip(a_rows, b_rows):
        loc = f"{name}:[{','.join(ra[j] for j in keys if j < len(ra))}]"
        if len(ra) != len(rb):
            lines.append(f"{loc}: cell count {len(ra)} vs {len(rb)}")
            continue
        for column, ca, cb in itertools.zip_longest(header, ra, rb, fillvalue=""):
            try:
                close = ca == cb or _close(float(ca), float(cb), rel_tol, column in _P_COLUMNS)
            except ValueError:
                close = False
            if not close:
                lines.append(f"{loc}/{column}: {ca!r} vs {cb!r}")


def compare_tables(a: dict[str, str], b: dict[str, str], rel_tol: float) -> list[str]:
    """Cell-by-cell comparison of two sets of table texts, each file name -> text;
    returns the differences, one line each, and none when the tables agree.

    json and csv numbers pass when :func:`_close` holds at ``rel_tol`` (the
    Hausman entry at ``rel_tol`` * 1e2); markdown must be the same text. A
    difference names its file and cell, or the first differing markdown line.
    Differing json schema versions raise :class:`SchemaMismatch`.
    """
    lines = [f"{name}: present on one side only" for name in sorted(set(a) ^ set(b))]
    for name in sorted(set(a) & set(b)):
        a_text, b_text = a[name], b[name]
        if name.endswith(".json"):
            try:
                a_obj, b_obj = json.loads(a_text), json.loads(b_text)
            except json.JSONDecodeError as exc:
                lines.append(f"{name}: not json ({exc})")
                continue
            if not (isinstance(a_obj, dict) and isinstance(b_obj, dict)):
                lines.append(f"{name}: not a json object on both sides")
                continue
            va, vb = a_obj.get("schema_version"), b_obj.get("schema_version")
            if va != vb:
                raise SchemaMismatch(f"{name}: schema version {va!r} vs {vb!r}")
            _compare_json(name, a_obj, b_obj, rel_tol, "", "", lines)
        elif name.endswith(".csv"):
            _compare_csv(name, a_text, b_text, rel_tol, lines)
        elif a_text != b_text:
            pairs = itertools.zip_longest(a_text.split("\n"), b_text.split("\n"))
            n = next(n for n, (la, lb) in enumerate(pairs, start=1) if la != lb)
            lines.append(f"{name}:line {n}: differs")
    return lines


def golden_compare(a_dir: str, b_dir: str, rel_tol: float = 0.0) -> list[str]:
    """:func:`compare_tables` over the table files of two run directories.

    ``manifest.json`` is metadata and is skipped.
    """
    def table_texts(d):
        try:
            names = sorted(os.listdir(d))
        except OSError as exc:
            raise IoFailure(f"cannot list {d}: {exc}")
        return {f: _read_text(os.path.join(d, f)) for f in names if f != "manifest.json"
                and f.rsplit(".", 1)[-1] in ("json", "csv", "md")}

    return compare_tables(table_texts(a_dir), table_texts(b_dir), rel_tol)

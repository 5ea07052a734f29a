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
from typing import NamedTuple

from .diagnostics import (CorrelationResult, StationarityRow, TestResult, VariableSummary,
                          _pvalue_bracket)
from .errors import IoFailure, SchemaMismatch
from .ingest import _csv_cell, _csv_text, _read_text
from .models import RUN_PLAN, EstimationReport

SCHEMA_VERSION = "1"

# publication-style display labels per model family, in the published row order
_VALUE_LABELS = {"C": "C", "X": "X", "Marin": "Marin", "Age": "AGE",
                 "Size": "Size", "Lev": "Lev", "OW": "OW", "OW*Marin": "OW*Marin"}
_RISK_LABELS = {"C": "C", "Marin": "Marin", "Age": "AGE", "Size": "SIZ",
                "Lev": "LEVR", "OW": "OW", "OW*Marin": "OW*Marin"}


class ReportBundle(NamedTuple):
    """The tables of one pipeline run plus run metadata: an estimate of each plan table."""

    estimates: list[EstimationReport]
    descriptives_table: list[VariableSummary]
    correlation_table: CorrelationResult
    stationarity_table: list[StationarityRow]
    metadata: dict


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
    return _json_text(SCHEMA_VERSION, {
        "table": "descriptives",
        "rows": [{"variable": r.name, "n": r.n, "minimum": _num(r.minimum),
                  "maximum": _num(r.maximum), "mean": _num(r.mean),
                  "std": _num(r.std), "flag": r.flag} for r in rows],
    })


def _descriptives_csv(rows: list[VariableSummary]) -> str:
    return _to_csv([["variable", "n", "minimum", "maximum", "mean", "std"],
                    *([r.name, r.n, r.minimum, r.maximum, r.mean, r.std] for r in rows)])


def _descriptives_md(rows: list[VariableSummary]) -> str:
    return _md_table("Descriptive statistics",
                     ["Variable", "N", "Minimum", "Maximum", "Mean", "Std. Deviation"],
                     ([r.name, r.n, *map(_fmt4, (r.minimum, r.maximum, r.mean, r.std))]
                      for r in rows))


def _correlations_json(c: CorrelationResult) -> str:
    return _json_text(SCHEMA_VERSION, {
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
    # the r row, then its probabilities under it; blank above the diagonal
    return _md_table("Variable correlation matrix", ["Probability", *c.variables],
                     ([label, *(_fmt4(matrix[i, j]) if j <= i else ""
                                for j in range(len(c.variables)))]
                      for i, name in enumerate(c.variables)
                      for label, matrix in ((name, c.r), ("", c.p))))


def _stationarity_json(rows: list[StationarityRow]) -> str:
    return _json_text(SCHEMA_VERSION, {
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
    def bracketed(test: TestResult) -> str:
        return f"{_fmt4(test.statistic)} ({_pvalue_bracket(test.statistic, test.critical_values)})"
    cells = [[r.variable, bracketed(r.level) if r.level else "-",
              _fmt4(r.difference.statistic) if r.difference else "-", r.order] for r in rows]
    return _md_table("Unit-root tests", ["Variable", "Level", "1 Difference", "Order"], cells, [
        "Harris-Tzavalis z on the firms of the modal length (lag 0, i.i.d. "
        "errors, N large with T fixed), brackets from normal critical values; "
        "per-firm ADF Fisher combination reported in the machine-readable formats. "
        "With few firms the normal limit over-rejects: at N = 20 and T = 9, 7.3-7.8% "
        "of 10 000 simulated random-walk panels were rejected at the nominal 5%."])


def _estimation_json(report: EstimationReport, *_) -> str:
    fit = report.fit
    rows = [{"variable": variable, "coefficient": _num(coefficient),
             "std_error": _num(std_error), "prob": _num(prob)}
            for variable, coefficient, std_error, prob in report.rows]
    diagnostics = {t.name: _test_dict(t) for t in report.diagnostics}
    f_statistic, f_pvalue = report.f_test
    return _json_text(SCHEMA_VERSION, {
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


def _estimation_csv(report: EstimationReport, *_) -> str:
    return _to_csv([["variable", "coefficient", "std_error", "prob"], *report.rows,
                    ["R-squared", report.fit.r_squared, None, None]])


def _estimation_md(report: EstimationReport, companion, title: str) -> str:
    """Markdown estimation table in Coefficient/Prob column pairs under ``title``.

    When a companion (direct) report is supplied the table mirrors the
    two-model layout, the direct model's pair first, with blanks where a model
    has no row. The estimate's own notes follow the fixed note lines.
    """
    labels = _VALUE_LABELS if report.model_id.startswith("value") else _RISK_LABELS
    shown = ([("Direct Model ", companion), ("Moderating Model ", report)] if companion
             else [("", report)])
    header, pairs, r_squared = ["Variable"], [], ["R-squared"]
    for prefix, r in shown:
        header += [f"{prefix}Coefficient", f"{prefix}Prob."]
        pairs.append({v: (c, p) for v, c, _, p in r.rows})
        r_squared += [_fmt4(r.fit.r_squared), ""]
    rows = [[label, *(_fmt4(x) for pair in pairs for x in pair.get(key, (None, None)))]
            for key, label in labels.items() if any(key in pair for pair in pairs)]

    notes = [f"R-squared is the {report.fit.r_squared_kind} R-squared; "
             f"covariance: {report.fit.cov_kind}; nobs = {report.fit.nobs}."]
    if "B" in pairs[-1]:
        b_coef, b_prob = pairs[-1]["B"]
        notes.append(f"Book value entered as a free regressor: "
                     f"coefficient {_fmt4(b_coef)} (prob {_fmt4(b_prob)}).")
    notes.append(f"Hausman decision: {report.hausman_decision}.")
    return _md_table(title, header, [*rows, r_squared], [*notes, *report.notes])


def _md_table(title: str, header, rows, notes=()) -> str:
    """A markdown table under a level-one ``title``: the ``header`` cells, the ``| --- |``
    row and one line of each row's cells, then the ``notes`` after a blank line."""
    table = [header, ["---"] * len(header), *rows]
    lines = [f"# {title}", "", *("| " + " | ".join(map(str, cells)) + " |" for cells in table)]
    if notes:
        lines += ["", *notes]
    return "\n".join(lines) + "\n"


def _to_csv(rows) -> str:
    """The csv text of rows of table values, the header first."""
    return _csv_text([map(_csv_value, row) for row in rows])


def _json_text(schema_version: str, payload: dict) -> str:
    """The json text of ``payload`` with its ``schema_version`` key, keys sorted."""
    return json.dumps({"schema_version": schema_version, **payload}, sort_keys=True, indent=1,
                      allow_nan=False) + "\n"


# --- emission -----------------------------------------------------------------

def _bundle_files(bundle: ReportBundle) -> dict[str, tuple]:
    """File name -> (table kind, builder arguments) of each table of the bundle; an
    estimate's are its report, its companion's report (or None) and its title."""
    files = {"descriptives": ("descriptives", (bundle.descriptives_table,)),
             "correlations": ("correlations", (bundle.correlation_table,)),
             "stationarity": ("stationarity", (bundle.stationarity_table,))}
    by_table = {r.table: r for r in bundle.estimates}
    for entry in RUN_PLAN:
        files[entry.table] = ("estimation", (by_table[entry.table],
                                             by_table.get(entry.companion), entry.title))
    return files


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
    texts = render(bundle)
    write_files(path, {**texts, "manifest.json": _json_text(SCHEMA_VERSION, bundle.metadata)},
                "report")
    return [os.path.join(path, name) for name in texts]


def write_files(directory: str, texts: dict[str, str], kind: str) -> None:
    """Write each text to its file name under ``directory``, made if missing, as UTF-8
    with ``\\n`` line ends; any ``OSError`` raises one :class:`IoFailure` naming ``kind``."""
    try:
        os.makedirs(directory, exist_ok=True)
        for name, text in texts.items():
            with open(os.path.join(directory, name), "w", encoding="utf-8",
                      newline="\n") as handle:
                handle.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {kind} files under {directory}: {exc}")


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


def table_texts(run_dir: str) -> dict[str, str]:
    """File name -> text of every entry of ``run_dir`` but ``manifest.json``, which is
    metadata; an entry that is not a readable UTF-8 file, a directory say, raises
    :class:`IoFailure` naming it."""
    try:
        names = sorted(os.listdir(run_dir))
    except OSError as exc:
        raise IoFailure(f"cannot list {run_dir}: {exc}")
    return {f: _read_text(os.path.join(run_dir, f)) for f in names if f != "manifest.json"}


def golden_compare(a_dir: str, b_dir: str, rel_tol: float = 0.0) -> list[str]:
    """:func:`compare_tables` over the :func:`table_texts` of two run directories."""
    return compare_tables(table_texts(a_dir), table_texts(b_dir), rel_tol)

"""Serialization of result tables to machine-readable and display formats.

Each table is emitted once per requested format into the run directory:
json and csv carry full round-trip precision and identical numbers, markdown
displays four decimals and mirrors the publication layouts (descriptives,
correlation matrix with probabilities underneath, unit-root table, and
estimation tables as Coefficient/Prob column pairs).
"""

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

from .diagnostics import CorrelationResult, StationarityRow, TestResult, VariableSummary
from .errors import IoFailure, SchemaMismatch
from .models import EstimationReport

SCHEMA_VERSION = "1"

# publication-style display labels per model family
_VALUE_LABELS = {"C": "C", "X": "X", "Marin": "Marin", "Age": "AGE",
                 "Size": "Size", "Lev": "Lev", "OW": "OW", "OW*Marin": "OW*Marin"}
_RISK_LABELS = {"C": "C", "Marin": "Marin", "Age": "AGE", "Size": "SIZ",
                "Lev": "LEVR", "OW": "OW", "OW*Marin": "OW*Marin"}
_VALUE_ROW_ORDER = ("C", "X", "Marin", "Age", "Size", "Lev", "OW", "OW*Marin")
_RISK_ROW_ORDER = ("C", "Marin", "Age", "Size", "Lev", "OW", "OW*Marin")


@dataclass
class ReportBundle:
    """All tables of one pipeline run plus run metadata."""

    descriptives_table: list[VariableSummary]
    correlation_table: CorrelationResult
    stationarity_table: list[StationarityRow]
    estimation_tables: list[EstimationReport]
    robustness_tables: list[EstimationReport]
    metadata: dict = field(default_factory=dict)


@dataclass
class DiffReport:
    lines: list[str]
    passed: bool


def _num(value):
    """JSON-safe number: NaN/inf become null."""
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value) if math.isfinite(value) else ""
    return str(value)


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
    out = [["variable", "n", "minimum", "maximum", "mean", "std"]]
    for r in rows:
        out.append([r.name, str(r.n), _fmt_cell(r.minimum), _fmt_cell(r.maximum),
                    _fmt_cell(r.mean), _fmt_cell(r.std)])
    return _to_csv(out)


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
        for j, b in enumerate(c.variables):
            if j > i:
                continue
            out.append([a, b, _fmt_cell(float(c.r[i, j])), _fmt_cell(float(c.p[i, j])),
                        str(int(c.n[i, j]))])
    return _to_csv(out)


def _correlations_md(c: CorrelationResult) -> str:
    header = "| Probability | " + " | ".join(c.variables) + " |"
    sep = "| --- |" + " --- |" * len(c.variables)
    lines = ["# Variable correlation matrix", "", header, sep]
    for i, name in enumerate(c.variables):
        r_cells, p_cells = [], []
        for j in range(len(c.variables)):
            if j > i:
                r_cells.append("")
                p_cells.append("")
            else:
                r_cells.append(_fmt4(float(c.r[i, j])))
                p_cells.append(_fmt4(float(c.p[i, j])))
        lines.append(f"| {name} | " + " | ".join(r_cells) + " |")
        lines.append("|  | " + " | ".join(p_cells) + " |")
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
        out.append([
            r.variable, _fmt_cell(r.level.statistic),
            _fmt_cell(r.difference.statistic if r.difference else None),
            r.order,
            _fmt_cell(r.fisher.statistic if r.fisher else None),
            _fmt_cell(r.fisher.p_value if r.fisher else None),
        ])
    return _to_csv(out)


def _stationarity_md(rows: list[StationarityRow]) -> str:
    lines = ["# Unit-root tests", "",
             "| Variable | Level | 1 Difference | Order |",
             "| --- | --- | --- | --- |"]
    for r in rows:
        level = _fmt4(r.level.statistic)
        bracket = ""
        if r.level.detail:
            parts = [p for p in r.level.detail.split(", ") if p.startswith("p-bracket=")]
            if parts:
                bracket = f" ({parts[0].split('=', 1)[1]})"
        diff = _fmt4(r.difference.statistic) if r.difference else "-"
        lines.append(f"| {r.variable} | {level}{bracket} | {diff} | {r.order} |")
    lines += ["", "Pooled per-firm series; Fisher combination reported in the "
              "machine-readable formats."]
    return "\n".join(lines) + "\n"


def _estimation_json(report: EstimationReport, name: str, companion=None) -> str:
    fit = report.fit
    rows = []
    for variable, coefficient, prob in report.table:
        rows.append({"variable": variable, "coefficient": _num(coefficient),
                     "std_error": _num(fit.std_error(variable)), "prob": _num(prob)})
    diagnostics = {t.name: _test_dict(t) for t in report.diagnostics}
    return _json_text({
        "schema_version": SCHEMA_VERSION,
        "table": name,
        "model_id": report.model_id,
        "marin_variant": report.marin_variant,
        "r_squared": _num(fit.r_squared),
        "r_squared_label": report.r_squared_label,
        "f_statistic": _num(fit.f_statistic),
        "f_pvalue": _num(fit.f_pvalue),
        "nobs": report.nobs,
        "n_input_rows": report.n_input_rows,
        "n_excluded": report.n_excluded,
        "hausman_decision": report.hausman_decision,
        "dropped_columns": list(report.dropped_columns),
        "diagnostics": diagnostics,
        "notes": list(report.notes),
        "rows": rows,
    })


def _estimation_csv(report: EstimationReport, name: str, companion=None) -> str:
    fit = report.fit
    out = [["variable", "coefficient", "std_error", "prob"]]
    for variable, coefficient, prob in report.table:
        out.append([variable, _fmt_cell(coefficient),
                    _fmt_cell(fit.std_error(variable)), _fmt_cell(prob)])
    out.append(["R-squared", _fmt_cell(fit.r_squared), "", ""])
    return _to_csv(out)


def _labels_for(report: EstimationReport) -> tuple[dict, tuple]:
    if report.model_id.startswith("value"):
        return _VALUE_LABELS, _VALUE_ROW_ORDER
    return _RISK_LABELS, _RISK_ROW_ORDER


def _estimation_md(report: EstimationReport, name: str,
                   companion: EstimationReport | None = None) -> str:
    """Markdown estimation table in Coefficient/Prob column pairs.

    When a companion (direct) report is supplied the table mirrors the
    two-model layout with blanks where the direct model has no row.
    """
    labels, row_order = _labels_for(report)
    main = {v: (c, p) for v, c, p in report.table}
    other = {v: (c, p) for v, c, p in companion.table} if companion else None

    lines = [f"# {_MD_TITLES.get(name, name)}", ""]
    if other is not None:
        lines += ["| Variable | Direct Model Coefficient | Direct Model Prob. "
                  "| Moderating Model Coefficient | Moderating Model Prob. |",
                  "| --- | --- | --- | --- | --- |"]
    else:
        lines += ["| Variable | Coefficient | Prob. |", "| --- | --- | --- |"]

    for key in row_order:
        if key not in main and (other is None or key not in other):
            continue
        label = labels[key]
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

    notes = [f"R-squared is the {report.r_squared_label} R-squared; "
             f"covariance: {report.fit.cov_kind}; nobs = {report.nobs}."]
    if "B" in main:
        b_coef, b_prob = main["B"]
        notes.append(f"Book value entered as a free regressor: "
                     f"coefficient {_fmt4(b_coef)} (prob {_fmt4(b_prob)}).")
    if report.hausman_decision:
        notes.append(f"Hausman decision: {report.hausman_decision}.")
    return "\n".join(lines + [""] + notes) + "\n"


def _to_csv(rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows(rows)
    return buf.getvalue()


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1, allow_nan=False) + "\n"


# --- emission -----------------------------------------------------------------

def robustness_table_name(report: EstimationReport) -> str:
    family = "value" if report.model_id.startswith("value") else "risk"
    variant = {"assets_ratio": "assets", "log_level": "log"}[report.marin_variant]
    return f"robustness_{family}_{variant}"


_COMPANIONS = {"value_moderated": "value_direct", "risk_moderated": "risk_direct"}


def _bundle_files(bundle: ReportBundle) -> dict[str, tuple]:
    """File name -> (table kind, builder arguments)."""
    files: dict[str, tuple] = {
        "descriptives": ("descriptives", (bundle.descriptives_table,)),
        "correlations": ("correlations", (bundle.correlation_table,)),
        "stationarity": ("stationarity", (bundle.stationarity_table,)),
    }
    by_model = {r.model_id: r for r in bundle.estimation_tables}
    named = [(r.model_id, r) for r in bundle.estimation_tables]
    named += [(robustness_table_name(r), r) for r in bundle.robustness_tables]
    for name, report in named:
        companion = by_model.get(_COMPANIONS.get(report.model_id))
        files[name] = ("estimation", (report, name, companion))
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

# format -> (position in a builder triple, file extension)
_FORMATS = {"json": (0, "json"), "csv": (1, "csv"), "markdown": (2, "md")}
# table kind -> (json, csv, markdown) builder
_BUILDERS = {
    "descriptives": (_descriptives_json, _descriptives_csv, _descriptives_md),
    "correlations": (_correlations_json, _correlations_csv, _correlations_md),
    "stationarity": (_stationarity_json, _stationarity_csv, _stationarity_md),
    "estimation": (_estimation_json, _estimation_csv, _estimation_md),
}


def emit(bundle: ReportBundle, format: str, path: str) -> list[str]:
    """Write one file per table in ``format`` ('json', 'csv' or 'markdown').

    Returns the written paths. Emission is deterministic: identical bundles
    produce byte-identical files.
    """
    if format not in _FORMATS:
        raise ValueError(f"unknown format {format!r}")
    column, ext = _FORMATS[format]

    written = []
    try:
        os.makedirs(path, exist_ok=True)
        for name, (kind, args) in sorted(_bundle_files(bundle).items()):
            text = _BUILDERS[kind][column](*args)
            file_path = os.path.join(path, f"{name}.{ext}")
            with open(file_path, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
            written.append(file_path)
    except OSError as exc:
        raise IoFailure(f"cannot write report files under {path}: {exc}")
    return written


def write_manifest(bundle: ReportBundle, path: str) -> str:
    payload = {"schema_version": SCHEMA_VERSION, **bundle.metadata}
    file_path = os.path.join(path, "manifest.json")
    try:
        os.makedirs(path, exist_ok=True)
        with open(file_path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    except OSError as exc:
        raise IoFailure(f"cannot write manifest under {path}: {exc}")
    return file_path


# --- golden comparison -----------------------------------------------------------

def _rel_diff(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), 1e-300)


def _compare_json(name: str, a, b, rel_tol: float, loc: str, lines: list[str]):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a or key not in b:
                lines.append(f"{name}:{loc}/{key}: present on one side only")
                continue
            _compare_json(name, a[key], b[key], rel_tol, f"{loc}/{key}", lines)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            lines.append(f"{name}:{loc}: length {len(a)} vs {len(b)}")
            return
        for i, (ai, bi) in enumerate(zip(a, b)):
            _compare_json(name, ai, bi, rel_tol, f"{loc}[{i}]", lines)
    elif isinstance(a, bool) or isinstance(b, bool):
        if a != b:
            lines.append(f"{name}:{loc}: {a!r} vs {b!r}")
    elif isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if _rel_diff(float(a), float(b)) > rel_tol:
            lines.append(f"{name}:{loc}: {a!r} vs {b!r}")
    else:
        if a != b:
            lines.append(f"{name}:{loc}: {a!r} vs {b!r}")


def _compare_csv(name: str, a_text: str, b_text: str, rel_tol: float, lines: list[str]):
    a_rows = list(csv.reader(io.StringIO(a_text)))
    b_rows = list(csv.reader(io.StringIO(b_text)))
    if len(a_rows) != len(b_rows):
        lines.append(f"{name}: row count {len(a_rows)} vs {len(b_rows)}")
        return
    header = a_rows[0] if a_rows else []
    for i, (ra, rb) in enumerate(zip(a_rows, b_rows)):
        if len(ra) != len(rb):
            lines.append(f"{name}:row {i}: cell count differs")
            continue
        for j, (ca, cb) in enumerate(zip(ra, rb)):
            if ca == cb:
                continue
            try:
                fa, fb = float(ca), float(cb)
            except ValueError:
                lines.append(f"{name}:row {i}/{_col(header, j)}: {ca!r} vs {cb!r}")
                continue
            if _rel_diff(fa, fb) > rel_tol:
                lines.append(f"{name}:row {i}/{_col(header, j)}: {ca} vs {cb}")


def _col(header, j) -> str:
    return header[j] if j < len(header) else f"col {j}"


def golden_compare(a_dir: str, b_dir: str, rel_tol: float = 0.0) -> DiffReport:
    """Per-cell relative comparison of two emitted report file sets.

    json and csv tables are compared numerically with tolerance ``rel_tol``;
    markdown is compared textually. ``manifest.json`` is metadata and is
    skipped. Differing schema versions raise :class:`SchemaMismatch`.
    """
    def table_files(d):
        try:
            names = sorted(os.listdir(d))
        except OSError as exc:
            raise IoFailure(f"cannot list {d}: {exc}")
        return [f for f in names if f != "manifest.json"
                and f.rsplit(".", 1)[-1] in ("json", "csv", "md")]

    a_files, b_files = table_files(a_dir), table_files(b_dir)
    lines: list[str] = []
    for name in sorted(set(a_files) ^ set(b_files)):
        lines.append(f"{name}: present on one side only")

    for name in sorted(set(a_files) & set(b_files)):
        with open(os.path.join(a_dir, name), encoding="utf-8") as fa:
            a_text = fa.read()
        with open(os.path.join(b_dir, name), encoding="utf-8") as fb:
            b_text = fb.read()
        if name.endswith(".json"):
            a_obj, b_obj = json.loads(a_text), json.loads(b_text)
            va = a_obj.get("schema_version")
            vb = b_obj.get("schema_version")
            if va != vb:
                raise SchemaMismatch(f"{name}: schema version {va!r} vs {vb!r}")
            _compare_json(name, a_obj, b_obj, rel_tol, "", lines)
        elif name.endswith(".csv"):
            _compare_csv(name, a_text, b_text, rel_tol, lines)
        else:
            if a_text != b_text:
                lines.append(f"{name}: markdown differs")
    return DiffReport(lines=lines, passed=not lines)

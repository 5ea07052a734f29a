"""Command-line pipeline: generate data, validate inputs, estimate, report.

Subcommands: ``synth``, ``ingest-check``, ``run``, ``verify``,
``report-diff``. Configuration comes from a flat key=value file with CLI
flags taking precedence; the effective configuration (every default
resolved) lands in the run manifest. Logs go to standard error; standard
output carries machine-readable summaries only.

Exit codes: 0 success, 1 analytical failure, 2 usage/config/input error.
"""

import argparse
import dataclasses
import datetime
import hashlib
import json
import logging
import os
import sys
import warnings

import numpy as np
import scipy

from . import __version__, beta, diagnostics, ingest, models, report, synth, variables
from .errors import (CollinearityProximityWarning, DuplicateKey, DuplicateMonth,
                     EmptyInput, InfeasibleTargets, InvariantViolation, IoFailure,
                     MarketPanelError, MissingRiskFree, NonPositivePrice,
                     RateOutOfRange, SchemaMismatch, UnknownMarket)
from .panel_core import PanelDataset, build_dataset

log = logging.getLogger("marketpanel")

_INPUT_ERRORS = (SchemaMismatch, IoFailure, InfeasibleTargets, EmptyInput,
                 DuplicateKey, MissingRiskFree, InvariantViolation, RateOutOfRange,
                 NonPositivePrice, DuplicateMonth, UnknownMarket)

_CONFIG_KEYS = {
    "data": str, "synth": bool, "seed": int, "out": str, "run_id": str,
    "marin_variant": str, "center": bool, "constrain_book_unit": bool,
    "beta_window": int, "beta_min": int, "n_firms": int, "n_years": int,
}
_INPUT_FILES = ("fundamentals.csv", "prices.csv", "riskfree.csv")
_VARIANT_ALIASES = {"sales": "sales_ratio", "assets": "assets_ratio", "log": "log_level",
                    "sales_ratio": "sales_ratio", "assets_ratio": "assets_ratio",
                    "log_level": "log_level"}


@dataclasses.dataclass
class RunConfig:
    """Effective configuration of one pipeline run."""

    data: str | None = None
    synth: bool = False
    seed: int = 0
    out: str = "out"
    run_id: str | None = None
    marin_variant: str = "sales_ratio"
    center: bool = False
    constrain_book_unit: bool = False
    beta_window: int = beta.DEFAULT_WINDOW_MONTHS
    beta_min: int = beta.DEFAULT_MIN_MONTHS
    n_firms: int = 20
    n_years: int = 10

    def validate(self) -> None:
        if bool(self.data) == bool(self.synth):
            raise InfeasibleTargets("exactly one of --data and --synth must be given")
        if self.marin_variant not in models.MARIN_VARIANTS:
            raise InfeasibleTargets(f"unknown marin variant {self.marin_variant!r}")
        if not (self.beta_window >= self.beta_min >= 12):
            raise InfeasibleTargets("beta window must satisfy max >= min >= 12")

    def effective(self) -> dict:
        # analytical configuration only; input and output locations are
        # deployment details and would break byte-reproducibility across
        # directories (the inputs enter the run id through their digests)
        return {key: value for key, value in dataclasses.asdict(self).items()
                if key not in ("data", "out", "run_id")}


def _parse_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InfeasibleTargets(f"{path}:{line_no}: expected key = value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in _CONFIG_KEYS:
                    raise InfeasibleTargets(f"{path}:{line_no}: unknown key {key!r}")
                kind = _CONFIG_KEYS[key]
                if kind is bool:
                    if value.lower() not in ("true", "false", "1", "0", "yes", "no"):
                        raise InfeasibleTargets(f"{path}:{line_no}: boolean expected")
                    values[key] = value.lower() in ("true", "1", "yes")
                elif kind is int:
                    try:
                        values[key] = int(value)
                    except ValueError:
                        raise InfeasibleTargets(f"{path}:{line_no}: integer expected")
                else:
                    values[key] = value
    except OSError as exc:
        raise IoFailure(f"cannot read config file {path}: {exc}")
    return values


def _resolve_run_config(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, value in _parse_config_file(args.config).items():
            if key == "marin_variant":
                value = _VARIANT_ALIASES.get(value, value)
            setattr(cfg, key, value)
    overrides = {
        "data": args.data, "synth": args.synth or None, "seed": args.seed,
        "out": args.out, "run_id": args.run_id,
        "marin_variant": (_VARIANT_ALIASES.get(args.marin_variant)
                          if args.marin_variant else None),
        "center": args.center or None,
        "constrain_book_unit": args.constrain_book_unit or None,
        "beta_window": args.beta_window, "beta_min": args.beta_min,
    }
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    cfg.validate()
    return cfg


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _config_hash(effective: dict, inputs: dict) -> str:
    return _sha256(json.dumps({"config": effective, "inputs": inputs}, sort_keys=True))


def _timestamp() -> str | None:
    # reproducible-builds convention: embed a time only when pinned by the caller
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if epoch is None:
        return None
    moment = datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc)
    return moment.isoformat()


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}")


def _load_inputs(cfg: RunConfig) -> tuple[str, str, str]:
    """The texts of fundamentals.csv, prices.csv and riskfree.csv."""
    if cfg.synth:
        log.info("generating synthetic panel (seed=%d)", cfg.seed)
        result = synth.generate_panel(synth.DGPConfig(
            seed=cfg.seed, n_firms=cfg.n_firms, n_years=cfg.n_years))
        return (result.fundamentals_csv, result.prices_csv, result.riskfree_csv)
    return tuple(_read(os.path.join(cfg.data, name)) for name in _INPUT_FILES)


@dataclasses.dataclass
class _BaseRun:
    """The pipeline up to the four base estimates: all that ``verify`` recomputes."""

    inputs: dict[str, str]   # input file name -> SHA-256 of its text
    dataset: PanelDataset
    ingest_report: ingest.IngestReport
    beta_exclusions: list
    panel: variables.DerivedPanel
    estimates: list[models.EstimationReport]


def _dataset(fundamentals_csv: str, prices_csv: str, riskfree_csv: str):
    table, ingest_report = ingest.parse_fundamentals(fundamentals_csv)
    for line_no, reason in ingest_report.rejections:
        log.warning("fundamentals line %d rejected: %s", line_no, reason)
    prices = ingest.parse_prices(prices_csv)
    dataset = build_dataset(table, ingest.parse_riskfree(riskfree_csv))
    log.info("dataset: %d observations, %d firms, years %d-%d",
             len(dataset), len(dataset.firms), dataset.years[0], dataset.years[-1])
    return dataset, prices, ingest_report


def _betas(cfg: RunConfig, dataset: PanelDataset, prices: beta.PriceTable):
    returns = beta.monthly_returns(prices)
    # a firm with fewer than two closes has no window at all, hence no exclusions
    firms = [f for f in dataset.firms if f in returns.series_index]
    betas, beta_exclusions = beta.all_betas(
        returns, firms, dataset.years, dataset.firm_markets(),
        window_months=cfg.beta_window, min_months=cfg.beta_min)
    for firm_id, year, reason in beta_exclusions:
        log.warning("beta excluded for (%s, %d): %s", firm_id, year, reason)
    return betas, beta_exclusions


def _derived_panel(dataset: PanelDataset, betas) -> variables.DerivedPanel:
    panel = variables.derive_all(dataset, betas)
    for firm_id, year, reason in panel.exclusions:
        log.warning("row excluded (%s, %d): %s", firm_id, year, reason)
    log.info("derived panel: %d rows (%d excluded)", len(panel), len(panel.exclusions))
    return panel


def _base_estimates(cfg: RunConfig, panel) -> list[models.EstimationReport]:
    estimates = []
    for model_id in models.MODEL_IDS:
        spec = models.spec_for(model_id, marin_variant=cfg.marin_variant,
                               constrain_book_unit=cfg.constrain_book_unit)
        est = models.estimate(panel, spec, center=cfg.center)
        log.info("%s: nobs=%d, R2(%s)=%.4f, hausman=%s", model_id, est.nobs,
                 est.r_squared_label, est.fit.r_squared, est.hausman_decision)
        estimates.append(est)
    return estimates


def _inputs_and_betas(cfg: RunConfig):
    # the CSV texts and the price table die on return, before the estimates
    texts = _load_inputs(cfg)
    dataset, prices, ingest_report = _dataset(*texts)
    betas, beta_exclusions = _betas(cfg, dataset, prices)
    return (dict(zip(_INPUT_FILES, map(_sha256, texts))), dataset, ingest_report,
            betas, beta_exclusions)


def _run_to_base_estimates(cfg: RunConfig) -> _BaseRun:
    inputs, dataset, ingest_report, betas, beta_exclusions = _inputs_and_betas(cfg)
    panel = _derived_panel(dataset, betas)
    return _BaseRun(inputs, dataset, ingest_report, beta_exclusions, panel,
                    _base_estimates(cfg, panel))


def _diagnostics_and_robustness(cfg: RunConfig, panel) -> dict:
    """The tables of a run besides the base estimates, as ``ReportBundle`` fields."""
    desc_columns = variables.panel_columns(panel, variables.DESCRIPTIVES_ORDER)
    corr_columns = variables.panel_columns(panel, variables.CORRELATION_ORDER)
    return {
        "descriptives_table": diagnostics.descriptives(desc_columns),
        "correlation_table": diagnostics.correlation_matrix(
            corr_columns, variables.CORRELATION_ORDER),
        "stationarity_table": diagnostics.panel_stationarity(
            variables.panel_columns(panel, variables.STATIONARITY_ORDER), panel.codes.firm),
        "robustness_tables": models.robustness_suite(
            panel, center=cfg.center, constrain_book_unit=cfg.constrain_book_unit),
    }


def _bundle(cfg: RunConfig, base: _BaseRun) -> report.ReportBundle:
    tables = _diagnostics_and_robustness(cfg, base.panel)
    effective = cfg.effective()
    config_hash = _config_hash(effective, base.inputs)
    metadata = {
        "run_id": cfg.run_id or f"run-{config_hash[:12]}",
        "config_hash": config_hash,
        "timestamp": _timestamp(),
        "versions": {"marketpanel": __version__,
                     "python": ".".join(map(str, sys.version_info[:3])),
                     "numpy": np.__version__, "scipy": scipy.__version__},
        "effective_config": effective,
        "inputs": base.inputs,
        "n_observations": len(base.dataset),
        "n_derived_rows": len(base.panel),
        "ingest_rejections": list(base.ingest_report.rejections),
        "derive_exclusions": len(base.panel.exclusions),
        "beta_exclusions": len(base.beta_exclusions),
        "baseline_nobs": {r.model_id: r.nobs for r in base.estimates},
        "robustness_nobs": {report.robustness_table_name(r): r.nobs
                            for r in tables["robustness_tables"]},
        "notes": base.panel.notes,
    }
    return report.ReportBundle(estimation_tables=base.estimates, metadata=metadata,
                               **tables)


# --- subcommands -------------------------------------------------------------------

def cmd_synth(args) -> int:
    cfg = synth.DGPConfig(seed=args.seed, n_firms=args.n_firms, n_years=args.n_years)
    result = synth.generate_panel(cfg)
    os.makedirs(args.out, exist_ok=True)
    files = {
        "fundamentals.csv": result.fundamentals_csv,
        "prices.csv": result.prices_csv,
        "riskfree.csv": result.riskfree_csv,
        "truth.json": result.truth.to_json(),
    }
    try:
        for name, text in files.items():
            with open(os.path.join(args.out, name), "w", encoding="utf-8",
                      newline="\n") as handle:
                handle.write(text)
    except OSError as exc:
        raise IoFailure(f"cannot write to {args.out}: {exc}")
    log.info("wrote %d files to %s", len(files), args.out)
    print(json.dumps({"command": "synth", "out": args.out, "seed": args.seed,
                      "n_observations": len(result.dataset),
                      "files": sorted(files)}, sort_keys=True))
    return 0


def cmd_ingest_check(args) -> int:
    dataset, prices, rep = _dataset(*_load_inputs(RunConfig(data=args.data)))
    beta.monthly_returns(prices)   # an overflowing close ratio fails here as in `run`
    summary = {
        "command": "ingest-check",
        "rows_accepted": rep.rows_accepted,
        "rows_rejected": rep.rows_rejected,
        "rejections": [list(r) for r in rep.rejections],
        "price_series": len(prices.series_ids),
        "riskfree_series": len(dataset.risk_free),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if rep.rows_rejected == 0 else 1


def cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    bundle = _bundle(cfg, _run_to_base_estimates(cfg))
    metadata = bundle.metadata
    out_dir = os.path.join(cfg.out, metadata["run_id"])
    written = []
    for fmt in ("json", "csv", "markdown"):
        written += report.emit(bundle, fmt, out_dir)
    report.write_manifest(bundle, out_dir)
    log.info("wrote %d table files to %s", len(written), out_dir)
    print(json.dumps({"command": "run", "run_id": metadata["run_id"],
                      "out_dir": out_dir, "config_hash": metadata["config_hash"],
                      "n_observations": metadata["n_observations"],
                      "n_derived_rows": metadata["n_derived_rows"],
                      "tables": len(written)}, sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    """Two-stage verification of an emitted run against its truth record.

    Stage 1 recomputes the four base tables from the data and compares every
    coefficient cell against the emitted reports (tamper detection); it runs
    the pipeline only up to those estimates, so the descriptives, correlations,
    stationarity and robustness tables are neither recomputed nor checked.
    Stage 2 re-derives the panel of the same dataset with the planted true
    betas and runs the truth check on both moderated models, the shapes the
    generator actually planted; the direct models are misspecified subsets by
    design and are only covered by stage 1.
    """
    # a missing file fails in _read, naming the path (exit 2)
    truth = synth.TruthRecord.from_json(_read(os.path.join(args.data, "truth.json")))
    emitted = {model_id: json.loads(_read(os.path.join(args.run, f"{model_id}.json")))
               for model_id in models.MODEL_IDS}
    effective = json.loads(_read(os.path.join(args.run, "manifest.json"))
                           ).get("effective_config", {})
    recorded = {key: _CONFIG_KEYS[key](value) for key, value in effective.items()
                if key in _CONFIG_KEYS and key not in ("data", "synth")}
    cfg = RunConfig(data=args.data, **recorded)
    cfg.validate()

    failures = []
    base = _run_to_base_estimates(cfg)
    recomputed = {r.model_id: r for r in base.estimates}
    for model_id, table in emitted.items():
        expected = {v: (c, recomputed[model_id].fit.std_error(v), p)
                    for v, c, p in recomputed[model_id].table}
        for row in table.get("rows", []):
            name = row["variable"]
            if name not in expected:
                failures.append(f"{model_id}/{name}: unexpected row")
                continue
            for cell, want in zip(("coefficient", "std_error", "prob"),
                                  expected[name]):
                got = float(row[cell])
                if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                    failures.append(f"{model_id}/{name}/{cell}: reported "
                                    f"{got:.6g}, recomputed {want:.6g}")

    panel = variables.derive_all(base.dataset, truth.betas_true)
    checks = {}
    for model_id in ("value_moderated", "risk_moderated"):
        # raw parameterization: the planted coefficients are uncentered
        spec = models.spec_for(model_id,
                               constrain_book_unit=cfg.constrain_book_unit)
        outcome = synth.truth_check(models.estimate(panel, spec), truth)
        checks[model_id] = [
            {"variable": c.variable, "estimate": c.estimate, "truth": c.truth,
             "std_error": c.std_error, "passed": c.passed} for c in outcome.checks]
        for c in outcome.checks:
            if not c.passed:
                failures.append(f"{model_id}/{c.variable}: estimate {c.estimate:.6g} "
                                f"vs truth {c.truth:.6g} (se {c.std_error:.3g})")

    print(json.dumps({"command": "verify", "passed": not failures,
                      "failures": failures, "truth_checks": checks}, sort_keys=True))
    if failures:
        for failure in failures:
            log.error("verification failed: %s", failure)
        return 1
    return 0


def cmd_report_diff(args) -> int:
    diff = report.golden_compare(args.a, args.b, rel_tol=args.rel_tol)
    print(json.dumps({"command": "report-diff", "passed": diff.passed,
                      "differences": diff.lines}, sort_keys=True))
    return 0 if diff.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketpanel",
        description="Panel pipeline for marketing investment, firm value and "
                    "systematic risk")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic panel with truth record")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output directory for the CSVs")
    p_synth.add_argument("--n-firms", type=int, default=20)
    p_synth.add_argument("--n-years", type=int, default=10)
    p_synth.set_defaults(func=cmd_synth)

    p_check = sub.add_parser("ingest-check", help="validate input CSVs")
    p_check.add_argument("--data", required=True)
    p_check.set_defaults(func=cmd_ingest_check)

    p_run = sub.add_parser("run", help="run the full estimation pipeline")
    p_run.add_argument("--config", help="flat key=value config file")
    p_run.add_argument("--data", help="directory with fundamentals/prices/riskfree CSVs")
    p_run.add_argument("--synth", action="store_true",
                       help="generate the default synthetic panel instead of reading data")
    p_run.add_argument("--seed", type=int, default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--run-id", default=None)
    p_run.add_argument("--marin-variant", choices=sorted(_VARIANT_ALIASES),
                       default=None, help="marketing measure for the baseline models")
    p_run.add_argument("--center", action="store_true",
                       help="mean-center the interaction inputs")
    p_run.add_argument("--constrain-book-unit", action="store_true",
                       help="regress P - B instead of keeping B as a free regressor")
    p_run.add_argument("--beta-window", type=int, default=None)
    p_run.add_argument("--beta-min", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_verify = sub.add_parser("verify", help="check reports against a truth record")
    p_verify.add_argument("--data", required=True, help="directory holding truth.json")
    p_verify.add_argument("--run", required=True, help="emitted run directory")
    p_verify.set_defaults(func=cmd_verify)

    p_diff = sub.add_parser("report-diff", help="compare two emitted report sets")
    p_diff.add_argument("a")
    p_diff.add_argument("b")
    p_diff.add_argument("--rel-tol", type=float, default=0.0)
    p_diff.set_defaults(func=cmd_report_diff)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    # the warning fires identically on every fit of the same panel
    warnings.filterwarnings("once", category=CollinearityProximityWarning)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _INPUT_ERRORS as exc:
        log.error("%s", exc)
        return 2
    except MarketPanelError as exc:
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())

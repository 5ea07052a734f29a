"""Command-line pipeline: generate data, validate inputs, estimate, report.

Subcommands: ``synth``, ``ingest-check``, ``run``, ``verify``,
``report-diff``. ``run`` reads fundamentals.csv, prices.csv and riskfree.csv
from one directory (``synth`` writes them). Its configuration is
:class:`RunConfig`: each field is a key of the flat key=value config file and
a ``run`` flag, the flags taking precedence; the effective configuration
(every default resolved) lands in the run manifest. Logs go to standard
error; standard output carries machine-readable summaries only.

Exit codes: 0 success, 1 analytical failure, 2 usage/config/input error
(:class:`~marketpanel.errors.InputError`).

Run as a program (``python -m marketpanel.cli`` or the ``marketpanel``
script, both ``main()`` without arguments), the CLI freezes the objects its
imports left to the garbage collector, so neither its full collections nor
the one at exit walk them again. ``main(argv)`` called from Python code does
not freeze, because the caller's own pending garbage would be frozen too and
never freed. A process run as a program also has numpy's OpenBLAS start one
thread, not one per CPU, unless the caller set ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``
(:func:`marketpanel.one_blas_thread_unless_chosen`); imported, the CLI keeps
numpy's default.
"""

import argparse
import datetime
import gc
import hashlib
import json
import logging
import os
import sys
from typing import NamedTuple

if __name__ == "__main__":   # python -m marketpanel.cli: before numpy loads OpenBLAS
    from . import one_blas_thread_unless_chosen
    one_blas_thread_unless_chosen()

import numpy as np

from . import __version__, beta, diagnostics, ingest, models, report, variables
from .errors import ConfigError, InputError, MarketPanelError, SchemaMismatch
from .panel_core import build_dataset

log = logging.getLogger("marketpanel")

_INPUT_FILES = ("fundamentals.csv", "prices.csv", "riskfree.csv")
_VARIANT_NAMES = {short: name for name, (short, _) in models.MARIN_VARIANTS.items()}


class RunConfig(NamedTuple):
    """Effective configuration of one pipeline run.

    Each field is a config-file key and the ``run`` flag of the same name.
    """

    data: str | None = None
    out: str = "out"
    run_id: str | None = None
    marin_variant: str = "sales_ratio"
    center: bool = False
    constrain_book_unit: bool = False
    beta_window: int = beta.DEFAULT_WINDOW_MONTHS
    beta_min: int = beta.DEFAULT_MIN_MONTHS

    def validate(self) -> None:
        if not self.data:
            raise ConfigError("no input directory: give --data or data = in --config")
        if self.marin_variant not in models.MARIN_VARIANTS:
            raise ConfigError(f"unknown marin variant {self.marin_variant!r}")
        if not (self.beta_window >= self.beta_min >= 12):
            raise ConfigError("beta window must satisfy max >= min >= 12")
        # the run directory is out joined with the id: one component keeps it inside out
        if self.run_id and (self.run_id in (".", "..")
                            or any(sep in self.run_id for sep in ("/", os.sep, os.altsep) if sep)):
            raise ConfigError(f"run id {self.run_id!r} must be a single path component")

    def effective(self) -> dict:
        # analytical configuration only; input and output locations are
        # deployment details and would break byte-reproducibility across
        # directories (the inputs enter the run id through their digests)
        return {key: value for key, value in self._asdict().items()
                if key not in ("data", "out", "run_id")}


def _config_kinds() -> dict[str, type]:
    """Config key -> the type of its value; a ``str | None`` field takes a string."""
    return {name: str if kind == str | None else kind
            for name, kind in RunConfig.__annotations__.items()}


def _parse_config_file(path: str) -> dict:
    kinds = _config_kinds()
    values, key_lines = {}, {}
    for line_no, raw in enumerate(ingest._read_text(path).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in kinds:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        if key in key_lines:
            raise ConfigError(f"{path}:{line_no}: key {key!r} already set on line "
                              f"{key_lines[key]}")
        key_lines[key] = line_no
        kind = kinds[key]
        if kind is bool:
            if value.lower() not in ("true", "false", "1", "0", "yes", "no"):
                raise ConfigError(f"{path}:{line_no}: boolean expected")
            values[key] = value.lower() in ("true", "1", "yes")
        elif kind is int:
            try:
                values[key] = int(value)
            except ValueError:
                raise ConfigError(f"{path}:{line_no}: integer expected")
        else:
            values[key] = value
    return values


def _resolve_run_config(args) -> RunConfig:
    values = _parse_config_file(args.config) if args.config else {}
    for key in _config_kinds():
        if getattr(args, key) is not None:
            values[key] = getattr(args, key)
    cfg = RunConfig(**values)
    cfg = cfg._replace(marin_variant=_VARIANT_NAMES.get(cfg.marin_variant, cfg.marin_variant))
    cfg.validate()
    _timestamp()   # a malformed SOURCE_DATE_EPOCH fails here, before any input is read
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
    try:
        moment = datetime.datetime.fromtimestamp(int(epoch), tz=datetime.timezone.utc)
    except (ValueError, OverflowError, OSError) as exc:
        raise ConfigError(f"SOURCE_DATE_EPOCH must be whole seconds since 1970, "
                          f"got {epoch!r} ({exc})")
    return moment.isoformat()


def _load_inputs(data: str) -> tuple[str, str, str]:
    """The texts of fundamentals.csv, prices.csv and riskfree.csv in ``data``."""
    return tuple(ingest._read_text(os.path.join(data, name)) for name in _INPUT_FILES)


def _dataset(fundamentals_csv: str, prices_csv: str, riskfree_csv: str):
    table, rejections = ingest.parse_fundamentals(fundamentals_csv)
    for line_no, reason in rejections:
        log.warning("fundamentals line %d rejected: %s", line_no, reason)
    prices = ingest.parse_prices(prices_csv)
    dataset = build_dataset(table, ingest.parse_riskfree(riskfree_csv))
    codes = dataset.codes
    log.info("dataset: %d observations, %d firms, years %d-%d",
             len(codes.firm), len(codes.firm_ids), codes.years[0], codes.years[-1])
    return dataset, prices, rejections


def _bundle(cfg: RunConfig):
    """The run's report bundle and the dataset it was estimated on."""
    texts = _load_inputs(cfg.data)
    inputs = dict(zip(_INPUT_FILES, map(_sha256, texts)))
    dataset, prices, rejections = _dataset(*texts)
    betas, beta_exclusions = beta.all_betas(
        beta.monthly_returns(prices), dataset.codes, dataset.firm_markets(),
        window_months=cfg.beta_window, min_months=cfg.beta_min)
    for firm_id, year, reason in beta_exclusions:
        log.warning("beta excluded for (%s, %d): %s", firm_id, year, reason)
    # nothing past the betas reads these, so they are freed before the estimates
    del texts, prices
    panel = variables.derive_all(dataset, betas)
    for firm_id, year, reason in panel.exclusions:
        log.warning("row excluded (%s, %d): %s", firm_id, year, reason)
    log.info("derived panel: %d rows (%d excluded)", len(panel.codes.firm),
             len(panel.exclusions))
    estimates = models.estimate_plan(panel, cfg.marin_variant, cfg.constrain_book_unit,
                                     cfg.center)
    for est in estimates:
        log.info("%s: nobs=%d, R2(%s)=%.4f, hausman=%s", est.table, est.fit.nobs,
                 est.fit.r_squared_kind, est.fit.r_squared, est.hausman_decision)
    desc_columns = variables.panel_columns(panel, variables.DESCRIPTIVES_ORDER)
    corr_columns = variables.panel_columns(panel, variables.CORRELATION_ORDER)
    tables = {
        "descriptives_table": diagnostics.descriptives(desc_columns),
        "correlation_table": diagnostics.correlation_matrix(corr_columns),
        "stationarity_table": diagnostics.panel_stationarity(
            variables.panel_columns(panel, variables.STATIONARITY_ORDER), panel.codes),
    }
    effective = cfg.effective()
    config_hash = _config_hash(effective, inputs)
    nobs = {r.table: r.fit.nobs for r in estimates}
    metadata = {
        "run_id": cfg.run_id or f"run-{config_hash[:12]}",
        "config_hash": config_hash,
        "timestamp": _timestamp(),
        "versions": {"marketpanel": __version__,
                     "python": ".".join(map(str, sys.version_info[:3])),
                     "numpy": np.__version__},
        "effective_config": effective,
        "inputs": inputs,
        "n_observations": len(dataset.table.year),
        "n_derived_rows": len(panel.codes.firm),
        "ingest_rejections": list(rejections),
        "derive_exclusions": len(panel.exclusions),
        "beta_exclusions": len(beta_exclusions),
        "baseline_nobs": {t: n for t, n in nobs.items() if t in models.MODEL_IDS},
        "robustness_nobs": {t: n for t, n in nobs.items() if t not in models.MODEL_IDS},
        "notes": panel.notes,
    }
    return report.ReportBundle(estimates, metadata=metadata, **tables), dataset


# --- subcommands -------------------------------------------------------------------

def cmd_synth(args) -> int:
    from . import synth   # the generator loads only for this command
    cfg = synth.DGPConfig(seed=args.seed, n_firms=args.n_firms, n_years=args.n_years)
    result = synth.generate_panel(cfg)
    files = {
        "fundamentals.csv": result.fundamentals_csv,
        "prices.csv": result.prices_csv,
        "riskfree.csv": result.riskfree_csv,
        "truth.json": result.truth.to_json(),
    }
    report.write_files(args.out, files, "synth")
    log.info("wrote %d files to %s", len(files), args.out)
    print(json.dumps({"command": "synth", "out": args.out, "seed": args.seed,
                      "n_observations": len(result.dataset.table.year),
                      "files": sorted(files)}, sort_keys=True))
    return 0


def cmd_ingest_check(args) -> int:
    dataset, prices, rejections = _dataset(*_load_inputs(args.data))
    beta.monthly_returns(prices)   # an overflowing close ratio fails here as in `run`
    summary = {
        "command": "ingest-check",
        "rows_accepted": len(dataset.table.year),
        "rows_rejected": len(rejections),
        "rejections": [list(r) for r in rejections],
        "price_series": len(prices.series_ids),
        "riskfree_series": len({market for market, _ in dataset.risk_free}),
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if not rejections else 1


def cmd_run(args) -> int:
    cfg = _resolve_run_config(args)
    bundle, _ = _bundle(cfg)
    metadata = bundle.metadata
    out_dir = os.path.join(cfg.out, metadata["run_id"])
    written = report.emit(bundle, out_dir)
    log.info("wrote %d table files to %s", len(written), out_dir)
    print(json.dumps({"command": "run", "run_id": metadata["run_id"],
                      "out_dir": out_dir, "config_hash": metadata["config_hash"],
                      "n_observations": metadata["n_observations"],
                      "n_derived_rows": metadata["n_derived_rows"],
                      "tables": len(written)}, sort_keys=True))
    return 0


def _recorded_config(path: str) -> tuple[dict, dict]:
    """The manifest at ``path``, and the ``RunConfig`` fields it records, each of its
    field's JSON type; keys that are no longer fields (an older tree) are ignored."""
    try:
        manifest = json.loads(ingest._read_text(path))
    except json.JSONDecodeError as exc:
        raise SchemaMismatch(f"{path} is not JSON: {exc}")
    effective = manifest.get("effective_config", {}) if isinstance(manifest, dict) else None
    if not isinstance(effective, dict):
        raise SchemaMismatch(f"{path}: no effective_config object in a JSON object")
    kinds = _config_kinds()
    recorded = {key: value for key, value in effective.items() if key in kinds}
    for key, value in recorded.items():
        # so that neither "false" is read as true nor 48.9 as 48
        if type(value) is not kinds[key]:
            raise ConfigError(f"{path}: effective_config {key!r} must be a JSON "
                              f"{kinds[key].__name__}, got {json.dumps(value)}")
    return manifest, recorded


def cmd_verify(args) -> int:
    """Two-stage verification of an emitted run against its truth record.

    Stage 1 reruns the whole pipeline under the manifest's configuration and
    renders every table, 33 texts, in memory. It compares them with the run
    tree's table files through :func:`report.compare_tables` at 1e-12, so a
    file that differs, is missing or is extra is a failure line naming it
    (tamper detection). The manifest's input digests and config hash must
    equal the recomputed ones. Stage 2 re-derives the panel of the same
    dataset with the planted true betas and runs the truth check on both
    moderated models, the shapes the generator actually planted; the direct
    models are misspecified subsets by design and are only covered by stage 1.
    """
    from . import synth
    # a missing or undecodable file fails in _read_text, naming the path (exit 2)
    truth_path = os.path.join(args.data, "truth.json")
    try:
        truth = synth.TruthRecord.from_json(ingest._read_text(truth_path))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        # not JSON (a ValueError), a missing field, or a value of another shape
        raise SchemaMismatch(f"{truth_path} is not a truth record: {exc!r}")
    manifest, recorded = _recorded_config(os.path.join(args.run, "manifest.json"))
    cfg = RunConfig(**{**recorded, "data": args.data})
    cfg.validate()

    bundle, dataset = _bundle(cfg)
    failures = report.compare_tables(report.table_texts(args.run), report.render(bundle),
                                     rel_tol=1e-12)
    recomputed = {key: bundle.metadata[key] for key in ("inputs", "config_hash")}
    report._compare_json("manifest.json", {key: manifest.get(key) for key in recomputed},
                         recomputed, 0.0, "", "", failures)

    # the planted betas as one column over the dataset's rows, as all_betas gives the run's
    keys = zip(map(dataset.codes.firm_ids.__getitem__, dataset.codes.firm.tolist()),
               dataset.table.year.tolist())
    panel = variables.derive_all(dataset, np.array([truth.betas_true.get(key, np.nan)
                                                    for key in keys]))
    checks = {}
    for model_id, planted in (("value_moderated", truth.value_coefficients),
                              ("risk_moderated", truth.risk_coefficients)):
        # raw parameterization: the planted coefficients are uncentered
        spec = models.spec_for(model_id,
                               constrain_book_unit=cfg.constrain_book_unit)
        checks[model_id] = synth.truth_check(planted, models.estimate(panel, spec).rows)
        failures += [f"{model_id}/{c['variable']}: estimate {c['estimate']:.6g} "
                     f"vs truth {c['truth']:.6g} (se {c['std_error']:.3g})"
                     for c in checks[model_id] if not c["passed"]]

    print(json.dumps({"command": "verify", "passed": not failures,
                      "failures": failures, "truth_checks": checks}, sort_keys=True))
    if failures:
        for failure in failures:
            log.error("verification failed: %s", failure)
        return 1
    return 0


def cmd_report_diff(args) -> int:
    differences = report.golden_compare(args.a, args.b, rel_tol=args.rel_tol)
    print(json.dumps({"command": "report-diff", "passed": not differences,
                      "differences": differences}, sort_keys=True))
    return 0 if not differences else 1


def _tolerance(text: str) -> float:
    """A ``--rel-tol`` value: a number >= 0, inf included."""
    try:
        if float(text) >= 0:
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a number >= 0, got {text!r}")


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
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--run-id", default=None)
    p_run.add_argument("--marin-variant", choices=sorted([*_VARIANT_NAMES,
                                                          *models.MARIN_VARIANTS]),
                       default=None, help="marketing measure for the baseline models")
    p_run.add_argument("--center", action="store_true", default=None,
                       help="mean-center the interaction inputs")
    p_run.add_argument("--constrain-book-unit", action="store_true", default=None,
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
    p_diff.add_argument("--rel-tol", type=_tolerance, default=0.0)
    p_diff.set_defaults(func=cmd_report_diff)
    return parser


def main(argv=None) -> int:
    if argv is None:
        # the process is the CLI's: numpy's import-time objects (tens of
        # thousands) live until exit, and the shutdown collection would
        # otherwise walk them all once more
        gc.freeze()
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MarketPanelError as exc:
        log.error("%s", exc)
        return 2 if isinstance(exc, InputError) else 1


if __name__ == "__main__":
    sys.exit(main())

"""Synthetic panel generator with known ground truth.

Generates firm fundamentals whose derived variables hit the calibration
targets in expectation, monthly price paths driven by a market factor with
per-firm-year true betas, and a truth record storing every planted
parameter. Firm-level characteristics are drawn stratified so panel means
stay tight around their targets across seeds; moment matching is done by
parameter algebra (the intercepts are solved from the target means), never
by post-hoc rescaling.

The fundamentals share price comes from the planted value equation while
prices.csv exists to feed the beta estimator; the two are deliberately
decoupled so planted coefficients stay exact. True betas follow the planted
risk equation year by year, so the trailing-window estimate targets the
within-window slope recorded as ``betas_window``.
"""

import json
import math
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._kernels import _cephes_ndtr, _ndtri
from .errors import InfeasibleTargets, ModelMismatch
from .ingest import (fundamentals_to_csv, parse_fundamentals, parse_riskfree,
                     prices_to_csv, riskfree_to_csv)
from .models import EstimationReport
from .panel_core import FundamentalsTable, PanelDataset, RiskFreeSeries, build_dataset
from .beta import PriceTable, _month_index
from .report import _json_text
from .variables import ownership_concentration

TRUTH_SCHEMA_VERSION = "1"
# the (firm, year) maps, stored in truth.json as {firm: {year: value}}
_NESTED_TRUTH = ("betas_true", "betas_window")

DEFAULT_VALUE_COEFFICIENTS = {
    "B": 1.0, "X": 2.92, "Marin": 0.18, "Age": 0.012, "Size": -0.35,
    "Lev": -1.4, "OW": 0.19, "OW*Marin": 0.114,
}
DEFAULT_RISK_COEFFICIENTS = {
    "Marin": -0.20, "Age": -0.01, "Size": 0.19, "Lev": 0.6,
    "OW": -0.26, "OW*Marin": -0.40,
}
# (mean, std) calibration targets; a None std is emergent from the design.
# The stds of Marin, X, Lev and B set their designs' dispersion scales below;
# Age, OW, Bet and P stds follow from the remaining structure. The B, X and
# Lev stds sit below their published sample values: with independently drawn
# fundamentals the planted linear price equation needs the headroom to stay
# on positive support, and the published B std is infeasible outright given
# its own min/max.
DEFAULT_MOMENT_TARGETS = {
    "P": (1.708, None), "B": (1.2874, 0.35), "X": (0.1094, 0.10),
    "Marin": (0.2491, 0.1565), "Age": (19.6834, None), "Lev": (0.5288, 0.18),
    "Bet": (0.8931, None), "OW": (0.44, None),
}

# fixed spread parameters of the cross-sectional design
_MARIN_AR_RHO = 0.6
_MARIN_AR_SD = 0.055
_MARIN_BOUNDS = (0.002, 0.60)
_LEV_WALK_SD = 0.02
_LEV_BOUNDS = (0.03, 0.97)
_OW_DOMINANT_HALF_WIDTH = 0.18
_OW_WALK_SD = 0.015
_OW_MINOR_LOW, _OW_MINOR_HIGH = 0.02, 0.09
_OW_MINOR_MAX_COUNT = 2  # per year, drawn uniformly on 0..2
_AGE0_LOW = 3
_LN_ASSETS_MEAN, _LN_ASSETS_SD = 8.9, 0.6
_GROWTH_MEAN, _GROWTH_SD = 0.05, 0.02
_LN_ASSETS_NOISE_SD = 0.03
_TURNOVER_LOW, _TURNOVER_HIGH = 0.3, 0.9
_RD_SHARE_HIGH = 0.04
_BOOK_GROWTH_MEAN, _BOOK_GROWTH_SD = 0.03, 0.02
_X_FIRM_SD, _X_NOISE_SD = 0.06, 0.07  # 6:7 between/within split, scaled below
_ALPHA_MEAN, _ALPHA_SD = 0.001, 0.001
_PRICE_FLOOR = 0.02
_PRE_PANEL_YEARS = 5
# the paper's four markets and first panel year, and the value equation's and
# the market factor's scales, which no run varies
START_YEAR = 2010
N_MARKETS = 4
_VALUE_EFFECT_SD = 0.20   # sigma_u of the value equation firm effects
_VALUE_NOISE_SD = 0.25    # sigma_e of the value equation noise
_MARKET_VOL, _MARKET_DRIFT = 0.05, 0.008   # monthly market factor returns

# the std targets as dispersion scales: Marin's between-firm half width net
# of the AR(1) within variance, X's between/within scales, and B's lognormal
# sigma from its coefficient of variation (Lev's depends on n_years)
_MARIN_HALF_WIDTH = math.sqrt(3.0 * (DEFAULT_MOMENT_TARGETS["Marin"][1]**2
                                     - _MARIN_AR_SD**2 / (1.0 - _MARIN_AR_RHO**2)))
_X_SCALE = DEFAULT_MOMENT_TARGETS["X"][1] / math.hypot(_X_FIRM_SD, _X_NOISE_SD)
_X_BETWEEN_SD, _X_WITHIN_SD = _X_FIRM_SD * _X_SCALE, _X_NOISE_SD * _X_SCALE
_BOOK_CV = DEFAULT_MOMENT_TARGETS["B"][1] / DEFAULT_MOMENT_TARGETS["B"][0]
_BOOK_SIGMA = math.sqrt(math.log(1.0 + _BOOK_CV * _BOOK_CV))
# E[count] * E[s ; s >= 0.05] for count ~ U{0..2}, s ~ U(0.02, 0.09)
_OW_MINOR_EXPECTATION = (_OW_MINOR_MAX_COUNT / 2.0) * (
    (_OW_MINOR_HIGH**2 - 0.05**2) / (2.0 * (_OW_MINOR_HIGH - _OW_MINOR_LOW)))


class DGPConfig(NamedTuple):
    """Configuration of the data-generating process."""

    seed: int = 0
    n_firms: int = 20
    n_years: int = 10
    value_coefficients: dict[str, float] = MappingProxyType(DEFAULT_VALUE_COEFFICIENTS)
    risk_coefficients: dict[str, float] = MappingProxyType(DEFAULT_RISK_COEFFICIENTS)
    risk_effect_scale: float = 0.28
    risk_noise_scale: float = 0.04
    idio_vol: float = 0.028           # monthly idiosyncratic return volatility

    def validate(self) -> None:
        if self.seed < 0:
            raise InfeasibleTargets("seed must be a non-negative integer")
        if self.n_firms < N_MARKETS:
            raise InfeasibleTargets(f"n_firms must be at least the {N_MARKETS} markets")
        if self.n_firms * self.n_years < 30:
            raise InfeasibleTargets("n_firms * n_years must be at least 30")
        for name in ("risk_effect_scale", "risk_noise_scale"):
            if getattr(self, name) <= 0:
                raise InfeasibleTargets(f"{name} must be positive")
        if self.idio_vol < 0:
            raise InfeasibleTargets("idio_vol must be non-negative")

    @property
    def years(self) -> tuple[int, ...]:
        return tuple(range(START_YEAR, START_YEAR + self.n_years))


class TruthRecord(NamedTuple):
    """Every planted parameter of one generated panel."""

    seed: int
    value_coefficients: dict[str, float]
    risk_coefficients: dict[str, float]
    value_average_marin_effect: float
    risk_average_marin_effect: float
    entity_effects_value: dict[str, float]
    entity_effects_risk: dict[str, float]
    betas_true: dict[tuple[str, int], float]
    betas_window: dict[tuple[str, int], float]
    expected_moments: dict[str, float]
    price_redraws: int = 0

    def to_json(self) -> str:
        """truth.json's text: every field, and the schema version, by sorted key."""
        data = self._asdict()
        for name in _NESTED_TRUTH:
            by_firm: dict[str, dict[str, float]] = {}
            for (firm, year), value in sorted(data[name].items()):
                by_firm.setdefault(firm, {})[str(year)] = value
            data[name] = by_firm
        return _json_text({"schema_version": TRUTH_SCHEMA_VERSION, **data})

    @classmethod
    def from_json(cls, text: str) -> "TruthRecord":
        """The record of ``to_json``'s text; keys that are not fields are ignored.
        A planted coefficient or true beta that is no finite JSON number raises ValueError."""
        data = json.loads(text)
        for name in _NESTED_TRUTH:
            data[name] = {(firm, int(year)): value
                          for firm, by_year in data[name].items()
                          for year, value in by_year.items()}
        for name in ("value_coefficients", "risk_coefficients", "betas_true"):
            if not isinstance(data[name], dict):
                raise ValueError(f"{name} is not a JSON object")
            for key, value in data[name].items():
                # not a bool (true would read as 1.0), not null (as NaN), not a string
                if type(value) not in (int, float) or not math.isfinite(value):
                    raise ValueError(f"{name} {key!r}: {json.dumps(value)} is not a finite number")
        return cls(**{name: data[name] for name in cls._fields if name in data})


class SynthResult(NamedTuple):
    dataset: PanelDataset
    fundamentals_csv: str
    prices_csv: str
    riskfree_csv: str
    truth: TruthRecord


class CoefficientCheck(NamedTuple):
    variable: str
    estimate: float
    truth: float
    std_error: float
    passed: bool


def _stratified_uniform(rng, n, low, high):
    """One draw per bin of an n-bin partition, in random bin order."""
    perm = rng.permutation(n)
    u = rng.random(n)
    return low + (perm + u) / n * (high - low)


def _stratified_normal(rng, n, mean, sd):
    # quantiles clipped to the inner 99%: keeps firm-level draws bounded so
    # the planted linear price equation retains positive support
    q = np.clip((rng.permutation(n) + rng.random(n)) / n, 0.005, 0.995)
    return mean + sd * np.array([_ndtri(v) for v in q.tolist()])


def _reflect(values, low, high):
    """Fold values into [low, high] (triangle-wave reflection)."""
    span = high - low
    out = np.mod(np.asarray(values, dtype=float) - low, 2 * span)
    out = np.where(out > span, 2 * span - out, out)
    return out + low


def _fold_mean_lift(center, half, low, high, sd) -> float:
    """Expected mean shift caused by reflecting grid +/- noise into [low, high].

    For a uniform grid on [center-half, center+half] with N(0, sd) deviations,
    a single fold at each bound shifts the mean by 2 E[(low - x)+] - 2 E[(x - high)+].
    Used to pre-compensate the grid center (analytic, seed independent).
    """
    if sd <= 0:
        return 0.0
    mu = np.linspace(center - half, center + half, 201)
    z = np.stack([(mu - low) / sd, (high - mu) / sd])
    tail = _cephes_ndtr(-z)
    lift = 2.0 * sd * (np.exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) - z * tail)
    return float(np.mean(lift[0] - lift[1]))


def _ar1_deviations(rng, rho, sd, n):
    """Stationary AR(1) deviations around zero."""
    prev = rng.normal(0.0, sd / np.sqrt(1.0 - rho * rho))
    out = []
    for innovation in rng.normal(0.0, sd, n).tolist():
        prev = rho * prev + innovation
        out.append(prev)
    return np.array(out)


def _lev_half_width(n_years: int) -> float:
    """Lev's between-firm half width net of the walk's within variance.

    Raises :class:`InfeasibleTargets` when the walk alone exceeds the Lev
    std target (161 or more years). The widest case, one year, gives 0.31,
    which keeps the grid around the Lev mean inside ``_LEV_BOUNDS``.
    """
    between = DEFAULT_MOMENT_TARGETS["Lev"][1]**2 - _LEV_WALK_SD**2 * (n_years + 1) / 2.0
    if between <= 0:
        raise InfeasibleTargets("Lev std target below the within-firm variation")
    return math.sqrt(3.0 * between)


def _expected_moments(n_years: int) -> dict[str, float]:
    mean = {name: m for name, (m, _) in DEFAULT_MOMENT_TARGETS.items()}
    half_span = (n_years - 1) / 2.0
    age0_hi = max(_AGE0_LOW, round(2 * (mean["Age"] - half_span) - _AGE0_LOW))
    e_age = (_AGE0_LOW + age0_hi) / 2.0 + half_span
    e_size = _LN_ASSETS_MEAN + _GROWTH_MEAN * half_span
    growth = 1.0 + _BOOK_GROWTH_MEAN
    avg_growth = np.mean([growth ** k for k in range(1, n_years + 1)])
    return {
        "Marin": mean["Marin"],
        "Age": e_age,
        "Size": e_size,
        "Lev": mean["Lev"],
        "OW": mean["OW"],
        "OW*Marin": mean["OW"] * mean["Marin"],
        "X": mean["X"],
        "B": mean["B"],
        "book0": mean["B"] / float(avg_growth),
        "age0_hi": float(age0_hi),
    }


def _solve_intercept(target: float, coefficients: dict[str, float],
                     moments: dict[str, float]) -> float:
    return target - sum(c * moments[name] for name, c in coefficients.items())


def generate_panel(cfg: DGPConfig) -> SynthResult:
    """Generate a synthetic panel, its CSV files and the truth record.

    The same (seed, config) produces byte-identical outputs. Fundamentals are
    validated through :func:`build_dataset` via a CSV round trip, never
    bypassed.
    """
    cfg.validate()
    lev_half = _lev_half_width(cfg.n_years)
    rng = np.random.default_rng(cfg.seed)
    moments = _expected_moments(cfg.n_years)
    n, years = cfg.n_firms, cfg.years

    c_value = _solve_intercept(DEFAULT_MOMENT_TARGETS["P"][0], cfg.value_coefficients, moments)
    c_risk = _solve_intercept(DEFAULT_MOMENT_TARGETS["Bet"][0], cfg.risk_coefficients, moments)
    value_coefficients = {"C": c_value, **cfg.value_coefficients}
    risk_coefficients = {"C": c_risk, **cfg.risk_coefficients}

    firm_ids = [f"F{i + 1:03d}" for i in range(n)]
    market_ids = [f"M{j + 1}" for j in range(N_MARKETS)]
    firm_market = {firm_ids[i]: market_ids[i % N_MARKETS] for i in range(n)}

    # risk-free rates per market-year
    rf_series = []
    for market in market_ids:
        base = rng.uniform(0.02, 0.045)
        rates = {y: float(np.clip(base + rng.normal(0.0, 0.003), 0.001, 0.49))
                 for y in years}
        rf_series.append(RiskFreeSeries(market_id=market, rates=rates))

    # monthly market factor returns, pre-panel years included for beta windows
    first_year = START_YEAR - _PRE_PANEL_YEARS
    n_months = 12 * (_PRE_PANEL_YEARS + cfg.n_years)
    market_returns = {m: _MARKET_DRIFT + _MARKET_VOL * rng.standard_normal(n_months)
                      for m in market_ids}

    # firm-level characteristics (stratified across firms); grid centers are
    # pre-compensated for the mean shift the boundary reflection induces
    marin_ar_sd = _MARIN_AR_SD / math.sqrt(1.0 - _MARIN_AR_RHO**2)
    marin_center = moments["Marin"] - _fold_mean_lift(
        moments["Marin"], _MARIN_HALF_WIDTH, *_MARIN_BOUNDS, sd=marin_ar_sd)
    marin_mu = _stratified_uniform(rng, n, marin_center - _MARIN_HALF_WIDTH,
                                   marin_center + _MARIN_HALF_WIDTH)
    lev_walk_sd = _LEV_WALK_SD * math.sqrt((cfg.n_years + 1) / 2.0)
    lev_center = moments["Lev"] - _fold_mean_lift(
        moments["Lev"], lev_half, *_LEV_BOUNDS, sd=lev_walk_sd)
    lev_base = _stratified_uniform(rng, n, lev_center - lev_half, lev_center + lev_half)
    dom_center = moments["OW"] - _OW_MINOR_EXPECTATION
    ow_base = _stratified_uniform(rng, n, dom_center - _OW_DOMINANT_HALF_WIDTH,
                                  dom_center + _OW_DOMINANT_HALF_WIDTH)
    age0 = np.floor(_stratified_uniform(rng, n, _AGE0_LOW,
                                        moments["age0_hi"] + 1.0)).astype(int)
    ln_assets0 = _stratified_normal(rng, n, _LN_ASSETS_MEAN, _LN_ASSETS_SD)
    growth = _stratified_normal(rng, n, _GROWTH_MEAN, _GROWTH_SD)
    turnover = _stratified_uniform(rng, n, _TURNOVER_LOW, _TURNOVER_HIGH)
    rd_share = _stratified_uniform(rng, n, 0.0, _RD_SHARE_HIGH)
    book0 = moments["book0"] * np.exp(
        _stratified_normal(rng, n, -_BOOK_SIGMA**2 / 2.0, _BOOK_SIGMA))
    x_mu = _stratified_normal(rng, n, moments["X"], _X_BETWEEN_SD)
    u_value = _stratified_normal(rng, n, 0.0, _VALUE_EFFECT_SD)
    u_risk = _stratified_normal(rng, n, 0.0, cfg.risk_effect_scale)
    alpha = rng.normal(_ALPHA_MEAN, _ALPHA_SD, size=n)

    # firm-year paths, extended over the pre-panel years that beta windows
    # reach back into (index _PRE_PANEL_YEARS corresponds to the first panel year)
    ny = cfg.n_years
    nfull = ny + _PRE_PANEL_YEARS
    marin_full = np.empty((n, nfull))
    lev_full = np.empty((n, nfull))
    stakes_full, stake_counts_full = [], []   # every firm-year, pre-panel years included
    stakes, stake_counts = [], []             # the panel's firm-years
    size_full = np.empty((n, nfull))
    book_path = np.empty((n, ny))
    x_path = np.empty((n, ny))
    age_full = np.empty((n, nfull))

    ow_lo = dom_center - _OW_DOMINANT_HALF_WIDTH
    ow_hi = dom_center + _OW_DOMINANT_HALF_WIDTH + _OW_WALK_SD
    for i in range(n):
        marin_full[i] = _reflect(marin_mu[i] + _ar1_deviations(rng, _MARIN_AR_RHO,
                                                               _MARIN_AR_SD, nfull),
                                 *_MARIN_BOUNDS)
        lev_full[i] = _reflect(lev_base[i] + np.cumsum(rng.normal(0, _LEV_WALK_SD, nfull)),
                               *_LEV_BOUNDS)
        dominant = _reflect(ow_base[i] + np.cumsum(rng.normal(0, _OW_WALK_SD, nfull)),
                            ow_lo, ow_hi)
        for t in range(nfull):
            count = int(rng.integers(0, _OW_MINOR_MAX_COUNT + 1))
            firm_year = [dominant[t], *rng.uniform(_OW_MINOR_LOW, _OW_MINOR_HIGH, size=count)]
            stakes_full += firm_year
            stake_counts_full.append(len(firm_year))
            if t >= _PRE_PANEL_YEARS:
                stakes += firm_year
                stake_counts.append(len(firm_year))
        size_full[i] = (ln_assets0[i]
                        + growth[i] * (np.arange(nfull) - _PRE_PANEL_YEARS)
                        + rng.normal(0, _LN_ASSETS_NOISE_SD, nfull))
        book_path[i] = np.cumprod(np.concatenate(
            [[book0[i]], 1.0 + rng.normal(_BOOK_GROWTH_MEAN, _BOOK_GROWTH_SD, ny)]))[1:]
        x_path[i] = x_mu[i] + rng.normal(0, _X_WITHIN_SD, ny)
        age_full[i] = age0[i] + np.arange(nfull) - _PRE_PANEL_YEARS

    offsets_full = np.concatenate([[0], np.cumsum(stake_counts_full)])
    ow_full = ownership_concentration(stakes_full, offsets_full).reshape(n, nfull)

    panel_slice = slice(_PRE_PANEL_YEARS, nfull)
    marin_path = marin_full[:, panel_slice]
    lev_path = lev_full[:, panel_slice]
    ow_path = ow_full[:, panel_slice]
    size_path = size_full[:, panel_slice]
    age_path = age_full[:, panel_slice]

    # planted risk equation -> true betas per firm-year, pre-panel years included
    risk_noise = rng.normal(0, cfg.risk_noise_scale, size=(n, nfull))
    betas_full = (c_risk
                  + cfg.risk_coefficients["Marin"] * marin_full
                  + cfg.risk_coefficients["Age"] * age_full
                  + cfg.risk_coefficients["Size"] * size_full
                  + cfg.risk_coefficients["Lev"] * lev_full
                  + cfg.risk_coefficients["OW"] * ow_full
                  + cfg.risk_coefficients["OW*Marin"] * ow_full * marin_full
                  + u_risk[:, None] + risk_noise)
    betas_true_mat = betas_full[:, panel_slice]

    # planted value equation -> share prices, with tail redraws kept positive
    systematic = (c_value
                  + cfg.value_coefficients["B"] * book_path
                  + cfg.value_coefficients["X"] * x_path
                  + cfg.value_coefficients["Marin"] * marin_path
                  + cfg.value_coefficients["Age"] * age_path
                  + cfg.value_coefficients["Size"] * size_path
                  + cfg.value_coefficients["Lev"] * lev_path
                  + cfg.value_coefficients["OW"] * ow_path
                  + cfg.value_coefficients["OW*Marin"] * ow_path * marin_path
                  + u_value[:, None])
    price_noise = rng.normal(0, _VALUE_NOISE_SD, size=(n, ny))
    price_path = systematic + price_noise
    redraws = 0
    for i in range(n):
        for t in range(ny):
            tries = 0
            while price_path[i, t] < _PRICE_FLOOR:
                price_path[i, t] = systematic[i, t] + rng.normal(0, _VALUE_NOISE_SD)
                tries += 1
                redraws += 1
                if tries > 1000:
                    raise InfeasibleTargets(
                        "value equation cannot keep prices positive; "
                        "lower the noise scale or raise the price target")

    # fundamentals rows, firm by firm
    rf_by_market = {s.market_id: s.rates for s in rf_series}
    rates = np.array([[rf_by_market[firm_market[firm]][year] for year in years]
                      for firm in firm_ids])
    assets = np.exp(size_path)
    sales = assets * turnover[:, None]
    rd = rd_share[:, None] * sales
    book_prev = np.column_stack([book0, book_path[:, :-1]])
    table = FundamentalsTable.from_labels(
        np.repeat(firm_ids, ny), np.repeat([firm_market[f] for f in firm_ids], ny),
        stakes, stake_counts, year=np.tile(years, n),
        price=price_path.ravel(), book_value=book_path.ravel(),
        eps=(x_path + rates * book_prev).ravel(), sga=(rd + marin_path * sales).ravel(),
        rd=rd.ravel(), sales=sales.ravel(), total_assets=assets.ravel(),
        total_equity=(lev_path * assets).ravel(),
        establishment_year=(np.array(years) - age_path).astype(np.int64).ravel(),
        book_value_prev=np.where(np.arange(ny) == 0, book0[:, None], np.nan).ravel())

    # each market's 60-month window ending with each panel year, centred once
    ends = [(year - first_year + 1) * 12 for year in years]
    windows = {}
    for market, mkt in market_returns.items():
        for end in ends:
            m = mkt[end - 60:end]
            mc = m - m.mean()
            windows[market, end] = m, mc, mc @ mc
    idio = cfg.idio_vol * rng.standard_normal((n, n_months))
    # firm returns follow the year's true beta; the window beta is the 60-month estimator's target
    betas_true: dict[tuple[str, int], float] = {}
    betas_window: dict[tuple[str, int], float] = {}
    firm_monthly: dict[str, np.ndarray] = {}
    for i, firm in enumerate(firm_ids):
        market = firm_market[firm]
        beta_by_month = np.repeat(betas_full[i], 12)
        firm_monthly[firm] = alpha[i] + beta_by_month * market_returns[market] + idio[i]
        for t, (year, end) in enumerate(zip(years, ends)):
            betas_true[(firm, year)] = float(betas_true_mat[i, t])
            m, mc, mcmc = windows[market, end]
            betas_window[(firm, year)] = float((mc @ (beta_by_month[end - 60:end] * m)) / mcmc)

    # every series closes in every month, markets first, from 100 at the first month
    price_ids = tuple(market_ids) + tuple(firm_ids)
    paths = [market_returns[m] for m in market_ids] + [firm_monthly[f] for f in firm_ids]
    prices = PriceTable(
        series_ids=price_ids,
        codes=np.repeat(np.arange(len(price_ids)), n_months),
        months=np.tile(_month_index(first_year, 1) + np.arange(n_months), len(price_ids)),
        closes=np.concatenate([100.0 * np.cumprod(1.0 + r) for r in paths]))

    fundamentals_csv = fundamentals_to_csv(table)
    prices_csv = prices_to_csv(prices)
    riskfree_csv = riskfree_to_csv(rf_series)

    parsed, rejections = parse_fundamentals(fundamentals_csv)
    if rejections:
        raise InfeasibleTargets(f"generator produced invalid rows: {rejections[:3]}")
    dataset = build_dataset(parsed, parse_riskfree(riskfree_csv))

    e_ow = moments["OW"]
    truth = TruthRecord(
        seed=cfg.seed,
        value_coefficients=value_coefficients,
        risk_coefficients=risk_coefficients,
        value_average_marin_effect=(cfg.value_coefficients["Marin"]
                                    + cfg.value_coefficients["OW*Marin"] * e_ow),
        risk_average_marin_effect=(cfg.risk_coefficients["Marin"]
                                   + cfg.risk_coefficients["OW*Marin"] * e_ow),
        entity_effects_value={firm_ids[i]: float(u_value[i]) for i in range(n)},
        entity_effects_risk={firm_ids[i]: float(u_risk[i]) for i in range(n)},
        betas_true=betas_true,
        betas_window=betas_window,
        expected_moments={k: float(v) for k, v in moments.items()},
        price_redraws=redraws,
    )
    return SynthResult(dataset=dataset, fundamentals_csv=fundamentals_csv,
                       prices_csv=prices_csv, riskfree_csv=riskfree_csv, truth=truth)


def truth_check(report: EstimationReport, truth: TruthRecord) -> tuple[CoefficientCheck, ...]:
    """Flag each reported slope pass/fail against the planted truth.

    A coefficient passes when it lies within 3 robust standard errors of its
    planted value, and a model when every check passes. Only coefficients
    present in both the report and the truth are compared; the intercept is
    skipped.
    """
    model_id, variant = report.model_id, report.marin_variant
    if model_id.startswith("value"):
        planted = truth.value_coefficients
    elif model_id.startswith("risk"):
        planted = truth.risk_coefficients
    else:
        raise ModelMismatch(f"unknown model_id {model_id!r}")
    if variant != "sales_ratio":
        raise ModelMismatch(f"no planted truth for marketing variant {variant!r}")

    checks = []
    for name, coef, se, _ in report.fit.rows():
        if name == "C" or name not in planted:
            continue
        passed = abs(coef - planted[name]) <= 3.0 * se
        checks.append(CoefficientCheck(variable=name, estimate=coef,
                                       truth=planted[name], std_error=se,
                                       passed=passed))
    if not checks:
        raise ModelMismatch(f"no comparable coefficients for model {model_id!r}")
    return tuple(checks)

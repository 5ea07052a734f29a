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

from ._kernels import _exp, _ndtr
from .errors import InfeasibleTargets
from .ingest import (fundamentals_to_csv, parse_fundamentals, parse_riskfree,
                     prices_to_csv, riskfree_to_csv)
from .panel_core import FundamentalsTable, PanelDataset, build_dataset
from .beta import DEFAULT_WINDOW_MONTHS, PriceTable, _month_index
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
_PRE_PANEL_YEARS = -(-DEFAULT_WINDOW_MONTHS // 12)   # the years the first beta window needs
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
        return _json_text(TRUTH_SCHEMA_VERSION, data)

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


def _stratified_uniform(rng, n, low, high):
    """One draw per bin of an n-bin partition, in random bin order."""
    perm = rng.permutation(n)
    u = rng.random(n)
    return low + (perm + u) / n * (high - low)


def _stratified_normal(rng, n, mean, sd):
    # imported here, so that run and verify, which import this module, never load it
    from statistics import NormalDist
    quantile = NormalDist().inv_cdf
    # quantiles clipped to the inner 99%: keeps firm-level draws bounded so
    # the planted linear price equation retains positive support
    q = np.clip((rng.permutation(n) + rng.random(n)) / n, 0.005, 0.995)
    return mean + sd * np.array([quantile(v) for v in q.tolist()])


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
    tail = _ndtr(-z)
    lift = 2.0 * sd * (_exp(-z**2 / 2.0) / np.sqrt(2 * np.pi) - z * tail)
    return float(np.mean(lift[0] - lift[1]))


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


def _by_id_year(ids, years, matrix: np.ndarray) -> dict[tuple[str, int], float]:
    """An ids x years matrix as {(id, year): value}, row by row."""
    return {(name, year): value for name, row in zip(ids, matrix.tolist())
            for year, value in zip(years, row)}


def generate_panel(cfg: DGPConfig) -> SynthResult:
    """Generate a synthetic panel, its CSV files and the truth record.

    The same (seed, config) produces byte-identical outputs. The ``Generator``
    calls come in a fixed order: the market draws, the firm-level draws, one
    loop over firms that makes every per-firm draw, then the risk, price and
    return noise; each firm-year path is computed from the draws as a whole
    firms x years array. Fundamentals are validated through
    :func:`build_dataset` via a CSV round trip, never bypassed.
    """
    cfg.validate()
    lev_half = _lev_half_width(cfg.n_years)
    rng = np.random.default_rng(cfg.seed)
    moments = _expected_moments(cfg.n_years)
    n, years, ny = cfg.n_firms, cfg.years, cfg.n_years

    c_value = _solve_intercept(DEFAULT_MOMENT_TARGETS["P"][0], cfg.value_coefficients, moments)
    c_risk = _solve_intercept(DEFAULT_MOMENT_TARGETS["Bet"][0], cfg.risk_coefficients, moments)
    value_coefficients = {"C": c_value, **cfg.value_coefficients}
    risk_coefficients = {"C": c_risk, **cfg.risk_coefficients}

    firm_ids = [f"F{i + 1:03d}" for i in range(n)]
    market_ids = [f"M{j + 1}" for j in range(N_MARKETS)]
    market = np.arange(n) % N_MARKETS   # firm i trades on market i mod N_MARKETS

    # risk-free rates per market-year: each market's level, then its yearly deviations
    rates = np.empty((N_MARKETS, ny))
    for j in range(N_MARKETS):
        rates[j] = np.clip(rng.uniform(0.02, 0.045) + rng.normal(0.0, 0.003, ny), 0.001, 0.49)

    # monthly market factor returns, pre-panel years included for beta windows
    first_year = START_YEAR - _PRE_PANEL_YEARS
    n_months = 12 * (_PRE_PANEL_YEARS + ny)
    market_returns = _MARKET_DRIFT + _MARKET_VOL * rng.standard_normal((N_MARKETS, n_months))

    # firm-level characteristics (stratified across firms); grid centers are
    # pre-compensated for the mean shift the boundary reflection induces
    marin_ar_sd = _MARIN_AR_SD / math.sqrt(1.0 - _MARIN_AR_RHO**2)
    marin_center = moments["Marin"] - _fold_mean_lift(
        moments["Marin"], _MARIN_HALF_WIDTH, *_MARIN_BOUNDS, sd=marin_ar_sd)
    marin_mu = _stratified_uniform(rng, n, marin_center - _MARIN_HALF_WIDTH,
                                   marin_center + _MARIN_HALF_WIDTH)
    lev_walk_sd = _LEV_WALK_SD * math.sqrt((ny + 1) / 2.0)
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
    book0 = moments["book0"] * _exp(
        _stratified_normal(rng, n, -_BOOK_SIGMA**2 / 2.0, _BOOK_SIGMA))
    x_mu = _stratified_normal(rng, n, moments["X"], _X_BETWEEN_SD)
    u_value = _stratified_normal(rng, n, 0.0, _VALUE_EFFECT_SD)
    u_risk = _stratified_normal(rng, n, 0.0, cfg.risk_effect_scale)
    alpha = rng.normal(_ALPHA_MEAN, _ALPHA_SD, size=n)

    # each firm's draws, firm by firm; the full columns are the extended years,
    # whose index _PRE_PANEL_YEARS is the first panel year (beta windows reach
    # back into the years before it)
    nfull = ny + _PRE_PANEL_YEARS
    marin_ar = np.empty((n, 1 + nfull))   # the stationary start, then the innovations
    lev_steps, ow_steps, size_noise = np.empty((3, n, nfull))
    minor_counts = np.empty((n, nfull), dtype=np.int64)
    minor_stakes = []   # every firm-year's minor stakes, one flat list
    book_growth, x_noise = np.empty((2, n, ny))
    for i in range(n):
        marin_ar[i, 0] = rng.normal(0.0, marin_ar_sd)
        marin_ar[i, 1:] = rng.normal(0.0, _MARIN_AR_SD, nfull)
        lev_steps[i] = rng.normal(0, _LEV_WALK_SD, nfull)
        ow_steps[i] = rng.normal(0, _OW_WALK_SD, nfull)
        for t in range(nfull):
            minor_counts[i, t] = count = rng.integers(0, _OW_MINOR_MAX_COUNT + 1)
            minor_stakes += rng.uniform(_OW_MINOR_LOW, _OW_MINOR_HIGH, size=count).tolist()
        size_noise[i] = rng.normal(0, _LN_ASSETS_NOISE_SD, nfull)
        book_growth[i] = rng.normal(_BOOK_GROWTH_MEAN, _BOOK_GROWTH_SD, ny)
        x_noise[i] = rng.normal(0, _X_WITHIN_SD, ny)

    # the firm-year paths of those draws, as firms x years arrays
    for t in range(1, 1 + nfull):   # Marin's stationary AR(1) deviations
        marin_ar[:, t] += _MARIN_AR_RHO * marin_ar[:, t - 1]
    marin_full = _reflect(marin_mu[:, None] + marin_ar[:, 1:], *_MARIN_BOUNDS)
    lev_full = _reflect(lev_base[:, None] + np.cumsum(lev_steps, axis=1), *_LEV_BOUNDS)
    dominant = _reflect(ow_base[:, None] + np.cumsum(ow_steps, axis=1),
                        dom_center - _OW_DOMINANT_HALF_WIDTH,
                        dom_center + _OW_DOMINANT_HALF_WIDTH + _OW_WALK_SD)
    year_offset = np.arange(nfull) - _PRE_PANEL_YEARS   # years from the first panel year
    size_full = ln_assets0[:, None] + growth[:, None] * year_offset + size_noise
    book = np.cumprod(np.column_stack([book0, 1.0 + book_growth]), axis=1)
    x_path = x_mu[:, None] + x_noise
    age_full = age0[:, None] + year_offset

    # every firm-year's stakes, its dominant stake first, in one ragged list
    holders = 1 + minor_counts
    stakes_full = np.insert(minor_stakes, np.cumsum(minor_counts) - minor_counts.ravel(),
                            dominant.ravel())
    ow_full = ownership_concentration(
        stakes_full, np.concatenate([[0], np.cumsum(holders)])).reshape(n, nfull)
    # the draws are spent: freed here, they do not add to the CSV writers' peak memory
    del marin_ar, lev_steps, ow_steps, size_noise, minor_stakes, book_growth, x_noise

    # the panel's firm-years: the last ny extended years, and their stakes
    panel_slice = slice(_PRE_PANEL_YEARS, nfull)
    marin_path, lev_path, ow_path, size_path, age_path = (
        full[:, panel_slice] for full in (marin_full, lev_full, ow_full, size_full, age_full))
    book_prev, book_path = book[:, :-1], book[:, 1:]
    stakes = stakes_full[np.repeat(np.tile(year_offset >= 0, n), holders.ravel())]

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
    for i, t in np.argwhere(price_path < _PRICE_FLOOR).tolist():   # in row-major order
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
    assets = _exp(size_path)
    sales = assets * turnover[:, None]
    rd = rd_share[:, None] * sales
    table = FundamentalsTable.from_labels(
        np.repeat(firm_ids, ny), np.repeat(np.array(market_ids)[market], ny),
        stakes, holders[:, panel_slice].ravel(), year=np.tile(years, n),
        price=price_path.ravel(), book_value=book_path.ravel(),
        eps=(x_path + rates[market] * book_prev).ravel(), sga=(rd + marin_path * sales).ravel(),
        rd=rd.ravel(), sales=sales.ravel(), total_assets=assets.ravel(),
        total_equity=(lev_path * assets).ravel(),
        establishment_year=(np.array(years) - age_path).astype(np.int64).ravel(),
        book_value_prev=np.where(np.arange(ny) == 0, book0[:, None], np.nan).ravel())

    # every series' monthly returns, markets first; row N_MARKETS + i starts as
    # firm i's market's returns, and becomes the firm's own below
    returns = market_returns[np.concatenate([np.arange(N_MARKETS), market])]
    firm_returns = returns[N_MARKETS:]
    beta_by_month = np.repeat(betas_full, 12, axis=1)
    # the window beta (the estimator's target): the within-window slope on the firm's market
    betas_window = np.empty((n, ny))
    for t, end in enumerate(range(12 * (_PRE_PANEL_YEARS + 1), n_months + 1, 12)):
        window = slice(end - DEFAULT_WINDOW_MONTHS, end)
        m = firm_returns[:, window]
        mc = m - m.mean(axis=1, keepdims=True)
        betas_window[:, t] = (np.add.reduce(mc * (beta_by_month[:, window] * m), axis=1)
                              / np.add.reduce(mc * mc, axis=1))
    # firm returns follow the year's true beta: alpha + beta * market + idiosyncratic noise
    firm_returns *= beta_by_month
    firm_returns += alpha[:, None]
    firm_returns += cfg.idio_vol * rng.standard_normal((n, n_months))

    # every series closes in every month, from 100 at the first month
    price_ids = tuple(market_ids) + tuple(firm_ids)
    prices = PriceTable(
        series_ids=price_ids,
        codes=np.repeat(np.arange(len(price_ids)), n_months),
        months=np.tile(_month_index(first_year, 1) + np.arange(n_months), len(price_ids)),
        closes=(100.0 * np.cumprod(1.0 + returns, axis=1)).ravel())

    fundamentals_csv = fundamentals_to_csv(table)
    prices_csv = prices_to_csv(prices)
    riskfree_csv = riskfree_to_csv(_by_id_year(market_ids, years, rates))

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
        betas_true=_by_id_year(firm_ids, years, betas_full[:, panel_slice]),
        betas_window=_by_id_year(firm_ids, years, betas_window),
        expected_moments={k: float(v) for k, v in moments.items()},
        price_redraws=redraws,
    )
    return SynthResult(dataset=dataset, fundamentals_csv=fundamentals_csv,
                       prices_csv=prices_csv, riskfree_csv=riskfree_csv, truth=truth)


def truth_check(planted: dict[str, float],
                rows: list[tuple[str, float, float, float]]) -> list[dict]:
    """Each slope of a table's ``rows`` that has a ``planted`` value, checked.

    ``rows`` are (variable, coefficient, std_error, ...) rows; the intercept is
    skipped. A slope passes when it lies within 3 robust standard errors of its
    planted value.
    """
    return [{"variable": name, "estimate": coef, "truth": planted[name],
             "std_error": se, "passed": abs(coef - planted[name]) <= 3.0 * se}
            for name, coef, se, _ in rows if name != "C" and name in planted]

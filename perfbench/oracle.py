"""Output check (a): the four base models' slopes against a firm-dummy fit.

Everything here is computed from the input CSVs with the standard library
and numpy alone; ``marketpanel`` is never imported, so a fault shared by the
program's ingest, derive, beta and regression layers cannot cancel out.

The firm-dummy (LSDV) regression is solved through the Frisch-Waugh-Lovell
theorem: partialling the dummies out of every column is the same as
subtracting firm means, and least squares on the demeaned columns gives the
dummy regression's slopes exactly. ``dummy_slopes`` builds the dummies
explicitly; the benchmark's tests use it to show the two agree.
"""

import csv
import json
import math
import os

import numpy as np

REL_TOL = 1e-8
OWNERSHIP_THRESHOLD = 0.05
WINDOW_MONTHS = 60
MIN_MONTHS = 48

# model id -> (dependent, regressors), the paper's four base specifications
BASE_MODELS = {
    "value_direct": ("P", ("B", "X", "Marin", "Age", "Size", "Lev")),
    "value_moderated": ("P", ("B", "X", "Marin", "Age", "Size", "Lev", "OW", "OW*Marin")),
    "risk_direct": ("Bet", ("Marin", "Age", "Size", "Lev")),
    "risk_moderated": ("Bet", ("Marin", "Age", "Size", "Lev", "OW", "OW*Marin")),
}


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _monthly_returns(rows):
    """series id -> {month index: simple return}, consecutive months only."""
    closes = {}
    for row in rows:
        index = int(row["year"]) * 12 + int(row["month"]) - 1
        closes.setdefault(row["series_id"].strip(), {})[index] = float(row["close"])
    returns = {}
    for series, by_month in closes.items():
        returns[series] = {i: by_month[i] / by_month[i - 1] - 1.0
                           for i in sorted(by_month) if i - 1 in by_month}
    return returns


def _window_beta(firm, market, year):
    end = year * 12 + 11
    paired = [i for i in range(end - WINDOW_MONTHS + 1, end + 1)
              if i in firm and i in market]
    if len(paired) < MIN_MONTHS:
        return None
    ri = np.array([firm[i] for i in paired])
    rm = np.array([market[i] for i in paired])
    rm_c = rm - rm.mean()
    return float(rm_c @ (ri - ri.mean())) / float(rm_c @ rm_c)


def derive_panel(data_dir):
    """Firm codes and the regression columns of every usable firm-year."""
    fundamentals = _read_rows(os.path.join(data_dir, "fundamentals.csv"))
    rates = {(r["market_id"].strip(), int(r["year"])): float(r["rate"])
             for r in _read_rows(os.path.join(data_dir, "riskfree.csv"))}
    returns = _monthly_returns(_read_rows(os.path.join(data_dir, "prices.csv")))
    by_key = {(r["firm_id"].strip(), int(r["year"])): r for r in fundamentals}

    firms, columns = [], {name: [] for name in
                          ("P", "B", "X", "Marin", "Age", "Size", "Lev", "OW", "Bet")}
    for firm_id, year in sorted(by_key):
        row = by_key[(firm_id, year)]
        prev = by_key.get((firm_id, year - 1))
        if prev is not None:
            book_prev = float(prev["book_value"])
        elif row.get("book_value_2009", "").strip():
            book_prev = float(row["book_value_2009"])
        else:
            continue
        market_id = row["market_id"].strip()
        beta = _window_beta(returns.get(firm_id, {}), returns.get(market_id, {}), year)
        if beta is None:
            continue
        assets = float(row["total_assets"])
        stakes = [float(s) for s in row["stakes"].split(";") if s.strip()]
        firms.append(firm_id)
        columns["P"].append(float(row["price"]))
        columns["B"].append(float(row["book_value"]))
        columns["X"].append(float(row["eps"]) - rates[(market_id, year)] * book_prev)
        columns["Marin"].append((float(row["sga"]) - float(row["rd"])) / float(row["sales"]))
        columns["Age"].append(float(year - int(row["establishment_year"])))
        columns["Size"].append(math.log(assets))
        columns["Lev"].append(float(row["total_equity"]) / assets)
        columns["OW"].append(sum(s for s in stakes if s >= OWNERSHIP_THRESHOLD))
        columns["Bet"].append(beta)
    _, codes = np.unique(np.array(firms), return_inverse=True)
    arrays = {name: np.array(values) for name, values in columns.items()}
    arrays["OW*Marin"] = arrays["Marin"] * arrays["OW"]
    return codes, arrays


def _demean(values, codes):
    counts = np.bincount(codes)
    if values.ndim == 1:
        return values - (np.bincount(codes, weights=values) / counts)[codes]
    means = np.column_stack([np.bincount(codes, weights=values[:, j]) / counts
                             for j in range(values.shape[1])])
    return values - means[codes]


def within_slopes(X, y, codes):
    """Firm-dummy slopes via firm-mean demeaning (Frisch-Waugh-Lovell)."""
    slopes, *_ = np.linalg.lstsq(_demean(X, codes), _demean(y, codes), rcond=None)
    return slopes


def dummy_slopes(X, y, codes):
    """Firm-dummy slopes from an explicit dummy matrix (small panels only)."""
    dummies = np.eye(codes.max() + 1)[codes]
    coef, *_ = np.linalg.lstsq(np.column_stack([X, dummies]), y, rcond=None)
    return coef[:X.shape[1]]


def expected_slopes(data_dir):
    """model id -> {regressor: slope} for the four base models."""
    codes, columns = derive_panel(data_dir)
    expected = {}
    for model_id, (dependent, regressors) in BASE_MODELS.items():
        X = np.column_stack([columns[name] for name in regressors])
        # a column without within-firm variation is dropped, as the program does
        Xw = _demean(X, codes)
        scale = np.maximum(1.0, np.abs(X).max(axis=0))
        keep = [j for j in range(X.shape[1])
                if np.abs(Xw[:, j]).max() > 1e-12 * scale[j]]
        slopes = within_slopes(X[:, keep], columns[dependent], codes)
        expected[model_id] = {regressors[j]: float(b) for j, b in zip(keep, slopes)}
    return expected


def check_tree(tree_dir, expected):
    """Failure messages for the emitted base tables; empty when all agree."""
    failures = []
    for model_id, want in expected.items():
        try:
            with open(os.path.join(tree_dir, f"{model_id}.json"), encoding="utf-8") as handle:
                rows = json.load(handle)["rows"]
        except (OSError, ValueError, KeyError) as exc:
            failures.append(f"{model_id}: unreadable table ({exc})")
            continue
        got = {r["variable"]: r["coefficient"] for r in rows if r["variable"] != "C"}
        if set(got) != set(want):
            failures.append(f"{model_id}: slopes {sorted(got)}, expected {sorted(want)}")
            continue
        for name, value in want.items():
            if got[name] is None or abs(got[name] - value) > REL_TOL * abs(value):
                failures.append(f"{model_id}/{name}: emitted {got[name]!r}, "
                                f"firm-dummy fit {value!r}")
    return failures

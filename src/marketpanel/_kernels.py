"""Distribution tails, the standard normal cdf, k x k triangular algebra and a
byte-stable log and exp, in numpy and ``math`` only.

These kernels keep scipy out of every command. The log, the exp and the normal
cdf of an array are the C library's, element by element, so their bytes do not
move with numpy's SIMD paths. Every name is private, so the fit and
diagnostics layers that call them keep their time. Each tail
is summed on its own side. The log L of its leading factor is a list of terms
(exact products, logs to about 1e-19) that ``math.fsum`` adds exactly, so that
p = exp(L) keeps its relative accuracy at large df and down to p = 1e-300,
where |L| is near 690 (Dekker 1971; DiDonato & Morris 1992, ACM TOMS 708).
"""

import math

import numpy as np

_EPS = 2.0 ** -52
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)
# ln 2 as two doubles; _LN2_HI has 32 bits, so e * _LN2_HI is exact
_LN2_HI, _LN2_LO = 0.6931471803691238, 1.9082149292705877e-10
# past this a the chi-square limit of Beta(a, b) is exact to rounding (its
# error is O(1/a^2)) and the continued fraction would take ~sqrt(a) steps
_LARGE_A = 1e10

# math.log and math.exp, not np.log and np.exp: numpy's vectorised loops can differ
# from the C library's in the last bit, and the derived columns, the statistics
# and synth's files are byte-stable
_log = np.vectorize(math.log, otypes=[float])
_exp = np.vectorize(math.exp, otypes=[float])
# the standard normal cdf, 0.5 erfc(-x / sqrt 2) by the C library's erfc, which
# keeps the lower tail's relative digits: within 5e-14 relative on [-12, 12]
_ndtr = np.vectorize(lambda x: 0.5 * math.erfc(-x * _SQRT_HALF), otypes=[float])


def _prod_err(a: float, b: float, p: float) -> float:
    """a b - p exactly, for p the rounded product a b: each factor is split
    into two halves of 26 bits by Veltkamp's 2^27 + 1 trick."""
    a1 = 134217729.0 * a - (134217729.0 * a - a)
    b1 = 134217729.0 * b - (134217729.0 * b - b)
    a2, b2 = a - a1, b - b1
    return ((a1 * b1 - p) + a1 * b2 + a2 * b1) + a2 * b2


def _mul(c: float, hi: float, lo: float) -> list[float]:
    """Terms summing to c (hi + lo)."""
    p = c * hi
    return [p, _prod_err(c, hi, p), c * lo]


def _dd(terms: list[float]) -> tuple[float, float]:
    """The sum of terms as hi + lo, hi rounded to nearest."""
    hi = math.fsum(terms)
    return hi, math.fsum(terms + [-hi])


def _exp_sum(terms: list[float]) -> float:
    hi, lo = _dd(terms)
    return math.exp(hi) * (1.0 + lo)


def _log_dd(hi: float, lo: float = 0.0) -> list[float]:
    """Terms summing to log(hi + lo) for hi > 0, |lo| about ulp(hi) or less:
    e ln 2 + 2 atanh(u), hi + lo = m 2^e, u = (m - 1) / (m + 1), |u| < 0.18."""
    m, e = math.frexp(hi)
    if m < _SQRT_HALF:
        m, e = 2.0 * m, e - 1
    lo = math.ldexp(lo, -e)
    den = 1.0 + m
    u = (m - 1.0) / den
    p = u * den
    # u + u_lo = (m - 1 + lo) / (den + (m - (den - 1)) + lo); m - 1 - p is exact
    u_lo = ((m - 1.0 - p) - _prod_err(u, den, p) + lo * (1.0 - u) - u * (m - (den - 1.0))) / den
    w = u * u
    series = sum(w ** i / (2 * i + 1) for i in range(1, 12))   # w^12 / 25 < 2e-20
    return [e * _LN2_HI, e * _LN2_LO, 2.0 * u, 2.0 * u_lo / (1.0 - w), 2.0 * u * series]


def _erfc(t: float, t_lo: float) -> float:
    """erfc(t + t_lo) for t_lo within rounding of t > 0, by one Taylor step:
    erfc's relative condition number there is about 2 t^2."""
    return math.erfc(t) - t_lo * 1.1283791670955126 * math.exp(-t * t)   # 2 / sqrt(pi)


def _stirling_rest(z: float) -> float:
    """lgamma(z) - ((z - 1/2) log z - z + log sqrt(2 pi)), by Stirling's series from 15."""
    if z < 15.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _LOG_SQRT_2PI
    w = 1.0 / (z * z)
    return (1.0 / 12 - w * (1.0 / 360 - w * (1.0 / 1260 - w * (1.0 / 1680 - w / 1188)))) / z


def _log_poisson(s: float, lam: float, lam_lo: float) -> list[float]:
    """Terms summing to log(l^s e^-l / Gamma(s + 1)), l = lam + lam_lo, s >= 0:
    z log(l/z) - (l - z) - log(l/z) - log sqrt(2 pi z) - Stirling's rest, z = s + 1."""
    z = s + 1.0
    w = lam / z
    w_lo = ((lam - z * w) - _prod_err(z, w, z * w) + lam_lo) / z
    log_w = _dd(_log_dd(w, w_lo))
    return _mul(z, *log_w) + [z, -lam, -lam_lo, -log_w[0], -log_w[1], -_LOG_SQRT_2PI,
                              -0.5 * math.log(z), -_stirling_rest(z)]


def _chdtrc(df: int, x: float, x_lo: float = 0.0) -> float:
    """P(chi2(df) > x + x_lo) for a positive integer df, by the closed forms.

    With a = df/2 and lam = x/2 the tail is the sum of the terms
    lam^s e^-lam / Gamma(s + 1) over s = a - 1, a - 2, ... >= 0, plus
    erfc(sqrt(lam)) when df is odd, and its complement the sum over s = a,
    a + 1, ... The smaller side is summed, in ratios to its largest term.
    """
    lam, lam_lo = x / 2.0, x_lo / 2.0
    if not 0.0 < lam < math.inf:
        return math.nan if not x >= 0.0 else float(lam == 0.0)
    a = df / 2.0
    if lam > a - 1.0:
        tail = 0.0
        if df % 2:
            t = math.sqrt(lam)
            tail = _erfc(t, ((lam - t * t) - _prod_err(t, t, t * t) + lam_lo) / (2.0 * t))
        if a < 1.0:
            return tail
        s, ratio, total = a - 1.0, 1.0, 1.0
        while s >= 1.0 and ratio > _EPS * total:
            ratio *= s / lam
            total += ratio
            s -= 1.0
        return _exp_sum(_log_poisson(a - 1.0, lam, lam_lo)) * total + tail
    s, ratio, total = a, 1.0, 1.0
    while ratio > _EPS * total:
        s += 1.0
        ratio *= lam / s
        total += ratio
    return 1.0 - _exp_sum(_log_poisson(a, lam, lam_lo)) * total


def _log_beta(a: float, b: float) -> list[float]:
    """Terms summing to log B(a, b)."""
    small, big = sorted((a, b))
    if big < 15.0:
        return [math.lgamma(a), math.lgamma(b), -math.lgamma(a + b)]
    # lgamma(big) - lgamma(big + small) by Stirling's series, no cancellation
    return [math.lgamma(small), small, -(big + small - 0.5) * math.log1p(small / big),
            _stirling_rest(big), -_stirling_rest(big + small)] + _mul(
                -small, *_dd(_log_dd(big)))


def _beta_fraction(a: float, b: float, x: float, y: float, lam: float) -> float:
    """I_x(a, b) B(a, b) / (x^a y^b) for lam = (a + b) y - b >= 0, y = 1 - x:
    the continued fraction BFRAC of DiDonato & Morris, which takes lam, not
    1 - x, and so loses no digits when x is near 1."""
    c, c0, c1 = 1.0 + lam, b / a, 1.0 + 1.0 / a
    n, p, s, an, bn, anp1, bnp1 = 0.0, 1.0, a + 1.0, 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    while True:
        n += 1.0
        t, w, e = n / a, n * (b - n) * x, a / s
        alpha = p * (p + c0) * e * e * (w * x)
        beta = n + w / s + (1.0 + t) / (c1 + t + t) * (c + n * (1.0 + y))
        p, s = 1.0 + t, s + 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _EPS * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0


def _beta_cdf(a: float, b: float, p: float, q: float, d: float) -> float:
    """I_x(a, b), the Beta(a, b) cdf at x = 1 / (1 + r), for odds r = p q / d >= 0.

    The odds come as factors, so x near 1 and r past the float range keep
    their digits: log r and log(1 + r) are exact to about 1e-19."""
    r = p * q / d
    if r == 0.0 or math.isinf(p) or math.isinf(q):
        return float(r == 0.0)
    if r < 2.0 ** 53:
        pq = p * q
        r_lo = ((pq - r * d) - _prod_err(r, d, r * d) + _prod_err(p, q, pq)) / d
        s = 1.0 + r
        s_lo = ((1.0 - s) + r if r < 1.0 else (r - s) + 1.0) + r_lo
        log_r, log_1r = _dd(_log_dd(r, r_lo)), _dd(_log_dd(s, s_lo))
    else:   # 1 + r rounds to r, and r may overflow
        log_r = _dd(_log_dd(p) + _log_dd(q) + [-v for v in _log_dd(d)])
        log_1r = (log_r[0], log_r[1] + 1.0 / r)
    if a > _LARGE_A:
        return _chdtrc(round(2.0 * b), *_dd(_mul(2.0 * a, *log_1r) + _mul(b - 1.0, *log_1r)))
    x, y = (1.0 / (1.0 + r), r / (1.0 + r)) if r < math.inf else (math.exp(-log_r[0]), 1.0)
    # x^a y^b / B(a, b)
    front = _exp_sum(_mul(-(a + b), *log_1r) + _mul(b, *log_r) + [-v for v in _log_beta(a, b)])
    # the offset of y from the mean, from the smaller of x and y
    lam = (a + b) * y - b if y < 0.5 else a - (a + b) * x
    if lam >= 0.0:
        return front * _beta_fraction(a, b, x, y, lam)
    return 1.0 - front * _beta_fraction(b, a, y, x, -lam)


def _stdtr(df: float, t: float) -> float:
    """Student t cdf with 0 < df < inf degrees of freedom."""
    if math.isnan(t):
        return math.nan
    tail = 0.5 * _beta_cdf(df / 2.0, 0.5, abs(t), abs(t), df)
    return tail if t <= 0.0 else 1.0 - tail


def _fdtrc(dfn: int, dfd: float, f: float) -> float:
    """Upper tail of the F(dfn, dfd) distribution for integer dfn, dfd > 0 and f >= 0."""
    if math.isnan(f):
        return math.nan
    return _beta_cdf(dfd / 2.0, dfn / 2.0, f, dfn, dfd)


def _pivoted_qr(r: np.ndarray, b: np.ndarray):
    """Householder QR with column pivoting (Businger & Golub 1965) of r (m x k, m >= k), each
    reflection applied to b too: piv, R (exact zeros below the diagonal) and Q'b, r[:, piv] = Q R.
    Each step brings forward the column of largest remaining norm, the first of equals, as
    LAPACK's ``dgeqp3`` does; the norms are recomputed rather than downdated."""
    a = np.column_stack([r, b])
    piv = np.arange(a.shape[1] - 1)
    for j in range(len(piv)):
        norms = np.sqrt(np.add.reduce(a[j:, j:-1] * a[j:, j:-1]))
        p = j + int(np.argmax(norms))
        a[:, [j, p]], piv[[j, p]] = a[:, [p, j]], piv[[p, j]]
        if norms[p - j] == 0.0:
            break
        v = a[j:, j].copy()
        v[0] += math.copysign(norms[p - j], v[0])
        a[j:, j:] -= np.outer(v, (2.0 / (v @ v)) * (v @ a[j:, j:]))
    return piv, np.triu(a[:, :-1]), a[:, -1]


def _solve_upper(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve r x = b by back substitution; b is a vector or a matrix."""
    x = np.array(b, dtype=float)
    for i in range(len(x) - 1, -1, -1):
        x[i] = (x[i] - r[i, i + 1:] @ x[i + 1:]) / r[i, i]
    return x

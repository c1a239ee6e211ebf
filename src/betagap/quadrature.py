"""Gauss–Jacobi quadrature rules.

``gauss_jacobi(order, a, b)`` gives the nodes and weights of the
``order``-point Gauss rule for ``int_{-1}^{1} (1-x)**a (1+x)**b f(x) dx``;
``a = b = 0`` is Gauss–Legendre.

Gauss–Legendre rules of order ``_ASYMPTOTIC_ORDER`` and above, the
contour's hundreds to thousands of nodes, come without iteration from
Bogaert's asymptotic formulas (SIAM J. Sci. Comput. 36 (2014) A1008).
With ``v = order + 1/2``, ``j_{0,k}`` the ``k``-th zero of ``J_0``
(tabulated, then McMahon's expansion) and ``a_k = j_{0,k} / v``, the
``k``-th node from ``x = 1`` is ``cos(theta_k)`` with ``theta_k =
(j_{0,k} + delta_k) / v``, and its weight is ``2 sin(a_k) / (v**2 a_k
J_1(j_{0,k})**2)`` over one plus a correction; ``delta_k`` and the
correction are three-term series in ``v**-2`` whose coefficients are
Bogaert's polynomial fits in ``a_k**2``.  The weights need no scaling.
Every other rule takes starting nodes from the Golub–Welsch eigenvalues
of the Jacobi matrix (Golub & Welsch, Math. Comp. 23 (1969) 221), or for
Legendre from Tricomi's asymptotic zeros, polished by Newton's method on
the three-term recurrence of the orthonormal polynomials (scaled to ``p_0
= 1``).  Each pass carries ``p`` and ``p'`` as one two-row array, one
fused step per degree in preallocated buffers: the operations of the two
recurrences in their order, in fewer array calls, so the rules keep their
bits.  The weights come from the derivative form ``1 / ((1 - x**2)
p_n'(x)**2)`` scaled to the weight's total mass ``2**(a+b+1) B(a+1,
b+1)``, as ``scipy.special.roots_jacobi`` scales them.

``ratio_moments(power, rate, count)`` needs no rule: it gives the
moments ``int_0^1 (1-r)**power exp(rate r) r**d dr`` in closed form, for
the series that are integrated term by term.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["gauss_jacobi", "ratio_moments"]

#: Newton steps allowed after the starting nodes; one to four suffice.
_NEWTON_STEPS = 8

#: Newton stops after a step this small: convergence is quadratic, so the
#: error left is far below rounding.
_NEWTON_TOL = 1e-15

#: Gauss–Legendre rules of this order and above come from the asymptotic
#: formulas, whose truncation error there is at most 1.1e-17 in a node and
#: 4.4e-17 relative in a weight, far below rounding.
_ASYMPTOTIC_ORDER = 96

#: ``pi`` as a head of 26 significant bits, whose product with ``m / 4`` is
#: exact for every integer ``m < 2**27``, and the tail ``pi - head``.
_PI_HEAD = 3.1415926814079285
_PI_TAIL = -2.7818135228334233e-08

#: ``j_{0,k}``, the zeros of ``J_0``, for ``k <= 20``, and ``J_1(j_{0,k})**2``
#: for ``k <= 21``, each rounded to the nearest double.
_J0_ZEROS = (
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 21.21163662987926, 24.352471530749302,
    27.493479132040253, 30.634606468431976, 33.77582021357357, 36.917098353664045,
    40.05842576462824, 43.19979171317673, 46.341188371661815, 49.482609897397815,
    52.624051841115, 55.76551075501998, 58.90698392608094, 62.048469190227166,
)
_J1_SQUARED = (
    0.2695141239419169, 0.11578013858220369, 0.07368635113640822, 0.05403757319811628,
    0.04266142901724309, 0.0352421034909961, 0.030021070103054673, 0.02614739149530809,
    0.023159121824691393, 0.02078382912226786, 0.01885045066931767, 0.017246157569665008,
    0.0158935181059236, 0.01473762609647219, 0.013738465145387117, 0.012866181737615133,
    0.012098051548626797, 0.011416471224491609, 0.010807592791180204, 0.010260372926280762,
    0.009765897139791051,
)

#: McMahon's expansions beyond the tables, highest power first: ``j_{0,k} =
#: z + mu`` with ``z = pi (k - 1/4)`` and ``mu = r P(r**2)``, ``r = 1/z``;
#: ``J_1(j_{0,k})**2 = q (2/pi**2 + q**4 Q(q**2))`` with ``q = 1/(k - 1/4)``.
_MCMAHON_ZERO = (
    5.09225462402226769498681286758e7, -8.49353580299148769921876983660e5,
    18690.4765282320653831636345064, -567.644412135183381139802038240,
    25.3364147973439050099206349206, -1.82443876720610119047619047619,
    0.246028645833333333333333333333, -0.807291666666666666666666666667e-1, 0.125,
)
_MCMAHON_J1_LEAD = 0.202642367284675542887758926420
_MCMAHON_J1 = (
    0.185395398206345628711318848386, -0.266837393702323757700998557826e-1,
    0.496101423268883102872271417616e-2, -0.123632349727175414724737657367e-2,
    0.433710719130746277915572905025e-3, -0.228969902772111653038747229723e-3,
    0.198924364245969295201137972743e-3, -0.303380429711290253026202643516e-3,
)

#: Bogaert's fits, in ``a**2`` with ``a = j_{0,k} / v``, of the node series'
#: three coefficient functions, highest power first.
_NODE_SERIES = (
    (
        -1.29052996274280508473467968379e-12, 2.40724685864330121825976175184e-10,
        -3.13148654635992041468855740012e-8, 0.275573168962061235623801563453e-5,
        -0.148809523713909147898955880165e-3, 0.416666666665193394525296923981e-2,
        -0.416666666666662959639712457549e-1,
    ),
    (
        2.20639421781871003734786884322e-9, -7.53036771373769326811030753538e-8,
        0.161969259453836261731700382098e-5, -0.253300326008232025914059965302e-4,
        0.282116886057560434805998583817e-3, -0.209022248387852902722635654229e-2,
        0.815972221772932265640401128517e-2,
    ),
    (
        -2.97058225375526229899781956673e-8, 5.55845330223796209655886325712e-7,
        -0.567797841356833081642185432056e-5, 0.418498100329504574443885193835e-4,
        -0.251395293283965914823026348764e-3, 0.128654198542845137196151147483e-2,
        -0.416012165620204364833694266818e-2,
    ),
)

#: The same for the weight series.
_WEIGHT_SERIES = (
    (
        -2.20902861044616638398573427475e-14, 2.30365726860377376873232578871e-12,
        -1.75257700735423807659851042318e-10, 1.03756066927916795821098009353e-8,
        -4.63968647553221331251529631098e-7, 0.149644593625028648361395938176e-4,
        -0.326278659594412170300449074873e-3, 0.436507936507598105249726413120e-2,
        -0.305555555555553028279487898503e-1, 0.833333333333333302184063103900e-1,
    ),
    (
        3.63117412152654783455929483029e-12, 7.67643545069893130779501844323e-11,
        -7.12912857233642220650643150625e-9, 2.11483880685947151466370130277e-7,
        -0.381817918680045468483009307090e-5, 0.465969530694968391417927388162e-4,
        -0.407297185611335764191683161117e-3, 0.268959435694729660779984493795e-2,
        -0.111111111111214923138249347172e-1,
    ),
    (
        2.01826791256703301806643264922e-9, -4.38647122520206649251063212545e-8,
        5.08898347288671653137451093208e-7, -0.397933316519135275712977531366e-5,
        0.200559326396458326778521795392e-4, -0.422888059282921161626339411388e-4,
        -0.105646050254076140548678457002e-3, -0.947969308958577323145923317955e-4,
        0.656966489926484797412985260842e-2,
    ),
)


def _recurrence(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal ``alpha_k`` (``k < order``) and off-diagonal ``b_k``
    (``k <= order``, ``b_0 = 0``) of the Jacobi matrix."""
    k = np.arange(order + 1, dtype=float)
    s = 2.0 * k + a + b
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha = (b * b - a * a) / (s * (s + 2.0))
        off = 4.0 * k * (k + a) * (k + b) * (k + a + b) / (s * s * (s + 1.0) * (s - 1.0))
    # the general forms are 0/0 at k = 0 and, for a + b = -1, at k = 1
    alpha[0] = (b - a) / (a + b + 2.0)
    off[0] = 0.0
    off[1] = 4.0 * (1.0 + a) * (1.0 + b) / ((2.0 + a + b) ** 2 * (3.0 + a + b))
    return alpha[:order], np.sqrt(off)


def _with_derivative(
    x: np.ndarray, alpha: np.ndarray, off: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``p_n(x)`` and ``p_n'(x)`` of the recurrence-normalized polynomials
    (``p_0 = 1``), for ``n = len(alpha)``.

    Each degree is one fused step on the two-row state ``(p, p')``:
    ``next = ((x - alpha_k) state + (0, p) - b_k prev) * (1 / b_{k+1})``,
    in preallocated buffers, with the floating-point operations of the
    separate recurrences for ``p`` and ``p'`` in the same order (a zero
    ``alpha_k``, as in every Legendre step, skips the exact ``x - 0.0``).
    """
    prev = np.zeros((2, len(x)))
    state = np.zeros((2, len(x)))
    state[0] = 1.0
    step = np.empty_like(state)
    scratch = np.empty_like(state)
    buffer = np.empty_like(x)
    for shift, back, inverse in zip(alpha.tolist(), off.tolist(), (1.0 / off[1:]).tolist()):
        shifted = np.subtract(x, shift, out=buffer) if shift else x
        np.multiply(shifted, state, out=step)
        step[1] += state[0]
        np.multiply(back, prev, out=scratch)
        step -= scratch
        step *= inverse
        prev, state, step = state, step, prev
    return state[0], state[1]


def _horner(x: np.ndarray, coefficients: tuple[float, ...]) -> np.ndarray:
    """The polynomial with ``coefficients`` (highest power first) at ``x``."""
    total = np.full_like(x, coefficients[0])
    for c in coefficients[1:]:
        total = total * x + c
    return total


def _series(u2: np.ndarray, x2: np.ndarray, terms: tuple[tuple[float, ...], ...]) -> np.ndarray:
    """``f_1 + u2 (f_2 + u2 f_3)`` with ``f_i`` the fit ``terms[i-1]`` at ``x2``."""
    first, second, third = (_horner(x2, fit) for fit in terms)
    return first + u2 * (second + u2 * third)


def _mcmahon(k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """McMahon's ``mu_k = j_{0,k} - pi (k - 1/4)`` and ``J_1(j_{0,k})**2``,
    within 4e-16 relative of ``j_{0,k}`` and of ``J_1(j_{0,k})**2`` beyond
    the tables."""
    r = 1.0 / (math.pi * (k - 0.25))
    q = 1.0 / (k - 0.25)
    return (
        r * _horner(r * r, _MCMAHON_ZERO),
        q * (_MCMAHON_J1_LEAD + q**4 * _horner(q * q, _MCMAHON_J1)),
    )


def _legendre_asymptotic(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Bogaert's Gauss–Legendre nodes and weights at or above 0, increasing,
    for ``order >= _ASYMPTOTIC_ORDER``.

    Each node angle is ``(head + rest) / v`` with one rounding in the sum:
    ``head`` is ``j_{0,k}`` from the table, or the exact product of ``pi``'s
    head with ``k - 1/4`` (``order < 2**26``), and ``rest`` carries ``pi``'s
    tail, McMahon's ``mu_k = j_{0,k} - pi (k - 1/4)`` and ``delta_k``.
    Nodes with ``theta_k > pi/4`` are ``sin`` of the complement angle
    ``(pi (order/2 - k + 1/2) - mu_k - delta_k) / v``, in which nothing
    cancels; ``cos(theta_k)`` there would carry the rounding of ``theta_k``
    near ``pi/2``.  Every such ``k`` exceeds 20 (``j_{0,20} / 96.5 < pi/4``),
    so ``mu_k`` is McMahon's.  The centre node of an odd order is 0.
    """
    k = np.arange(1.0, (order + 1) // 2 + 1.0)
    mu, j1_squared = _mcmahon(k)
    head = _PI_HEAD * (k - 0.25)
    rest = _PI_TAIL * (k - 0.25) + mu
    head[: len(_J0_ZEROS)] = _J0_ZEROS
    rest[: len(_J0_ZEROS)] = 0.0
    nu = head + rest
    j1_squared[: len(_J1_SQUARED)] = _J1_SQUARED
    v = order + 0.5
    w = 1.0 / v
    alpha = w * nu
    x2 = alpha * alpha
    nu_over_sin = nu / np.sin(alpha)
    u = w * w * nu_over_sin  # alpha / (v sin alpha): the series run in u**2
    u2 = u * u
    delta = alpha * u * _series(u2, x2, _NODE_SERIES)
    scaled = j1_squared * nu_over_sin
    weights = 2.0 * w / (scaled + scaled * u2 * _series(u2, x2, _WEIGHT_SERIES))
    x = np.cos((head + (rest + delta)) / v)
    inner = alpha > math.pi / 4.0
    half = order / 2.0 - k[inner] + 0.5
    x[inner] = np.sin((_PI_HEAD * half + (_PI_TAIL * half - (mu[inner] + delta[inner]))) / v)
    if order % 2:
        x[-1] = 0.0
    return x[::-1], weights[::-1]


def _legendre_guess(order: int) -> np.ndarray:
    """Tricomi's asymptotic Legendre zeros at or above 0, increasing."""
    k = np.arange((order + 1) // 2, 0, -1)
    theta = math.pi * (4.0 * k - 1.0) / (4.0 * order + 2.0)
    n = float(order)
    correction = (39.0 - 28.0 / np.sin(theta) ** 2) / (384.0 * n**4)
    x = (1.0 - (n - 1.0) / (8.0 * n**3) - correction) * np.cos(theta)
    if order % 2:
        x[0] = 0.0
    return x


def _mirrored(x: np.ndarray, w: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The whole symmetric rule from its nodes at or above 0, increasing."""
    lower = slice(order % 2, None)
    return np.concatenate([-x[lower][::-1], x]), np.concatenate([w[lower][::-1], w])


def _newton_rule(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """The rule by Newton's method from Golub–Welsch or, for Legendre,
    Tricomi starting nodes, its weights scaled to the weight's mass."""
    alpha, off = _recurrence(order, a, b)
    legendre = a == 0.0 and b == 0.0
    if legendre:
        x = _legendre_guess(order)
    else:
        matrix = np.diag(alpha) + np.diag(off[1:order], 1) + np.diag(off[1:order], -1)
        x = np.linalg.eigvalsh(matrix)
    for _ in range(_NEWTON_STEPS):
        p, dp = _with_derivative(x, alpha, off)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    _, dp = _with_derivative(x, alpha, off)
    w = 1.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    if legendre:
        x, w = _mirrored(x, w, order)
    log_mass = (
        (a + b + 1.0) * math.log(2.0)
        + math.lgamma(a + 1.0)
        + math.lgamma(b + 1.0)
        - math.lgamma(a + b + 2.0)
    )
    return x, w * (math.exp(log_mass) / math.fsum(w))


@lru_cache(maxsize=128)
def gauss_jacobi(order: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the ``order``-point Gauss rule for
    the weight ``(1-x)**a (1+x)**b`` on ``[-1, 1]``, with ``a, b > -1``.

    Gauss–Legendre rules of order ``_ASYMPTOTIC_ORDER`` and above come
    from Bogaert's iteration-free formulas, every other rule from Newton's
    method (see the module docstring).  Rules are cached, so both arrays
    are read-only.
    """
    if a == 0.0 and b == 0.0 and order >= _ASYMPTOTIC_ORDER:
        x, w = _mirrored(*_legendre_asymptotic(order), order)
    else:
        x, w = _newton_rule(order, a, b)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def ratio_moments(power: int, rate: float, count: int) -> np.ndarray:
    """``exp(-rate) int_0^1 (1-r)**power exp(rate r) r**d dr`` for ``d <
    count``, with ``power`` a nonnegative integer and ``rate >= 0``.

    Expanding ``exp(rate r)`` leaves beta integrals, so the moment ``d``
    times ``exp(-rate)`` is a Poisson mixture of positive terms,

        sum_j pois_j(rate) B(d + j + 1, power + 1),
        B(D + 1, power + 1) = prod_{m=1..power} m / (D + m) / (D + power + 1),

    whatever the rate; at ``rate = 0`` it is ``B(d + 1, power + 1)``.
    The Poisson weights are built by their ratios outward from the mode
    and divided by their sum, over the mode plus or minus ``14
    sqrt(rate) + 40``, beyond which they fall below about ``exp(-98)`` of
    the mode.  Every ``B`` depends on ``d + j`` alone, so the mixture is
    one matrix-vector product over a sliding window of them.
    """
    mode = math.floor(rate)
    reach = math.ceil(14.0 * math.sqrt(rate)) + 40 if rate else 0
    lo, hi = max(mode - reach, 0), mode + reach
    weights = np.ones(hi - lo + 1)
    weights[mode - lo + 1 :] = np.cumprod(rate / np.arange(mode + 1, hi + 1))
    weights[: mode - lo] = np.cumprod(np.arange(mode, lo, -1) / rate)[::-1]
    shifted = np.arange(lo, hi + count, dtype=float)
    beta = 1.0 / (shifted + (power + 1.0))
    for m in range(1, power + 1):
        beta *= m / (shifted + m)
    if not rate:  # one Poisson weight, 1: the mixture is B itself
        return beta
    window = np.lib.stride_tricks.sliding_window_view(beta, len(weights))
    return (window @ weights) / weights.sum()

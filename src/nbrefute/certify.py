"""Sound certificates for the infinity-to-one norm, the scale parameter
lambda, and the Cholesky-verified diagonal witness of a symmetric matrix;
audit checks a certificate of every kind against brute force.

Norm certificate. For sign vectors x and y put u = (x + y)/2 and
v = (x - y)/2: each u_i and v_i is 0 or +-1, and u_i^2 + v_i^2 = 1. For a
symmetric A,

  x^T A y = u^T A u - v^T A v = [u; v]^T S [u; v],  S = block-diag(A, -A),

so for any diagonal W = diag(w) with W - A and W + A PSD, that is
diag(w, w) - S PSD,

  norm_inf_to_one(A) = max_{x, y} x^T A y <= sum_i w_i (u_i^2 + v_i^2)
                     = tr W.

inf_to_one_certificate takes w from the diagonal witness of S with A's
degrees repeated. The two halves share the cone point and so get the same
w, and tr W is half the exact sum of both, rounded up. The paper's weights
lambda + (deg_u - 1)/lambda are one point of that cone, so the certificate
needs no lambda. lambda_certificate computes the paper's lambda for its
PSD witness A >= -lambda Id - (1/lambda)(D - Id) (lowner_witness); no
certificate reads it. Every certificate step is an exact sum (method
exact) or a diagonal witness (cholesky); validate refuses any other method.

Diagonal witness. Given a symmetric S and row degrees deg at least its
absolute row sums (a graph's degrees, for S = +-A), diagonal_witness finds
weights w_u = a + b deg_u (a, b >= 0) with diag(w) - S PSD on the rows of
nonzero degree (S is zero on the rest); the last point it tries is
diagonally dominant. The cone holds the paper's lambda + (deg_u -
1)/lambda as the point a = lambda - 1/lambda, b = 1/lambda. An uncertified
Lanczos estimate picks the direction and scale. Its products run in single
precision, and it stops once its top Ritz values settle; by Cauchy
interlacing they are then at most those of a run to the step cap, to
which it goes on only when the first rung fails. Only a float64 Cholesky
factorization counts. If floating-point Cholesky of H = fl(diag(w) - S -
c Id) runs to completion, diag(w) - S is PSD in exact arithmetic for the
shift c of _cholesky_shift.
That is the test of Rump, "Verification of positive definiteness", BIT 46
(2006), Thm 2.3; the shift here is derived from the backward error of
Higham, Accuracy and Stability of Numerical Algorithms, Thm 10.3, which
gives R^T R = H + dH with |dH| <= gamma_{N+1} |R^T| |R|, so ||dH||_2 <=
gamma_{N+1} ||R||_F^2 <= gamma_{N+1}/(1 - gamma_{N+1}) tr H, and it also
covers the rounding made forming H and, for non-integer weights, the
entries of S, each with a margin. Such a witness is sound with rounding
included.

The factorization is LAPACK's dpotrf, the routine np.linalg.cholesky calls,
run in place on the witness block (linalg.cholesky_in_place), so the
backward error above is the one it makes. It reads H's upper triangle and
consumes it when it runs through; a failed probe copies the triangle back
from the lower one before the next rung. For weights other than +-1 the
block's two triangles can differ in the last bit (A'_sym pairs the same
rows of V in different BLAS calls); entry_err bounds the error of every
entry, so the shift covers whichever triangle is read.
"""

import math
import numbers

import numpy as np

from . import instances
from . import linalg
from . import nonbacktracking

EIG_MARGIN = 1e-6
# Maximum oriented-edge count (2m) for the edge route.
EDGE_ROUTE_CAP = 2048
VALID_METHODS = ("exact", "cholesky")
# Directions w = theta + (1 - theta) deg the witness search compares (the
# bound is nearly flat in theta below 0.95 on random 3-XOR instances), and
# the Lanczos steps that estimate the scale along each.
WITNESS_THETAS = (0.0, 0.5, 0.8, 0.9, 0.95)
LANCZOS_STEPS = 60
# Relative margins over the estimated scale, tried in order; the Gershgorin
# point (1 + last margin) deg + last margin * mean(deg) ends the ladder.
WITNESS_MARGINS = (1e-3, 1e-2, 1e-1)
# The guide checks its estimates every LANCZOS_CHECK steps from twice that,
# and stops once they moved by at most a tenth of the first margin.
LANCZOS_CHECK = 4
LANCZOS_SETTLE = WITNESS_MARGINS[0] / 10
UNIT_ROUNDOFF = 2.0 ** -53
# exact_sum's entry bound: each of its per-exponent bins stays below 2^53.
EXACT_SUM_CAP = 1 << 26


class Certificate:
    """Ordered list of certified steps; the last step's value is the bound.

    Each step is a dict with keys name, claim, value, method. sound is
    computed: True exactly when every method is in VALID_METHODS.
    Extra fields (meta, informative) carry pipeline metadata for the
    refutation certificates.
    """

    def __init__(self, kind, n, steps, final_bound=None, meta=None,
                 informative=None):
        self.kind = str(kind)
        self.n = int(n)
        self.steps = [dict(s) for s in steps]
        if final_bound is None:
            if not self.steps:
                raise ValueError("certificate needs at least one step")
            final_bound = self.steps[-1]["value"]
        self.final_bound = float(final_bound)
        self.meta = dict(meta) if meta else {}
        self.informative = informative

    @property
    def sound(self):
        return all(s.get("method") in VALID_METHODS for s in self.steps)

    def validate(self):
        """Check internal consistency; raises ValueError on violations."""
        if not self.steps:
            raise ValueError("certificate has no steps")
        for s in self.steps:
            for key in ("name", "claim", "value", "method"):
                if key not in s:
                    raise ValueError(f"step missing field {key!r}: {s}")
            if s["method"] not in VALID_METHODS:
                raise ValueError(f"unknown step method {s['method']!r}")
            if (isinstance(s["value"], bool)
                    or not isinstance(s["value"], numbers.Real)):
                raise ValueError(f"step value in {s['name']!r} is not a "
                                 f"number: {s['value']!r}")
            if not np.isfinite(s["value"]):
                raise ValueError(f"non-finite step value in {s['name']!r}")
        if self.final_bound != self.steps[-1]["value"]:
            raise ValueError("final_bound does not equal the last step value")

    def to_json_dict(self):
        out = {
            "kind": self.kind,
            "n": self.n,
            "steps": [dict(s) for s in self.steps],
            "final_bound": self.final_bound,
            "sound": self.sound,
        }
        if self.meta:
            out["meta"] = dict(self.meta)
        if self.informative is not None:
            out["informative"] = bool(self.informative)
        return out

    @classmethod
    def from_json_dict(cls, d):
        # Deliberately lenient: a stored final_bound is kept as-is so a
        # tampered certificate can be loaded and then failed by an audit.
        # Flags must be JSON booleans: bool() would read "false" as True.
        sound, informative = d["sound"], d.get("informative")
        if not isinstance(sound, bool):
            raise ValueError(f"certificate field 'sound' is not a boolean: "
                             f"{sound!r}")
        if informative is not None and not isinstance(informative, bool):
            raise ValueError(f"certificate field 'informative' is not a "
                             f"boolean: {informative!r}")
        cert = cls(d["kind"], d["n"], d["steps"], final_bound=d["final_bound"],
                   meta=d.get("meta"), informative=informative)
        if cert.sound != sound:
            raise ValueError(f"certificate field 'sound' is {sound}, but its "
                             f"steps make it {cert.sound}")
        return cert


def _leads_negative(dense):
    """True when the first nonzero entry (row-major) is negative. The lambda
    value for A and -A is identical mathematically; computing it from the
    representative whose first nonzero entry is positive makes the equality
    exact in floating point as well."""
    flat = dense.ravel()
    return bool(flat[np.argmax(flat != 0)] < 0)


def _max_abs_real_eig(M):
    real = linalg.real_eigenvalues(M)
    return float(np.abs(real).max()) if real.size else 0.0


def _graph(A, mode, z):
    """(A as a dense array, its degrees), validated by
    linalg.symmetric_degrees, after checking mode and z; a graph with no
    edges is a ValueError."""
    dense, degs = linalg.symmetric_degrees(A)
    if mode not in ("eig", "gelfand"):
        raise ValueError(f"unknown mode {mode!r}; use 'eig' or 'gelfand'")
    if int(z) < 1:
        raise ValueError(f"power count must be >= 1, got {z}")
    if not degs.any():
        raise ValueError("empty graph: no edges to certify")
    return dense, degs


def lambda_certificate(A, mode="gelfand", z=16):
    """Scale parameter lambda >= 1 dominating |real spectrum| of B + L - J
    for both +A and -A: equal by a signed-diagonal similarity, and equal
    in floating point too, as it is computed for the sign of A whose first
    nonzero entry is positive.

    The operator M is B + L - J itself (nonbacktracking.edge_operator,
    2m x 2m) on A's rows of nonzero degree when 2m <= EDGE_ROUTE_CAP, else
    the 2n x 2n nonbacktracking.companion_matrix, which has the same
    eigenvalues outside [-1, 1], so the same lambda. Relabelling the kept
    rows in increasing order keeps the canonical edge order and every sign
    convention of nonbacktracking.incidence, so M is the same matrix.

    mode="gelfand": linalg.spectral_radius_upper(M, z), the Frobenius
    power bound ||M^z||_F^(1/z), rigorous up to floating point.
    mode="eig": M's largest absolute real eigenvalue from a dense
    eigensolve, NOT certified, inflated by (1 + EIG_MARGIN).

    Raises ValueError on an empty graph (no edges).
    """
    dense, degs = _graph(A, mode, z)
    if _leads_negative(dense):
        dense = -dense
    if 2 * np.count_nonzero(np.triu(dense, 1)) > EDGE_ROUTE_CAP:
        M = nonbacktracking.companion_matrix(dense, degs)
    else:
        M = nonbacktracking.edge_operator(_kept_rows(dense, degs)[0])
    if mode == "eig":
        raw = _max_abs_real_eig(M) * (1.0 + EIG_MARGIN)
    else:
        raw = linalg.spectral_radius_upper(M, z)
    return max(1.0, float(raw))


def lowner_witness(A, lam):
    """Smallest eigenvalue of the PSD witness A + lam Id + (1/lam)(D - Id).

    The spectral bound predicts a nonnegative value for any lam produced by
    lambda_certificate (tested down to -1e-8 for eigensolver slack).
    """
    lam = float(lam)
    if lam < 1.0:
        raise ValueError(f"lambda must be at least 1, got {lam}")
    dense, degs = linalg.symmetric_degrees(A)
    if not degs.size:
        raise ValueError("empty matrix has no eigenvalues")
    witness = (dense + lam * np.eye(degs.size)
               + (1.0 / lam) * np.diag(degs - 1.0))
    return float(np.linalg.eigvalsh((witness + witness.T) / 2.0)[0])


def inf_to_one_certificate(A, mode="gelfand", z=16):
    """Certificate for norm_inf_to_one(A) <= tr W: one cholesky step whose
    W = diag(w) is the diagonal witness of block-diag(A, -A) (module
    docstring), sound with rounding included. Negation is exact, so the
    block holds A's entries without error. Both modes give this
    certificate; mode and z are only checked. Raises ValueError on an
    empty graph (no edges).
    """
    dense, degs = _graph(A, mode, z)
    n = degs.size
    sym = np.zeros((2 * n, 2 * n))
    sym[:n, :n] = dense
    np.negative(dense, out=sym[n:, n:])
    w, witness = diagonal_witness(sym, np.concatenate((degs, degs)))
    step = {"name": "trace_bound",
            "claim": "norm_inf_to_one(A) <= tr W for the diagonal W = "
                     "diag(a + b deg_u) on rows of nonzero degree, with "
                     "W - A and W + A PSD, verified by Cholesky of "
                     "diag(w, w) - block-diag(A, -A) - c Id",
            "value": round_up(0.5 * exact_sum(w)), "method": "cholesky",
            "witness": witness}
    return Certificate("inf_to_one", n, [step])


def gamma(k):
    """Higham's gamma_k = k u / (1 - k u), u the unit roundoff."""
    return k * UNIT_ROUNDOFF / (1.0 - k * UNIT_ROUNDOFF)


def round_up(x):
    """The next float above x: at least the exact value of the one
    round-to-nearest operation that produced x."""
    return math.nextafter(x, math.inf)


def exact_sum(once, twice=()):
    """Sum of once's entries and twice twice's, rounded once: math.fsum of
    that multiset bit for bit (finite entries; a zero sum is +0.0). After
    Demmel and Hida, SIAM J. Sci. Comput. 25 (2003): np.bincount sums the
    integer top 27 and the 26-bit fraction of each mantissa per exponent,
    exactly (the cap), and one int in units of 2^-1126 adds the bins."""
    t = np.size(twice)
    if np.size(once) + 2 * t >= EXACT_SUM_CAP:
        raise ValueError(f"exact sum exceeds cap {EXACT_SUM_CAP} entries")
    mant, exp = np.frexp(np.concatenate((np.ravel(twice), np.ravel(once))))
    if not np.isfinite(mant).all():
        raise ValueError("exact sum of non-finite entries")
    mant *= 2.0 ** 27
    mant[:t] *= 2.0
    frac, high = np.modf(mant)
    base = int(exp.min(initial=1024))   # finite frexp: in [-1073, 1024]
    exp -= base
    bins = zip(np.bincount(exp, weights=high).tolist(),
               (np.bincount(exp, weights=frac) * 2.0 ** 26).tolist())
    total = sum(((int(h) << 26) + int(f)) << i
                for i, (h, f) in enumerate(bins))
    return (total << (base + 1073)) / (1 << 1126)


def _kept_rows(a, d):
    """(a, d) restricted to the rows of nonzero degree: a view when they
    are a leading range, else a copy. No such row is a ValueError."""
    keep = np.flatnonzero(d)
    if not keep.size:
        raise ValueError("every degree is zero: no row to keep")
    if keep[-1] == keep.size - 1:
        return a[:keep.size, :keep.size], d[:keep.size]
    return a[np.ix_(keep, keep)], d[keep]


def _lanczos_top(a, d, thetas):
    """Yields (steps, top): the top Ritz value of W^(-1/2) a W^(-1/2), W =
    diag(theta + (1 - theta) d), for every theta at once, after that many
    Lanczos steps from a fixed start: a lower estimate of the largest
    eigenvalue, never certified, or +inf where the run went non-finite.
    One Lanczos vector per row: a is symmetric, and v a streams it faster
    than a v^T does.

    Every LANCZOS_CHECK steps from 2 LANCZOS_CHECK it takes the top Ritz
    values of the leading tridiagonal; once every finite one moved by at
    most LANCZOS_SETTLE relative since the last check, it yields them,
    settled. Resumed, it runs the same recurrence on to the cap,
    min(LANCZOS_STEPS, dim), and yields the capped values: the only ones
    when it never settled. A settled tridiagonal is the leading block of
    the capped one, so by Cauchy interlacing its top Ritz values are at
    most the capped ones.

    The products read one float32 copy of a / 4^e, 4^e near max d, made
    here and freed when the run ends or is dropped: they are bound by
    reading a, and half the bytes take about two thirds of the time. 2^e in
    the scale restores the operator exactly, and a block past float32's
    range fits. The recurrence and the eigensolves stay in float64."""
    cap = min(LANCZOS_STEPS, d.size)
    e = math.frexp(float(d.max()))[1] // 2
    single = np.multiply(a, math.ldexp(1.0, -2 * e),
                         out=np.empty(a.shape, np.float32))
    scale = math.ldexp(1.0, e) / np.sqrt(thetas[:, None]
                                         + np.outer(1.0 - thetas, d))
    v = np.random.default_rng(0).standard_normal(scale.shape)
    v /= np.sqrt(np.einsum("ij,ij->i", v, v))[:, None]
    prev = np.zeros_like(v)
    scaled = np.empty(v.shape, np.float32)
    product = np.empty_like(scaled)
    alphas = np.zeros((cap, thetas.size))
    betas = np.zeros((cap, thetas.size))
    last, settled = None, False
    for j in range(cap):
        # a run that goes non-finite is caught by _top_ritz, not warned
        # about
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(scale, v, out=scaled)
            np.matmul(scaled, single, out=product)
            x = np.multiply(product, scale)
            alphas[j] = np.einsum("ij,ij->i", v, x)
            x -= alphas[j, :, None] * v
            if j:
                x -= betas[j - 1, :, None] * prev
            betas[j] = np.sqrt(np.einsum("ij,ij->i", x, x))
            # a zero residual leaves v = 0, and the steps after it add
            # zeros
            prev, v = v, x / np.maximum(betas[j, :, None],
                                        np.finfo(float).tiny)
        steps = j + 1
        if (settled or steps < 2 * LANCZOS_CHECK or steps % LANCZOS_CHECK
                or steps == cap):
            continue
        top = _top_ritz(alphas[:steps], betas[:steps - 1])
        finite = np.isfinite(top)
        if last is not None and np.all(
                np.abs(top[finite] - last[finite])
                <= LANCZOS_SETTLE * np.abs(top[finite])):
            settled = True
            yield steps, top
        last = top
    yield cap, _top_ritz(alphas, betas[:-1])


def _top_ritz(alphas, betas):
    """Top eigenvalue of each direction's tridiagonal, with alphas (steps x
    directions) on its diagonal and betas beside it; +inf where an entry
    is not finite."""
    # the scaled operator has norm at most 1/(1 - theta) <= 20, so a
    # smaller residual means the Krylov space was invariant: the Ritz
    # values split into independent runs
    betas = np.where(betas < 1e-10, 0.0, betas)
    i = np.arange(alphas.shape[0])
    tri = np.zeros((alphas.shape[1],) + (i.size,) * 2)
    tri[:, i, i] = alphas.T
    tri[:, i[1:], i[:-1]] = tri[:, i[:-1], i[1:]] = betas.T
    lost = ~np.isfinite(tri).all(axis=(1, 2))
    tri[lost] = 0.0
    top = np.linalg.eigvalsh(tri)[:, -1]
    top[lost] = np.inf
    return top


def _cholesky_shift(w, diag, entry_err):
    """The shift c for verifying diag(w) - S, whose diagonal is w - diag,
    by Cholesky of fl(diag(w) - S - c Id) (module docstring): the
    backward error gamma/(1 - gamma) tr H with gamma_{N+2} in place of
    gamma_{N+1} (LAPACK's blocked potrf may divide through a reciprocal,
    one rounding more) and a factor 2 for the rounding of tr H itself; 3u
    max |H_uu| for forming the diagonal; entry_err, a bound on the spectral
    norm of the error in S's entries; and an underflow allowance with the
    smallest normal number, far above every subnormal error."""
    big = w + np.abs(diag)
    top = float(big.max())
    dim = w.size
    return float(2.0 * gamma(dim + 2) * exact_sum(big)
                 + 3.0 * UNIT_ROUNDOFF * top + entry_err
                 + 4.0 * dim * (2.0 * dim + top) * np.finfo(float).tiny)


def _factorizes(neg, diag, w, c):
    """Whether Cholesky of diag(w) - S - c Id runs to completion; neg
    holds -S off its diagonal, which is overwritten. The factorization
    (linalg.cholesky_in_place) reads neg's upper triangle in its own
    buffer and consumes it on success; on failure the strict upper
    triangle is copied back from the lower one, row by row (index arrays
    would hold as many indices as entries), ready for the next probe."""
    idx = np.arange(w.size)
    neg[idx, idx] = (w - c) - diag
    if linalg.cholesky_in_place(neg):
        return True
    for i in range(w.size - 1):
        neg[i, i + 1:] = neg[i + 1:, i]
    return False


def diagonal_witness(sym, degs, entry_err=0.0):
    """(w, record): weights w_u = a + b deg_u on the rows of nonzero degree
    with diag(w) - S PSD there for S = sym, verified by one Cholesky
    (module docstring). sym is overwritten: pass a copy to keep it. The
    factorization works on the kept rows in place (a view of sym when
    they are a leading range, else a copy), so beside them the float32
    guide copy, which lives until the first probe's verdict, is the only
    block-size allocation; on return their upper triangle may hold the
    factor. entry_err bounds the spectral norm of the rounding error in
    sym's entries, either triangle's. The record holds a, b, the direction
    theta, the verified scale, the Lanczos estimate and the steps behind
    it, the shift, sym's dimension, the rows kept and the Cholesky probes
    made. All-zero degs are a ValueError.

    Guide: along each direction theta of WITNESS_THETAS, Lanczos estimates
    the least scale s with s W_theta - S PSD, W_theta = diag(theta + (1 -
    theta) deg), from float32 products, stopping once the estimates settle
    (_lanczos_top); the direction minimising s tr W_theta wins. Its
    rounding moves only which rungs are tried. Verify: s (1 + delta)
    W_theta for delta in WITNESS_MARGINS, then the Gershgorin point, until
    the float64 Cholesky runs through; each failed probe restores the
    upper triangle before the next (_factorizes). When the first probe
    fails on a settled estimate, the guide runs on to its cap and the
    ladder restarts from the capped estimate: the settled estimates are at
    most the capped ones, so tr W is never above what the capped guide
    alone gives, and a resumed witness is that guide's, one probe later.
    """
    dim = degs.size
    neg, degs = _kept_rows(sym, degs)
    thetas = np.array(WITNESS_THETAS)
    guide = _lanczos_top(neg, degs, thetas)
    steps, s = next(guide)
    estimate, ladder = _ladder(s, thetas, degs)
    diag = neg.diagonal().copy()
    np.negative(neg, out=neg)
    probes = 0
    while ladder:
        theta, sigma, a_w, b_w = ladder.pop(0)
        w = a_w + b_w * degs
        shift = _cholesky_shift(w, diag, entry_err)
        probes += 1
        if _factorizes(neg, diag, w, shift):
            break
        if guide is not None:
            # the first verdict: a settled guide runs on to its cap, and
            # the run, with its float32 copy, goes
            capped = next(guide, None)
            guide = None
            if capped is not None:
                steps, s = capped
                estimate, ladder = _ladder(s, thetas, degs)
    else:
        raise np.linalg.LinAlgError(
            "no diagonal witness factorized, not even the Gershgorin point")
    return w, {"a": a_w, "b": b_w, "theta": theta, "scale": sigma,
               "estimate": estimate, "lanczos_steps": steps, "shift": shift,
               "dim": dim, "rows": degs.size, "cholesky_probes": probes}


def _ladder(s, thetas, degs):
    """(estimate, rungs) for the Lanczos estimates s along thetas: the
    winning direction's estimate and the (theta, sigma, a, b) rungs w = a +
    b deg = sigma (theta + (1 - theta) deg) of diagonal_witness, in order.
    The last is (1 + delta) deg + delta mean(deg), diagonally dominant with
    a margin that dwarfs the shift on every row, and the only one when
    every direction's estimate went non-finite. It is given by a and b, as
    1 - theta would round b away once delta mean(deg) passes 2^53."""
    traces = thetas * degs.size + (1.0 - thetas) * degs.sum()
    best = int(np.argmin(s * traces))
    estimate, theta = float(s[best]), float(thetas[best])
    rungs = [(theta, sigma, sigma * theta, sigma * (1.0 - theta))
             for sigma in (estimate * (1.0 + delta)
                           for delta in WITNESS_MARGINS)
             if math.isfinite(sigma)]
    a_w, b_w = (WITNESS_MARGINS[-1] * float(degs.mean()),
                1.0 + WITNESS_MARGINS[-1])
    rungs.append((a_w / (a_w + b_w), a_w + b_w, a_w, b_w))
    return estimate, rungs


def audit(subject, cert):
    """Check a certificate, validated first, against the brute-force value
    of its subject: a graph (any matrix linalg.symmetric_degrees accepts)
    for inf_to_one, else an XorInstance or a CspInstance. The report holds
    kind, n, certified_bound, sound_chain and auditable, then
    brute_force_opt and passed (final_bound at least that value, less 1e-12
    for a refutation) or, when linalg.Infeasible refuses the size, the
    reason. An invalid certificate, or one of another kind or n than its
    subject, is a ValueError; other oracle errors propagate."""
    cert.validate()
    # kind -> (subject, oracle, slack), per call so a wrapped oracle is seen
    table = {"inf_to_one": (np.ndarray, linalg.brute_inf_to_one, 0.0),
             "xor_refutation": (instances.XorInstance, instances.brute_opt,
                                1e-12),
             "csp_refutation": (instances.CspInstance,
                                instances.csp_brute_opt, 1e-12)}
    if cert.kind not in table:
        raise ValueError(f"cannot audit certificate of kind {cert.kind!r}")
    subject_type, oracle, slack = table[cert.kind]
    if isinstance(subject, (instances.XorInstance, instances.CspInstance)):
        n, against = subject.n, f"an instance with n = {subject.n}"
    else:
        subject = linalg.symmetric_degrees(subject)[0]
        n, against = len(subject), f"a {len(subject)} x {len(subject)} matrix"
    if not isinstance(subject, subject_type):
        raise ValueError(f"cannot audit a {cert.kind!r} certificate against "
                         f"a {type(subject).__name__}")
    if cert.n != n:
        raise ValueError(f"cannot audit a certificate for n = {cert.n} "
                         f"against {against}")
    report = {"kind": cert.kind, "n": cert.n,
              "certified_bound": cert.final_bound, "sound_chain": cert.sound}
    try:
        opt = oracle(subject)
    except linalg.Infeasible as exc:
        return {**report, "auditable": False, "reason": str(exc)}
    return {**report, "auditable": True, "brute_force_opt": opt,
            "passed": bool(cert.final_bound >= opt - slack)}

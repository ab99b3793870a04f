"""Formal-sum calculus on a group: translations, difference operators,
L^p and Dirichlet norms, the Laplacian, harmonicity tests, the duality
pairing, cocycle extension, truncation and pointwise powers.

Every operator has one dense implementation, on a BallFunction: a vector
over a CayleyBall's vertex indices with an explicit exterior convention.
'zero' extends the function by 0 outside the ball (so norms match the
globally extended function), 'ball' restricts sums to in-ball edges.
FormalSum is the sparse public value, a finitely supported function on
the whole group; an operator lifts a FormalSum argument onto a
'zero'-convention window of its support (see cayley.window), where the
dense result is exact, and lowers a function-valued result back to a
FormalSum.  The difference operators that return functions and the
harmonicity tests lift onto the support plus its 1-step S-closure; every
other operator lifts onto the support alone with its adjacency, where an
exterior slot reads the 0 that alpha holds off its support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Union

import numpy as np

from .cayley import EXTERIOR, CayleyBall, _window, edge_arrays
from .groups import Element, GroupModel

P_MIN, P_MAX = 1.0, 16.0


def _check_p(p: float) -> float:
    p = float(p)
    if not (P_MIN <= p <= P_MAX):
        raise ValueError(f"p must lie in [{P_MIN}, {P_MAX}], got {p}")
    return p


def conjugate_index(p: float) -> float:
    """q with 1/p + 1/q = 1; returns inf for p = 1 (display only)."""
    return math.inf if p == 1.0 else p / (p - 1.0)


class FormalSum:
    """Finitely supported scalar function on G, stored sparsely.
    Zero coefficients are pruned on construction."""

    __slots__ = ("group", "data")

    def __init__(self, group: GroupModel, data: Optional[Dict[Element, complex]] = None):
        self.group = group
        self.data = {x: v for x, v in (data or {}).items() if v != 0}

    @classmethod
    def delta(cls, group: GroupModel, x: Optional[Element] = None) -> "FormalSum":
        if x is None:
            x = group.identity()
        return cls(group, {x: 1.0})

    @classmethod
    def indicator(cls, group: GroupModel, elems: Iterable[Element]) -> "FormalSum":
        return cls(group, {x: 1.0 for x in elems})

    def __call__(self, x: Element):
        return self.data.get(x, 0.0)

    def is_nonnegative(self) -> bool:
        return all((not isinstance(v, complex) or v.imag == 0)
                   and complex(v).real >= 0 for v in self.data.values())

    def __add__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self.data)
        for x, v in other.data.items():
            out[x] = out.get(x, 0.0) + v
        return FormalSum(self.group, out)

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        out = dict(self.data)
        for x, v in other.data.items():
            out[x] = out.get(x, 0.0) - v
        return FormalSum(self.group, out)

    def __mul__(self, c) -> "FormalSum":
        return FormalSum(self.group, {x: c * v for x, v in self.data.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "FormalSum":
        return self * (-1.0)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FormalSum) and self.group is other.group
                and self.data == other.data)

    def __repr__(self):
        n = len(self.data)
        return f"<FormalSum on {self.group.name}, support {n}>"

    def to_json_obj(self) -> list:
        fmt = self.group.format_element
        return [{"element": fmt(x), "re": complex(v).real, "im": complex(v).imag}
                for x, v in sorted(self.data.items(), key=lambda kv: fmt(kv[0]))]

    @classmethod
    def from_json_obj(cls, group: GroupModel, obj: list) -> "FormalSum":
        data = {}
        for rec in obj:
            v = rec["re"] + 1j * rec.get("im", 0.0)
            if v.imag == 0:
                v = v.real
            data[group.parse_element(rec["element"])] = v
        return cls(group, data)


class BallFunction:
    """Dense scalar function over a ball's vertex indices, or a stack of m
    such functions on one ball: values of shape (n,) or (m, n).

    Every scalar operator reduces over the last axis, so on a stack it
    returns one result per row (an array of shape (m,)) from the same code
    that gives a Python scalar for one function; pointwise and Laplacian
    results are stacks again.  to_formal_sum and the harmonicity tests take
    one function only."""

    __slots__ = ("ball", "values", "convention")

    def __init__(self, ball: CayleyBall, values, convention: str = "zero"):
        if convention not in ("zero", "ball"):
            raise ValueError(f"unknown exterior convention {convention!r}")
        values = np.asarray(values)
        if values.ndim not in (1, 2) or values.shape[-1] != ball.n_vertices:
            raise ValueError(f"values must have shape (n,) or (m, n) with n = "
                             f"{ball.n_vertices} ball vertices, got {values.shape}")
        self.ball = ball
        self.values = values
        self.convention = convention

    @classmethod
    def from_formal_sum(cls, ball: CayleyBall, alpha: FormalSum,
                        convention: str = "zero") -> "BallFunction":
        """Values of alpha on the ball's vertices; the rest is dropped.  Real
        unless a value of alpha has a nonzero imaginary part."""
        index = ball.index
        ids = np.array([index.get(x, -1) for x in alpha.data], dtype=np.int64)
        vals = np.array(list(alpha.data.values()))
        real = not np.iscomplexobj(vals) or not vals.imag.any()
        out = np.zeros(ball.n_vertices, dtype=float if real else complex)
        keep = ids >= 0
        out[ids[keep]] = (np.real(vals) if real else vals)[keep]
        return cls(ball, out, convention)

    def to_formal_sum(self) -> FormalSum:
        _require_single(self, "to_formal_sum")
        nz = np.flatnonzero(self.values)
        elems = self.ball.elements
        return FormalSum(self.ball.group,
                         dict(zip([elems[i] for i in nz.tolist()],
                                  self.values[nz].tolist())))

    def copy_with(self, values) -> "BallFunction":
        return BallFunction(self.ball, values, self.convention)

    def __mul__(self, c) -> "BallFunction":
        return self.copy_with(c * self.values)

    __rmul__ = __mul__

    def is_real(self) -> bool:
        return not np.iscomplexobj(self.values) or bool(np.all(self.values.imag == 0))

    def is_nonnegative(self) -> bool:
        return self.is_real() and bool(np.all(np.real(self.values) >= 0))

    def __repr__(self):
        return f"<BallFunction on {self.ball!r}, convention={self.convention}>"


Carrier = Union[FormalSum, BallFunction]


def _require_single(f: BallFunction, what: str):
    if f.values.ndim != 1:
        raise ValueError(f"{what} takes one function, not a stack")


def _scalar(x, cast=float):
    """A reduction over the last axis as the operator returns it: a Python
    scalar for one function, the array of row results for a stack."""
    return cast(x) if np.ndim(x) == 0 else x


@dataclass
class NormReport:
    """The norms of one function; arrays of row norms for a stack."""
    p: float
    q: float
    lp: float               # ||.||_p
    dp_seminorm: float      # ||.||_D(p)
    dp_norm: float          # ||.||_D^p(G)
    at_identity: float      # |alpha(e)|


# ---------------------------------------------------------------------------
# the dense view

def _lift(fs, domain=None, closure: bool = False):
    """The one carrier dispatch: dense views of the operands on one index.

    BallFunctions pass through (they must share a ball) and ``domain`` is
    read as vertex indices.  FormalSums (on one group) are lifted onto one
    'zero'-convention window seeded by their supports and the ``domain``
    elements: on the seeds alone with their adjacency by default, with the
    S-closure when the caller reads values or neighbors off the support.
    Returns (dense operands, domain indices, lower), where lower maps a
    dense result back to the operands' carrier.
    """
    if all(isinstance(f, BallFunction) for f in fs):
        if any(f.ball is not fs[0].ball for f in fs):
            raise ValueError("functions live on different balls")
        idx = None if domain is None else np.asarray(list(domain), dtype=np.int64)
        return list(fs), idx, lambda f: f
    if not all(isinstance(f, FormalSum) for f in fs):
        raise TypeError("operands must all be FormalSums or all BallFunctions")
    group = fs[0].group
    if any(f.group is not group for f in fs):
        raise ValueError("functions live on different groups")
    domain = [] if domain is None else list(domain)
    ball = _window(group, [x for f in fs for x in f.data] + domain, closure)
    idx = np.array([ball.index[x] for x in domain], dtype=np.int64)
    return ([BallFunction.from_formal_sum(ball, f) for f in fs], idx,
            BallFunction.to_formal_sum)


def _differences(f: BallFunction) -> np.ndarray:
    """(..., n, |S|) table of f(x g_j^-1) - f(x).  An EXTERIOR neighbor
    reads 0 under 'zero'; under 'ball' its slot is 0."""
    nbr = f.ball.nbr
    ext = nbr == EXTERIOR
    at_nbr = np.take(f.values, np.clip(nbr, 0, None), axis=-1)
    d = np.where(ext, 0.0, at_nbr) - f.values[..., None]
    return np.where(ext, 0.0, d) if f.convention == "ball" else d


def energy_value(u: np.ndarray, p: float, src, dst, ext_src, convention: str) -> float:
    """sum |u(dst) - u(src)|^p over the directed in-ball pairs, per row of
    a stack u; under 'zero' each exterior-incident slot also appears with
    the exterior endpoint as x, contributing |u|^p a second time."""
    d = np.take(u, dst, axis=-1) - np.take(u, src, axis=-1)
    e = _scalar(np.sum(np.abs(d) ** p, axis=-1))
    if convention == "zero":
        ext = np.take(u, ext_src, axis=-1)
        e = e + 2.0 * _scalar(np.sum(np.abs(ext) ** p, axis=-1))
    return e


# ---------------------------------------------------------------------------
# translations and difference operators

def translate(alpha: FormalSum, g: Element) -> FormalSum:
    """Right translation: result(x) = alpha(x g^-1)."""
    alpha.group.check_elements([g, *alpha.data])
    mul = alpha.group.multiply
    return FormalSum(alpha.group, {mul(x, g): v for x, v in alpha.data.items()})


def _gen_index(group: GroupModel, g: Element) -> int:
    try:
        return group.generators.index(g)
    except ValueError:
        raise ValueError(f"{g!r} is not a generator of {group.name}")


def convolve_diff(beta: Carrier, g: Element) -> Carrier:
    """beta * (g - 1): result(x) = beta(x g^-1) - beta(x), for g in S."""
    (f,), _, lower = _lift([beta], closure=True)
    j = _gen_index(f.ball.group, g)
    return lower(f.copy_with(_differences(f)[..., j]))


def laplacian(alpha: Carrier) -> Carrier:
    """(Lap alpha)(x) = sum_{g in S} (alpha(x g^-1) - alpha(x))."""
    (f,), _, lower = _lift([alpha], closure=True)
    return lower(f.copy_with(_differences(f).sum(axis=-1)))


# ---------------------------------------------------------------------------
# norms

def dirichlet_seminorm_pow(alpha: Carrier, p: float) -> float:
    """sum_{g in S} ||alpha*(g-1)||_p^p."""
    p = _check_p(p)
    (f,), _, _ = _lift([alpha])
    return energy_value(f.values, p, *edge_arrays(f.ball), f.convention)


def lp_norm(alpha: Carrier, p: float) -> float:
    p = _check_p(p)
    (f,), _, _ = _lift([alpha])
    return _scalar(np.sum(np.abs(f.values) ** p, axis=-1) ** (1.0 / p))


def value_at_identity(alpha: Carrier):
    (f,), _, _ = _lift([alpha])
    i = f.ball.index.get(f.ball.group.identity())
    if i is None:
        return _scalar(np.zeros(f.values.shape[:-1]))
    return np.take(f.values, i, axis=-1)


def norms(alpha: Carrier, p: float) -> NormReport:
    """L^p norm, D(p) seminorm, D^p(G) norm and |alpha(e)|."""
    p = _check_p(p)
    (f,), _, _ = _lift([alpha])
    semi_pow = dirichlet_seminorm_pow(f, p)
    ae = abs(value_at_identity(f))
    return NormReport(
        p=p,
        q=conjugate_index(p),
        lp=lp_norm(f, p),
        dp_seminorm=semi_pow ** (1.0 / p),
        dp_norm=(semi_pow + ae ** p) ** (1.0 / p),
        at_identity=ae,
    )


# ---------------------------------------------------------------------------
# harmonicity

@dataclass
class HarmonicityReport:
    harmonic: bool
    max_residual: float


def is_harmonic(alpha: Carrier, domain, tol: float = 1e-10) -> HarmonicityReport:
    """max_{x in domain} |Lap alpha(x)| <= tol."""
    (f,), domain, _ = _lift([alpha], domain, closure=True)
    _require_single(f, "is_harmonic")
    if (f.ball.nbr[domain] == EXTERIOR).any():
        raise ValueError("domain must have all S-neighbors inside the ball")
    lap = _differences(f)[domain].sum(axis=1)
    max_res = float(np.abs(lap).max()) if len(domain) else 0.0
    return HarmonicityReport(harmonic=max_res <= tol, max_residual=max_res)


# ---------------------------------------------------------------------------
# pairing

def pairing(alpha: Carrier, beta: Carrier) -> complex:
    """<alpha, beta> = sum_x sum_g (alpha*(g-1))(x) conj((beta*(g-1))(x)).

    Sesquilinear exactly as displayed.  The D^p/D^q pairing is this same
    sum for every p; it is unconditional for finitely supported input.
    """
    (fa, fb), _, _ = _lift([alpha, beta])
    total = np.sum(_differences(fa) * np.conj(_differences(fb)), axis=(-2, -1))
    if fa.convention == "zero" and fb.convention == "zero":
        # exterior x with x g^-1 in the ball: diffs are (f(ball end) - 0)
        ext = (fa.ball.nbr == EXTERIOR).sum(axis=1)
        total = total + np.sum(ext * fa.values * np.conj(fb.values), axis=-1)
    return _scalar(total, complex)


def harmonicity_via_pairing(alpha: Carrier, domain):
    """alpha is harmonic iff <delta_y, alpha> = 0 for all y; returns
    (harmonic, max |<delta_y, alpha>|) over the domain."""
    (f,), domain, _ = _lift([alpha], domain, closure=True)
    _require_single(f, "harmonicity_via_pairing")
    max_res = 0.0
    for i in domain:
        delta = np.zeros(f.ball.n_vertices)
        delta[i] = 1.0
        max_res = max(max_res, abs(pairing(f.copy_with(delta), f)))
    # <delta_y, alpha> = -2 conj(Lap alpha(y)): twice is_harmonic's 1e-10
    return max_res <= 2.0 * 1e-10, max_res


# ---------------------------------------------------------------------------
# cocycle view

def cocycle_view(alpha: FormalSum) -> Dict[Element, FormalSum]:
    """The 1-cocycle g -> alpha*(g-1) on the generating set."""
    (f,), _, lower = _lift([alpha], closure=True)
    d = _differences(f)
    return {g: lower(f.copy_with(d[:, j]))
            for j, g in enumerate(alpha.group.generators)}


def cocycle_extend(view: Dict[Element, FormalSum], group: GroupModel,
                   word: Iterable[Element]) -> FormalSum:
    """Extend a generator cocycle to a word by delta(wg) = delta(w)_g + delta(g)
    (for right translation alpha_g(x) = alpha(x g^-1))."""
    out = FormalSum(group)
    for g in word:
        out = translate(out, g) + view[g]
    return out


def check_cocycle(alpha: FormalSum, g_word: List[Element], h_word: List[Element]) -> float:
    """Residual of delta(gh) = delta(g)_h + delta(h), where delta is the
    coboundary of alpha; both sides are evaluated independently and also
    compared against alpha*(gh - 1) computed directly."""
    group = alpha.group
    view = cocycle_view(alpha)
    lhs = cocycle_extend(view, group, g_word + h_word)
    g_elem = group.identity()
    for g in g_word:
        g_elem = group.multiply(g_elem, g)
    h_elem = group.identity()
    for h in h_word:
        h_elem = group.multiply(h_elem, h)
    rhs = translate(cocycle_extend(view, group, g_word), h_elem) \
        + cocycle_extend(view, group, h_word)
    res = max((abs(v) for v in (lhs - rhs).data.values()), default=0.0)
    # direct route: alpha*(x-1) = translate(alpha, x) - alpha
    gh = g_elem
    for h in h_word:
        gh = group.multiply(gh, h)
    direct = translate(alpha, gh) - alpha
    res2 = max((abs(v) for v in (lhs - direct).data.values()), default=0.0)
    return max(res, res2)


# ---------------------------------------------------------------------------
# truncation, modulus, powers

def _require_nonnegative(alpha: Carrier, what: str):
    if not alpha.is_nonnegative():
        raise ValueError(f"{what} requires a non-negative real function")


def truncate_min(alpha: Carrier, beta: Carrier) -> Carrier:
    """Pointwise min of two non-negative real functions."""
    _require_nonnegative(alpha, "truncate_min")
    _require_nonnegative(beta, "truncate_min")
    (fa, fb), _, lower = _lift([alpha, beta])
    return lower(fa.copy_with(np.minimum(fa.values, fb.values)))


def modulus(alpha: Carrier) -> Carrier:
    (f,), _, lower = _lift([alpha])
    return lower(f.copy_with(np.abs(f.values)))


def power(alpha: Carrier, t: float) -> Carrier:
    """alpha^t(x) = alpha(x)^t for non-negative real alpha, t >= 1."""
    if t < 1:
        raise ValueError("power requires t >= 1")
    _require_nonnegative(alpha, "power")
    (f,), _, lower = _lift([alpha])
    return lower(f.copy_with(np.real(f.values) ** t))

"""Expected answers, computed apart from the program.

Nothing here imports ellspec.  Lattice arithmetic is on integers: a Gram
matrix G with half-integral entries is carried as the integer matrix
2G, so D(v) = v.(2G).v = 2 deg(v).  In those terms

    c1^2  = -D(c1)                 Delta = (4 c2 + D(c1)) / 8
    m     = min_mu D(c1 - 2 mu) / 8

and the verdict follows the classification by Delta, m, the base genus
and the window of bisection degrees d.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

import mpmath


def twice_gram(gram: list) -> tuple[tuple[int, ...], ...]:
    """2G as integers, from JSON entries that are ints or 'p/q' strings."""
    out = []
    for row in gram:
        cells = []
        for x in row:
            twice = 2 * Fraction(x)
            if twice.denominator != 1:
                raise ValueError(f"gram entry {x!r} is not a half-integer")
            cells.append(int(twice))
        out.append(tuple(cells))
    return tuple(out)


def form(g2, v) -> int:
    """D(v) = v.(2G).v."""
    return sum(g2[i][j] * v[i] * v[j] for i in range(len(v)) for j in range(len(v)))


def cross(g2, v, w) -> int:
    """v.(2G).w, so the intersection number of two classes is -cross."""
    return sum(g2[i][j] * v[i] * w[j] for i in range(len(v)) for j in range(len(w)))


def min_form_brute(g2, c) -> int:
    """min over mu of D(c - 2 mu), enumerated over a proven box.

    Rank 0 and 1 and degenerate rank 2 use closed forms.  For a definite
    binary form the dual form bounds every coordinate of x = c - 2 mu:
    x_i^2 <= D(x) (2G)^-1_ii, and D(x) <= D0 for any minimiser, where D0
    is the value at the rounded centre.
    """
    rank = len(c)
    if rank == 0:
        return 0
    if rank == 1:
        return g2[0][0] * (c[0] % 2)
    (a, b), (_, d) = g2
    det = a * d - b * b
    if det == 0:
        return min_form_degenerate(g2, c)
    mu0 = [round(Fraction(x, 2)) for x in c]
    d0 = form(g2, [x - 2 * y for x, y in zip(c, mu0)])
    best = d0
    bounds = (math.isqrt(d0 * d // det) + 1, math.isqrt(d0 * a // det) + 1)
    ranges = [
        range(math.ceil(Fraction(c[i] - bounds[i], 2)), math.floor(Fraction(c[i] + bounds[i], 2)) + 1)
        for i in range(2)
    ]
    for m0 in ranges[0]:
        for m1 in ranges[1]:
            val = form(g2, (c[0] - 2 * m0, c[1] - 2 * m1))
            if val < best:
                best = val
    return best


def min_form_degenerate(g2, c) -> int:
    """Closed form for a positive semidefinite 2G = [[A, B], [B, C]], AC = B^2.

    With A > 0, D(x) = l(x)^2 / A for l(x) = A x1 + B x2; l(mu) runs over
    h Z with h = gcd(A, B), so min |l(c) - 2 l(mu)| is the distance from
    l(c) to 2hZ.  With A = 0 the form is C x2^2.
    """
    (a, b), (_, cc) = g2
    if a == 0:
        return cc * (c[1] % 2)
    ell = a * c[0] + b * c[1]
    h = math.gcd(a, b)
    r = ell % (2 * h)
    r = min(r, 2 * h - r)
    val = Fraction(r * r, a)
    assert val.denominator == 1
    return int(val)


def min_form_diagonal(n: int, c) -> int:
    """min D(c - 2 mu) for G = diag(n, 1): 2 n [c1 odd] + 2 [c2 odd]."""
    return 2 * n * (c[0] % 2) + 2 * (c[1] % 2)


def delta_of(g2, c1_hom, c2: int) -> Fraction:
    return Fraction(4 * c2 + form(g2, c1_hom), 8)


def d_window(genus: int, m: Fraction) -> tuple[int, int] | None:
    """Admissible bisection degrees max(0, 2m - g/2) <= d <= 2m, or None when empty."""
    d_min = max(0, math.ceil(2 * m - Fraction(genus, 2)))
    d_max = math.floor(2 * m)
    return None if d_min > d_max else (d_min, d_max)


def expected_verdict(genus: int, delta: Fraction, m: Fraction, d: int | None = None) -> dict:
    """Fields of the reply to an 'exists' request, as the classification gives them."""
    out = {
        "verdict": "not-exists",
        "delta": delta,
        "lattice_minimum": m,
        "filtrable": None,
        "recipe": None,
        "threshold_interval": None,
        "d_interval": None,
    }
    if delta < 0:
        return out
    if genus <= 1 or delta >= m:
        out.update(verdict="exists", filtrable=delta >= m)
        if delta >= m:
            out["recipe"] = (m, int(2 * (delta - m)))
        return out
    window = d_window(genus, m)
    out.update(filtrable=False, d_interval=window)
    if d is not None:
        if delta >= m - Fraction(d, 2):
            out["verdict"] = "exists"
        return out
    if window is None:
        return out
    t_lo, t_hi = m - Fraction(window[1], 2), m - Fraction(window[0], 2)
    if delta >= t_hi:
        out["verdict"] = "exists"
    elif delta >= t_lo:
        out.update(verdict="unknown", threshold_interval=(t_lo, t_hi))
    return out


EXIT_CODES = {"exists": 0, "not-exists": 1, "unknown": 2}


def check_exists_reply(reply: dict, want: dict) -> str | None:
    """None when the reply matches, else what differs."""
    got = {
        "verdict": reply.get("verdict"),
        "delta": _frac(reply.get("delta")),
        "lattice_minimum": _frac(reply.get("lattice_minimum")),
        "filtrable": reply.get("filtrable"),
        "recipe": _recipe(reply.get("recipe")),
        "threshold_interval": _pair(reply.get("threshold_interval"), _frac),
        "d_interval": _pair(reply.get("d_interval"), int),
    }
    for key, value in want.items():
        if got[key] != value:
            return f"{key}: got {got[key]!r}, want {value!r}"
    return None


def check_recipe_reply(reply: dict, want: dict, chern: dict) -> str | None:
    """A recipe reply: the verdict, the recipe numbers and the step-by-step transcript."""
    if want["verdict"] != "exists":
        if "error" not in reply or reply.get("verdict") != want["verdict"]:
            return f"expected a refusal with verdict {want['verdict']}, got {reply!r}"
        return None
    if reply.get("verdict") != "exists":
        return f"verdict: got {reply.get('verdict')!r}, want 'exists'"
    got = _recipe(reply.get("recipe"))
    if got != want["recipe"]:
        return f"recipe: got {got!r}, want {want['recipe']!r}"
    if got is None:
        return None if "transcript" not in reply else "transcript without a recipe"
    steps = got[1]
    transcript = reply.get("transcript") or []
    if len(transcript) != steps + 1:
        return f"transcript has {len(transcript)} entries, want {steps + 1}"
    if transcript[-1] != chern:
        return f"transcript ends at {transcript[-1]!r}, want {chern!r}"
    for before, after in zip(transcript, transcript[1:]):
        t0, t1 = before["c1"]["torsion"], after["c1"]["torsion"]
        if (
            after["c2"] != before["c2"] + 1
            or t1[0] != t0[0] - 1
            or t1[1:] != t0[1:]
            or after["c1"]["hom"] != before["c1"]["hom"]
        ):
            return "transcript step is not one elementary modification"
    return None


def _frac(x):
    return None if x is None else Fraction(x)


def _pair(x, conv):
    return None if x is None else (conv(x[0]), conv(x[1]))


def _recipe(doc):
    if doc is None:
        return None
    return (Fraction(doc["base_delta"]), doc["modification_steps"])


# ---------------------------------------------------------------------------
# spectral covers


def line_class(lb: dict, torsion_rank: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    twists = tuple(lb.get("fibre_twists", []))
    twists += (0,) * (torsion_rank - 1 - len(twists))
    return (lb.get("base_twist", 0),) + twists, tuple(lb["section"]["hom"])


def bundle_chern(bundle: dict, g2, torsion_rank: int) -> tuple[tuple, tuple, int]:
    """(c1 torsion, c1 hom, c2) of an extension or a chain of modifications of one."""
    if "elem_mod" in bundle:
        inner = bundle["elem_mod"]
        tors, hom, c2 = bundle_chern(inner["parent"], g2, torsion_rank)
        steps = inner["steps"]
        return (tors[0] - steps,) + tors[1:], hom, c2 + steps
    ext = bundle["extension"]
    _, sub_hom = line_class(ext["D"], torsion_rank)
    det_tors, det_hom = line_class(ext["delta"], torsion_rank)
    quot_hom = tuple(a - b for a, b in zip(det_hom, sub_hom))
    length = sum(n for _, n in ext.get("Z", []))
    return det_tors, det_hom, -cross(g2, sub_hom, quot_hom) + length


def expected_jumps(bundle: dict) -> list[tuple[complex, int]]:
    """Jump fibres of a presentation: its zero cycle plus every modified fibre, merged."""
    if "elem_mod" in bundle:
        inner = bundle["elem_mod"]
        out = expected_jumps(inner["parent"])
        point = complex(*inner["fibre"])
        for i, (p, n) in enumerate(out):
            if p == point:
                out[i] = (p, n + inner["steps"])
                break
        else:
            out.append((point, inner["steps"]))
        return out
    if "spectral_push" in bundle:
        return []
    return [(complex(*p), n) for p, n in bundle["extension"].get("Z", [])]


def _root_bundle(bundle: dict) -> dict:
    while "elem_mod" in bundle:
        bundle = bundle["elem_mod"]["parent"]
    return bundle


def _same_class(a: complex, b: complex, tau: complex, eps: float) -> bool:
    """Equality in C*/<tau>, by comparing log-coordinates modulo the lattice."""
    z = cmath.log(a / b)
    lt = cmath.log(tau)
    k = round(z.real / lt.real)
    z -= k * lt
    return min(abs(z - j * 2j * math.pi) for j in (-1, 0, 1)) <= eps


def check_cover_reply(reply: dict, request: dict, tol: float, samples: int) -> str | None:
    """Accounting identity, jump fibres, dual determinant and the residual bound."""
    surface = request["surface"]
    bundle = request["bundle"]
    tau = complex(*surface["tau"])
    g2 = twice_gram(surface["lattice"]["gram"])
    torsion_rank = 1 + len(surface.get("multiple_fibres", []))
    verification = reply.get("verification") or {}
    if verification.get("samples") != samples:
        return f"verification samples {verification.get('samples')!r}, want {samples}"
    if not verification.get("max_residual", math.inf) <= 10.0 * tol:
        return f"max_residual {verification.get('max_residual')!r} above {10.0 * tol}"
    jumps = [(complex(*p), n) for p, n in reply["jump_fibres"]]
    if sorted(jumps, key=_key) != sorted(expected_jumps(bundle), key=_key):
        return f"jump fibres {jumps!r} differ from the presentation"
    root = _root_bundle(bundle)
    det = root["extension"]["delta"] if "extension" in root else root["spectral_push"]["delta"]
    det_const = complex(*det["section"]["constant"])
    dual = reply["dual_determinant"]
    if tuple(dual["hom"]) != tuple(-h for h in det["section"]["hom"]):
        return "dual determinant hom is not the negated determinant hom"
    if not _same_class(complex(*dual["constant"]), 1.0 / det_const, tau, 1e-9):
        return "dual determinant is not the inverse class of the determinant"
    bis = reply["bisection"]
    if "extension" in root:
        if "reducible" not in bis:
            return "an extension must have a reducible spectral cover"
        _, c1_hom, c2 = bundle_chern(bundle, g2, torsion_rank)
        h1, h2 = (tuple(s["hom"]) for s in bis["reducible"])
        zero_section = (form(g2, h1) + form(g2, h2)) // 2
        support = c2 + form(g2, c1_hom) // 2
        if zero_section + sum(n for _, n in jumps) != support:
            return (
                f"jump total {sum(n for _, n in jumps)} + zero-section intersection "
                f"{zero_section} != c2 - c1^2/2 = {support}"
            )
        return None
    inner = bis.get("irreducible")
    if inner is None:
        return "a spectral push must have an irreducible spectral cover"
    trace = root["spectral_push"]["bisection"]["irreducible"]["trace"]
    want_num = [complex(*c) / det_const for c in trace["num"]]
    got_num = [complex(*c) for c in inner["trace"]["num"]]
    if len(got_num) != len(want_num) or any(
        abs(a - b) > 1e-12 * (1.0 + abs(b)) for a, b in zip(got_num, want_num)
    ):
        return "dual trace is not the trace divided by the determinant constant"
    norm = [complex(*c) for c in inner["norm"]["num"]]
    if len(norm) != 1 or abs(norm[0] - 1.0 / det_const) > 1e-12 * abs(1.0 / det_const):
        return "dual norm is not the inverse determinant constant"
    return None


def _key(item):
    p, n = item
    return (p.real, p.imag, n)


# ---------------------------------------------------------------------------
# the fibre's quotient coordinate, at high precision

DPS = 20


def x_mp(u: complex, tau: complex) -> mpmath.mpc:
    """x(u) = sum_n q^n u/(1 - q^n u)^2 - 2 sum_{n>=1} q^n/(1 - q^n)^2, q = 1/tau."""
    with mpmath.workdps(DPS):
        u = mpmath.mpc(u)
        q = 1 / mpmath.mpc(tau)
        total = u / (1 - u) ** 2
        stop = mpmath.mpf(10) ** (-DPS - 2)
        qn = mpmath.mpc(1)
        n = 0
        while True:
            n += 1
            qn *= q
            total += qn * u / (1 - qn * u) ** 2 + u / qn / (1 - u / qn) ** 2 - 2 * qn / (1 - qn) ** 2
            if abs(qn) * (abs(u) + 1 / abs(u) + 2) < stop:
                return total


def check_preimages(reps: list[complex], target: mpmath.mpc, tau: complex) -> str | None:
    """One or two classes, each mapping to the target, and a pair must be {u, 1/u}."""
    if len(reps) not in (1, 2):
        return f"{len(reps)} classes returned; the quotient is 2:1"
    scale = 1.0 + float(abs(target))
    for u in reps:
        err = float(abs(x_mp(u, tau) - target))
        if err > 1e-7 * scale:
            return f"x({u!r}) misses the target by {err:.3e}"
    if len(reps) == 1:
        if not _same_class(reps[0] * reps[0], 1.0, tau, 1e-6):
            return f"single class {reps[0]!r} is not two-torsion"
        return None
    u, v = reps
    if _same_class(u, v, tau, 1e-9):
        return "the two classes coincide"
    if not _same_class(u * v, 1.0, tau, 1e-9):
        return f"{u!r} and {v!r} are not an inversion pair"
    return None

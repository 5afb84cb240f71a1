#!/usr/bin/env python3
"""Profile the numerical quality of the fibre's degree-two quotient map.

Samples random points of C*/<tau>, measures how far the computed
coordinate drifts under the two exact symmetries (inversion and
multiplication by the periodicity factor), and spot-checks that generic
values have exactly two preimage classes while the three non-identity
two-torsion values have one, and how far that one lies from the class
it came from.

Example:
    python3 scripts/quotient_profile.py --tau 2j --samples 500
"""

from __future__ import annotations

import argparse
import math
import random

from ellspec.tate import (
    CurveParam,
    TatePoint,
    Tolerance,
    class_distance,
    distance_to_identity,
    quotient_x_at,
    two_torsion,
    x_preimages,
)


def sample_point(rng: random.Random, curve: CurveParam) -> TatePoint:
    r = rng.uniform(0.02, 0.98)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return TatePoint(
        abs(curve.tau) ** r * complex(math.cos(theta), math.sin(theta)), curve
    )


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--tau", type=complex, default=4.0, help="fibre multiplier, |tau|>1")
    ap.add_argument("--samples", type=int, default=300)
    ap.add_argument("--eps", type=float, default=1e-12, help="series truncation tolerance")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    curve = CurveParam(args.tau)
    tol = Tolerance(args.eps)
    rng = random.Random(args.seed)

    bands = [(0.0, 0.1), (0.1, 0.3), (0.3, 1.0), (1.0, math.inf)]
    worst = [0.0] * len(bands)
    counts = [0] * len(bands)
    for _ in range(args.samples):
        p = sample_point(rng, curve)
        d = distance_to_identity(p)
        x0 = quotient_x_at(p.rep, curve, tol)
        drift = max(
            abs(quotient_x_at(1.0 / p.rep, curve, tol) - x0),
            abs(quotient_x_at(curve.q * p.rep, curve, tol) - x0),
        )
        for i, (lo, hi) in enumerate(bands):
            if lo <= d < hi:
                worst[i] = max(worst[i], drift)
                counts[i] += 1
                break

    print(f"# tau={args.tau} ({args.samples} samples, eps={args.eps})")
    print("distance to identity   samples   worst symmetry drift")
    for (lo, hi), w, n in zip(bands, worst, counts):
        hi_txt = "inf" if math.isinf(hi) else f"{hi:g}"
        print(f"  [{lo:g}, {hi_txt}) {n:>12} {w:>22.3e}")

    torsion = [t for t in two_torsion(curve) if distance_to_identity(t) > 0]
    generic = 0
    for _ in range(5):
        while True:
            p = sample_point(rng, curve)
            if distance_to_identity(p) > 0.2 and all(
                class_distance(p, t) > 0.15 for t in torsion
            ):
                break
        roots = x_preimages(quotient_x_at(p.rep, curve, tol), curve, tol)
        generic += len(roots)
    print(f"generic preimage classes over 5 values: {generic} (expected 10)")
    for t in torsion:
        roots = x_preimages(quotient_x_at(t.rep, curve, tol), curve, tol)
        dist = min((class_distance(r, t) for r in roots), default=math.inf)
        print(
            f"two-torsion rep {t.rep:.6g}: {len(roots)} preimage class(es), "
            f"class distance to the expected class {dist:.3e}"
        )


if __name__ == "__main__":
    main()

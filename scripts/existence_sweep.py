#!/usr/bin/env python3
"""Sweep existence verdicts over a range of second Chern classes.

Builds one surface from the command line, fixes a first Chern class, and
prints a verdict row per c2: discriminant, lattice minimum, status,
filtrability, and a one-line summary of the replayable recipe when the
decision procedure produces one.

Examples:
    python3 scripts/existence_sweep.py --genus 0 --tau 4
    python3 scripts/existence_sweep.py --genus 1 --tau 3 --gram 1 \
        --exponents 1 --hom 2 --c2=-4:8
    python3 scripts/existence_sweep.py --genus 2 --tau 3 --gram 4 --d 2
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from ellspec.bundles import ExtensionBundle, SpectralPushBundle
from ellspec.existence import existence_verdict
from ellspec.surface import (
    BaseCurve,
    ChernData,
    HomLattice,
    NSClass,
    SurfaceData,
)
from ellspec.tate import CurveParam


def parse_gram(text: str) -> HomLattice:
    if not text:
        return HomLattice(0, ())
    rows = [
        tuple(Fraction(entry) for entry in row.split(","))
        for row in text.split(";")
    ]
    return HomLattice(len(rows), tuple(rows))


def parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",")) if text else ()


def parse_range(text: str) -> range:
    lo, _, hi = text.partition(":")
    return range(int(lo), int(hi) + 1)


def recipe_summary(verdict) -> str:
    if verdict.recipe is None:
        return "-"
    base = verdict.recipe.base
    kind = {ExtensionBundle: "extension", SpectralPushBundle: "push"}.get(
        type(base), type(base).__name__
    )
    return f"{kind} @ delta={verdict.recipe.base_delta} + {verdict.recipe.modification_steps} mods"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--genus", type=int, default=1, help="base curve genus")
    ap.add_argument("--tau", type=complex, default=3.0, help="fibre multiplier, |tau|>1")
    ap.add_argument(
        "--gram",
        default="1",
        help="Gram matrix rows, e.g. '1' or '2,1;1,2' (fractions allowed); '' for rank 0",
    )
    ap.add_argument(
        "--exponents",
        default="",
        help="comma-separated power-map exponents realising the lattice (genus 1 only)",
    )
    ap.add_argument("--torsion", type=int, default=0, help="fibre-class coefficient of c1")
    ap.add_argument("--hom", default="", help="comma-separated horizontal part of c1")
    ap.add_argument("--c2", type=parse_range, default=range(-6, 7), help="c2 range lo:hi")
    ap.add_argument("--d", type=int, default=None, help="assume an irreducible bisection of this degree")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    lattice = parse_gram(args.gram)
    base = BaseCurve(args.genus, tate=CurveParam(args.tau) if args.genus == 1 else None)
    exponents = parse_ints(args.exponents)
    surface = SurfaceData(
        base,
        CurveParam(args.tau),
        lattice=lattice,
        hom_exponents=exponents or None,
    )
    hom = parse_ints(args.hom) or (0,) * lattice.rank
    c1 = NSClass((args.torsion,), hom)

    print(f"# genus={args.genus} tau={args.tau} gram={args.gram!r} c1={(args.torsion, hom)} d={args.d}")
    print(f"{'c2':>4} {'delta':>8} {'m':>6} {'status':>10} {'filtrable':>9}  recipe")
    for c2 in args.c2:
        try:
            v = existence_verdict(ChernData(c1, c2), surface, d=args.d, seed=args.seed)
        except ValueError as exc:  # e.g. a --d outside the admissible window
            ap.error(str(exc))
        filt = "-" if v.filtrable is None else str(v.filtrable)
        extra = recipe_summary(v)
        if v.threshold_interval is not None:
            lo, hi = v.threshold_interval
            extra = f"threshold in [{lo}, {hi}]"
        if v.note:
            extra = f"{extra}  ({v.note})"
        print(
            f"{c2:>4} {str(v.delta):>8} {str(v.lattice_minimum):>6} "
            f"{v.status.value:>10} {filt:>9}  {extra}"
        )


if __name__ == "__main__":
    main()

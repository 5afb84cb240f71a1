"""Command-line interface.

main reads the common command line itself: a subcommand, at most one
input, and flags spelled out in full, each with a value that does not
start with '-' (_read_argv).  Any other command line, --help and every
malformed one included, goes to argparse, so its errors and exit codes
are argparse's own, mapped as below.  Both readers work from one flag
table, _FLAGS.  argparse is imported only for a command line that
_read_argv declines, so a common request does not pay for loading it.

Subcommands read a JSON request (file path or '-' for stdin) and write a
JSON response.  A request carries the surface description plus the
command-specific payload ("chern", "bundle", "classes", "d") and may
embed an "options" object ({"tol", "seed", "verify", "d",
"enum_radius"}); command-line flags override embedded options.  Every
command checks the version, the options and the surface first, in that
order.  Exit codes: 0 affirmative / success, 1 negative, 2 undecided,
64 schema violation (a bad command line included), 70 computational or
validation error.  A recipe transcript holds one entry per modification
step, so a recipe with more than MAX_RECIPE_STEPS steps exits 64.  Work
that grows with an option is capped the same way: "verify" above
MAX_VERIFY_SAMPLES fibres or "enum_radius" above MAX_ENUM_RADIUS (the
cube holds (2r+1)^rank points) exits 64, from a flag or embedded.  So
does a spectral push that does not fit its surface at the request's tol,
or an elem_mod fibre that elementary_modification refuses at it: the
decoder (schemas.decode_bundle) refuses both before any fibre work.  With
--batch the input is an array of requests for the same subcommand; the
output is the array of responses in order and the exit code is the
maximum over the items.  An input that cannot be read or is not UTF-8,
and an --output that cannot be written, exit 64.
Lists of base points need no cap: each point costs a keyed lookup
(surface._BaseIndex), so request work is linear in list lengths.

Replies are JSON with a 2-space indent, the separators "," and ": ",
strings and keys escaped to ASCII, and no NaN or Infinity (a non-finite
float raises ValueError): byte for byte what json.dumps(indent=2,
allow_nan=False) writes.  _dump builds that text directly, because the
stdlib's C encoder serves only unindented output.  A leaf of a dict or
list whose type is exactly str, int, float, bool or None is written
through one table keyed by that type (_LEAVES), without a call of _dump;
any other value, a subclass such as an IntEnum member included, goes
through _dump's isinstance tests.  A recipe's transcript is the ledger
run back from the request's Chern data, which the verdict's replay has
just reached from the base.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import os
import random
import stat
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable

from .bundles import apply_modification_ledger, spectral_cover
from .existence import Existence, Verdict, existence_verdict
from .jacobian import SectionOfJ, genus_and_branching, involution_on_section
from .schemas import (
    SCHEMA_VERSION,
    SchemaError,
    check_version,
    decode_bundle,
    decode_chern,
    decode_ns_class,
    decode_surface,
    encode_chern,
    encode_cover,
    encode_recipe,
    encode_verdict,
)
from .surface import (
    ChernData,
    NSClass,
    SurfaceData,
    filtrable_bound,
    pairing,
    self_intersection,
)
from .tate import (
    TatePoint,
    Tolerance,
    class_distance,
    distance_to_identity,
    quotient_x_at,
)

if TYPE_CHECKING:
    import argparse

MAX_RECIPE_STEPS = 10_000  # transcript entries a recipe reply may hold
MAX_VERIFY_SAMPLES = 10_000  # fibres a spectral-cover verification may sample
MAX_ENUM_RADIUS = 200  # cube radius of the brute-force lattice-minimum check

EX_OK = 0
EX_NEGATIVE = 1
EX_UNDECIDED = 2
EX_SCHEMA = 64
EX_FAILURE = 70

_STATUS_CODES = {
    Existence.EXISTS: EX_OK,
    Existence.NOT_EXISTS: EX_NEGATIVE,
    Existence.UNKNOWN: EX_UNDECIDED,
}


def _merge_options(args: SimpleNamespace, doc: dict) -> SimpleNamespace:
    embedded = doc.get("options", {})
    if not isinstance(embedded, dict):
        raise SchemaError("options: expected an object")

    def pick(flag, key, fallback):
        if flag is not None:
            return flag
        if embedded.get(key) is not None:
            return embedded[key]
        return fallback

    def integer(key, value, least=None, cap=None):
        if value is None:
            return None
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"options.{key}: expected an integer")
        if least is not None and value < least:
            raise SchemaError(f"options.{key}: expected an integer >= {least}")
        if cap is not None and value > cap:
            raise SchemaError(f"options.{key}: exceeds the cap of {cap}")
        return value

    tol = pick(args.tol, "tol", 1e-9)
    # an integer beyond the float range fails the upper bound, not float()
    if isinstance(tol, bool) or not isinstance(tol, (int, float)) or not 0 < tol <= sys.float_info.max:
        raise SchemaError("options.tol: expected a finite positive number")
    return SimpleNamespace(
        tol=Tolerance(float(tol)),
        seed=integer("seed", pick(args.seed, "seed", 0)),
        verify=integer("verify", pick(args.verify, "verify", 50), least=1, cap=MAX_VERIFY_SAMPLES),
        d=integer("d", pick(args.d, "d", None)),
        enum_radius=integer(
            "enum_radius",
            pick(args.enum_radius, "enum_radius", None),
            least=0,
            cap=MAX_ENUM_RADIUS,
        ),
    )


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _parse_json(raw: str, what: str) -> Any:
    """json.loads that rejects NaN, Infinity, numbers that overflow a float,
    integers too long to convert and nesting too deep to decode."""
    try:
        return json.loads(raw, parse_constant=_finite_float, parse_float=_finite_float)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{what} is not valid JSON: {exc}") from exc


def _read_input(path: str) -> Any:
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "rb", buffering=0) as fh:
                raw = fh.read().decode("utf-8")
            # the newline translation that text mode would have applied
            raw = raw.replace("\r\n", "\n").replace("\r", "\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    return _parse_json(raw, "input")


def _request_chern(doc: dict, surface: SurfaceData, args: SimpleNamespace) -> ChernData:
    chern_doc = doc.get("chern")
    if args.c1 is not None or args.c2 is not None:
        chern_doc = dict(chern_doc) if isinstance(chern_doc, dict) else {}
        if args.c1 is not None:
            chern_doc["c1"] = _parse_json(args.c1, "--c1")
        if args.c2 is not None:
            chern_doc["c2"] = args.c2
    return decode_chern(chern_doc, surface)


def _enum_minimum(c1: NSClass, surface: SurfaceData, radius: int) -> Fraction:
    """Brute-force the lattice minimum over the cube [-radius, radius]^rank."""
    cube = itertools.product(range(-radius, radius + 1), repeat=surface.lattice.rank)
    shifts = (tuple(a - 2 * b for a, b in zip(c1.hom, mu)) for mu in cube)
    return Fraction(min(surface.lattice.degree(w) for w in shifts), 4)


def _cross_check_minimum(c1: NSClass, surface: SurfaceData, radius: int | None) -> None:
    if radius is None:
        return
    m, _ = filtrable_bound(c1, surface.lattice)
    brute = _enum_minimum(c1, surface, radius)
    if brute != m:
        raise RuntimeError(
            f"lattice minimum cross-check failed: closed-form {m} vs enumerated {brute} "
            f"(radius {radius})"
        )


def _request_verdict(
    doc: dict, args: SimpleNamespace, opts: SimpleNamespace, surface: SurfaceData, radius: int | None
) -> tuple[ChernData, Verdict]:
    """The Chern data of an exists or recipe request and its verdict, after
    the lattice-minimum cross-check over the given cube radius, if any."""
    cd = _request_chern(doc, surface, args)
    d = opts.d if opts.d is not None else doc.get("d")
    if d is not None and (isinstance(d, bool) or not isinstance(d, int)):
        raise SchemaError("d: expected an integer")
    _cross_check_minimum(cd.c1, surface, radius)
    return cd, existence_verdict(cd, surface, d=d, tol=opts.tol, seed=opts.seed)


def _cmd_exists(doc: dict, args: SimpleNamespace, opts: SimpleNamespace, surface: SurfaceData) -> tuple[dict, int]:
    _, verdict = _request_verdict(doc, args, opts, surface, opts.enum_radius)
    return encode_verdict(verdict), _STATUS_CODES[verdict.status]


def _cmd_recipe(doc: dict, args: SimpleNamespace, opts: SimpleNamespace, surface: SurfaceData) -> tuple[dict, int]:
    cd, verdict = _request_verdict(doc, args, opts, surface, None)
    code = _STATUS_CODES[verdict.status]
    if verdict.status is not Existence.EXISTS:
        return (
            {
                "schema": SCHEMA_VERSION,
                "error": f"no construction: verdict is {verdict.status.value}",
                "verdict": verdict.status.value,
            },
            code,
        )
    out: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "verdict": verdict.status.value,
        "recipe": encode_recipe(verdict.recipe),
    }
    if verdict.recipe is not None:
        if verdict.recipe.modification_steps > MAX_RECIPE_STEPS:
            raise SchemaError(
                f"recipe: {verdict.recipe.modification_steps} modification steps exceed "
                f"the transcript cap of {MAX_RECIPE_STEPS}"
            )
        # the verdict's replay has checked that the steps take the base's
        # Chern data to cd, and the ledger runs backwards exactly
        steps = verdict.recipe.modification_steps
        snapshot = apply_modification_ledger(cd, -steps, surface.lattice)
        transcript = [encode_chern(snapshot)]
        for _ in range(steps):
            snapshot = apply_modification_ledger(snapshot, 1, surface.lattice)
            transcript.append(encode_chern(snapshot))
        out["transcript"] = transcript
    if verdict.note:
        out["note"] = verdict.note
    return out, code


def _cmd_spectral_cover(
    doc: dict, args: SimpleNamespace, opts: SimpleNamespace, surface: SurfaceData
) -> tuple[dict, int]:
    bundle = decode_bundle(doc.get("bundle"), surface, tol=opts.tol)
    cover = spectral_cover(bundle, surface, opts.tol, verify_samples=opts.verify, seed=opts.seed)
    return encode_cover(cover), EX_OK


def _cmd_intersect(
    doc: dict, args: SimpleNamespace, opts: SimpleNamespace, surface: SurfaceData
) -> tuple[dict, int]:
    classes = doc.get("classes")
    if not isinstance(classes, list) or len(classes) != 2:
        raise SchemaError("classes: expected an array of two classes")
    a = decode_ns_class(classes[0], surface, "classes[0]")
    b = decode_ns_class(classes[1], surface, "classes[1]")
    return (
        {
            "schema": SCHEMA_VERSION,
            "pairing": pairing(a, b, surface.lattice),
            "self_intersections": [
                self_intersection(a, surface.lattice),
                self_intersection(b, surface.lattice),
            ],
        },
        EX_OK,
    )


def _cmd_genus(doc: dict, args: SimpleNamespace, opts: SimpleNamespace, surface: SurfaceData) -> tuple[dict, int]:
    cd = _request_chern(doc, surface, args)
    genus, branch = genus_and_branching(cd, surface.base.genus, surface.lattice)
    return (
        {"schema": SCHEMA_VERSION, "genus": genus, "branch_count": branch},
        EX_OK,
    )


# ---------------------------------------------------------------------------
# check: the invariant self-test suite


def _check_hurwitz(surface: SurfaceData, tol: Tolerance, rng: random.Random) -> tuple[bool, str]:
    g = surface.base.genus
    cases = 0
    for c2 in range(-4, 5):
        for t0 in range(-2, 3):
            c1 = NSClass((t0,) + (0,) * (surface.torsion_rank - 1), (0,) * surface.lattice.rank)
            cd = ChernData(c1, c2)
            try:
                cover_genus, branch = genus_and_branching(cd, g, surface.lattice)
            except ValueError:
                continue
            if 2 * cover_genus - 2 != 2 * (2 * g - 2) + branch:
                return False, f"violated at c2={c2}, c1 torsion {t0}"
            cases += 1
    return True, f"{cases} cases"


# Applying (b, l) -> (b, delta_b / l) twice moves l by rounding alone; over
# 180,000 random sections on tau from 50 to 1e15 that was at most 2.6 ulps
# of |l|, and the comparison radius allows 8.
_INVOLUTION_ULPS = 8


def _check_involution(surface: SurfaceData, tol: Tolerance, rng: random.Random) -> tuple[bool, str]:
    curve = surface.fibre
    trials = 25
    radius = max(tol.eps, 1e-9) * 100
    for _ in range(trials):
        delta = SectionOfJ(
            _random_point(curve, rng),
            tuple(rng.randint(-2, 2) for _ in range(surface.lattice.rank)),
        )
        section = SectionOfJ(
            _random_point(curve, rng),
            tuple(rng.randint(-2, 2) for _ in range(surface.lattice.rank)),
        )
        twice = involution_on_section(involution_on_section(section, delta), delta)
        if twice.hom != section.hom:
            return False, "hom part not restored"
        rounding = _INVOLUTION_ULPS * sys.float_info.epsilon * abs(section.constant.rep)
        if not class_distance(twice.constant, section.constant) <= max(radius, rounding):
            return False, "constant part not restored"
    return True, f"{trials} random sections"


def _check_bilinearity(surface: SurfaceData, tol: Tolerance, rng: random.Random) -> tuple[bool, str]:
    trials = 25
    for _ in range(trials):
        a, b, c = (_random_class(surface, rng) for _ in range(3))
        if pairing(a + b, c, surface.lattice) != pairing(a, c, surface.lattice) + pairing(
            b, c, surface.lattice
        ):
            return False, "additivity failed"
        if pairing(a, b, surface.lattice) != pairing(b, a, surface.lattice):
            return False, "symmetry failed"
    return True, f"{trials} random triples"


def _check_x_symmetry(surface: SurfaceData, tol: Tolerance, rng: random.Random) -> tuple[bool, str]:
    curve = surface.fibre
    q = curve.q
    trials = 20
    worst = 0.0
    for _ in range(trials):
        u = _random_point(curve, rng).rep
        x0 = quotient_x_at(u, curve, tol)
        scale = max(1.0, abs(x0))
        for other in (1.0 / u, q * u):
            diff = abs(quotient_x_at(other, curve, tol) - x0)
            worst = max(worst, diff / scale)
            if diff > 1e4 * tol.eps * scale:
                return False, f"x({u:.4f}) differs by {diff:.2e}"
    return True, f"{trials} points, max relative drift {worst:.2e}"


def _random_point(curve, rng: random.Random) -> TatePoint:
    r = rng.uniform(0.08, 0.92)
    theta = rng.uniform(0.0, 2.0 * math.pi)
    rep = abs(curve.tau) ** r * cmath.exp(1j * theta)
    p = TatePoint(rep, curve)
    if distance_to_identity(p) < 1e-3:
        return TatePoint(rep * cmath.exp(0.5j), curve)
    return p


def _random_class(surface: SurfaceData, rng: random.Random) -> NSClass:
    return NSClass(
        tuple(rng.randint(-3, 3) for _ in range(surface.torsion_rank)),
        tuple(rng.randint(-3, 3) for _ in range(surface.lattice.rank)),
    )


_CHECKS: tuple[tuple[str, Callable], ...] = (
    ("hurwitz-identity", _check_hurwitz),
    ("involution-idempotence", _check_involution),
    ("pairing-bilinearity", _check_bilinearity),
    ("quotient-x-symmetry", _check_x_symmetry),
)


def _cmd_check(doc: dict, args: SimpleNamespace, opts: SimpleNamespace, surface: SurfaceData) -> tuple[dict, int]:
    rng = random.Random(opts.seed)
    results = []
    all_passed = True
    for name, fn in _CHECKS:
        passed, detail = fn(surface, opts.tol, rng)
        all_passed = all_passed and passed
        results.append({"name": name, "passed": passed, "detail": detail})
    if opts.enum_radius is not None:
        c1 = NSClass((0,) * surface.torsion_rank, (1,) * surface.lattice.rank)
        try:
            _cross_check_minimum(c1, surface, opts.enum_radius)
            results.append(
                {
                    "name": "lattice-minimum-enumeration",
                    "passed": True,
                    "detail": f"radius {opts.enum_radius}",
                }
            )
        except RuntimeError as exc:
            all_passed = False
            results.append(
                {"name": "lattice-minimum-enumeration", "passed": False, "detail": str(exc)}
            )
    return (
        {"schema": SCHEMA_VERSION, "passed": all_passed, "checks": results},
        EX_OK if all_passed else EX_FAILURE,
    )


_COMMANDS = {
    "exists": _cmd_exists,
    "recipe": _cmd_recipe,
    "spectral-cover": _cmd_spectral_cover,
    "intersect": _cmd_intersect,
    "genus": _cmd_genus,
    "check": _cmd_check,
}


def _run_one(handler, doc: Any, args: SimpleNamespace, newline: str = "\n") -> tuple[dict, int, str]:
    """One request through the preamble every command shares (version,
    options, surface) and then its handler, failures mapped to exit codes;
    with the reply, its code and its text (_dump at newline).  A reply that
    cannot be written, such as an int past Python's digit limit, fails."""
    try:
        check_version(doc)
        opts = _merge_options(args, doc)
        surface = decode_surface(doc.get("surface"))
        body, code = handler(doc, args, opts, surface)
        return body, code, _dump(body, newline)
    except SchemaError as exc:
        error, code = exc, EX_SCHEMA
    except (ValueError, RuntimeError, AssertionError, ZeroDivisionError, OverflowError) as exc:
        error, code = exc, EX_FAILURE
    body = {"schema": SCHEMA_VERSION, "error": str(error), "exit_code": code}
    return body, code, _dump(body, newline)


# Every flag of every subcommand: its type, applied to the value as argparse
# applies it, or None for a switch that takes no value; and its help text.
# build_parser and _read_argv both read this table.
_FLAGS: dict[str, tuple[Callable[[str], Any] | None, str]] = {
    "--tol": (float, "numeric tolerance (default 1e-9)"),
    "--seed": (int, "seed for sampled base points"),
    "--verify": (int, "fibres sampled when verifying a spectral cover (default 50)"),
    "--d": (int, "irreducible bisection degree, when known"),
    "--enum-radius": (int, "cross-check the lattice minimum by brute force over this cube radius"),
    "--c1": (str, 'first Chern class as JSON, e.g. {"torsion":[0],"hom":[1]}'),
    "--c2": (int, "second Chern number"),
    "--batch": (None, "treat the input as an array of requests; exit with the maximum item code"),
    "--output": (str, "write the JSON response here instead of stdout"),
}


def _dest(flag: str) -> str:
    """The namespace attribute argparse stores a flag under."""
    return flag[2:].replace("-", "_")


# What parse_args stores for a flag left out
_DEFAULTS = {_dest(flag): False if kind is None else None for flag, (kind, _) in _FLAGS.items()}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument parser that reports a bad command line as a malformed
        request (exit 64) rather than with argparse's exit 2, which here
        means undecided."""

        def error(self, message: str):
            raise SchemaError(f"{self.prog}: {message}")

    parser = _Parser(
        prog="ellspec",
        description="Rank-2 bundles on non-Kähler elliptic surfaces: existence "
        "verdicts, spectral covers, and intersection arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, help=f"run the {name} computation on a JSON request")
        p.add_argument("input", nargs="?", default="-", help="request file, or - for stdin")
        for flag, (kind, text) in _FLAGS.items():
            if kind is None:
                p.add_argument(flag, action="store_true", help=text)
            else:
                p.add_argument(flag, type=kind, default=None, help=text)
    return parser


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """What parse_args makes of the common command line, read without it.

    That line is a command, at most one input, and flags from _FLAGS spelled
    out in full, in any order.  A flag that takes a value is followed by
    one that does not start with '-' and that its type accepts.  Any other
    line (help, an abbreviated or unknown flag, --flag=value, --, an input
    or a value that starts with '-', a second input, a missing or rejected
    value) gives None, and argparse reads it, errors and all.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    values: dict[str, Any] = {"command": argv[0], "input": "-", **_DEFAULTS}
    seen_input = False
    tokens = iter(argv[1:])
    for token in tokens:
        if token in _FLAGS:
            kind = _FLAGS[token][0]
            if kind is None:
                values[_dest(token)] = True
                continue
            value = next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            try:
                values[_dest(token)] = kind(value)
            except (TypeError, ValueError):
                return None
        elif seen_input or (token.startswith("-") and token != "-"):
            return None
        else:
            values["input"], seen_input = token, True
    return SimpleNamespace(**values)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _read_argv(argv)
        if args is None:
            args = build_parser().parse_args(argv, namespace=SimpleNamespace())
        doc = _read_input(args.input)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_SCHEMA
    handler = _COMMANDS[args.command]
    if args.batch:
        if not isinstance(doc, list):
            print("error: --batch input must be a JSON array", file=sys.stderr)
            return EX_SCHEMA
        texts, codes = [], [EX_OK]
        for item in doc:  # each item's text indented as _dump indents a list item
            _, code, text = _run_one(handler, item, args, "\n  ")
            texts.append(text)
            codes.append(code)
        code, text = max(codes), "[\n  " + ",\n  ".join(texts) + "\n]" if texts else "[]"
    else:
        reply, code, text = _run_one(handler, doc, args)
    try:
        _emit(text, args.output)
    except OSError as exc:
        # an --output that cannot be written is a bad command line
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EX_SCHEMA
    if not args.batch and "error" in reply:
        print(f"error: {reply['error']}", file=sys.stderr)
    return code


def _float_text(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"Out of range float values are not JSON compliant: {value!r}")
    return float.__repr__(value)


# The text of a scalar leaf, by its exact type: _dump writes such leaves of a
# dict or list without a call to itself.  Any other value, subclasses such as
# an IntEnum member included, takes _dump's isinstance path.
_LEAVES: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: ("false", "true").__getitem__,
    type(None): lambda _: "null",
}


def _dump(value: Any, newline: str = "\n") -> str:
    """The JSON text of value, indented by 2 as json.dumps(indent=2,
    allow_nan=False) writes it; newline is the line break plus the indent
    of the enclosing level.  Tuples are written as lists."""
    inner = newline + "  "
    # no type is both a container and a scalar, so containers come first
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for k, v in value.items():
            leaf = _LEAVES.get(type(v))
            items.append(encode_basestring_ascii(k) + ": " + (leaf(v) if leaf else _dump(v, inner)))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = []
        for v in value:
            leaf = _LEAVES.get(type(v))
            items.append(leaf(v) if leaf else _dump(v, inner))
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return _float_text(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(text: str, path: str | None) -> None:
    if not path:
        print(text)
        return
    data = (text + "\n").encode("utf-8")
    # Write over the old bytes and cut off what is left of them, rather than
    # truncate on open: ext4 starts writing a file emptied by truncation back
    # to disk when it is closed, and that cost more than the request did.
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        info = os.fstat(fd)
        if stat.S_ISREG(info.st_mode) and info.st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


if __name__ == "__main__":
    sys.exit(main())

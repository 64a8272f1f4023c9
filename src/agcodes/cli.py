"""Command-line interface: build codes, encode, decode, simulate, inspect.

Array files are plain text in log notation (-1 is the zero element, k is
alpha^k): one line per x-log row, one integer per y-log column, preceded
by '#' comment lines.  Values of the lengthened code at zero-coordinate
points travel in a trailer block of lines

    @zero (xlog, ylog): vlog

RS words use the same format with a single row of length q-1.

Exit codes: 0 ok, 2 usage or bad input, 3 construction failure,
4 decoding failure.  Failure output starts with a machine-parsable
reason code.

Simulations use an explicit xorshift64* generator so runs reproduce
anywhere: state update s ^= s >> 12; s ^= s << 25; s ^= s >> 27 (64-bit),
output (s * 0x2545F4914F6CDD1D) mod 2^64, draws take (output >> 33) mod n.
The per-trial seed is base seed + trial index.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import codec
from .bms import GroebnerBasis, vanishing_ideal_basis
from .errors import (
    AgcodesError,
    DecodingFailure,
    ExtendedDecodeUnsupported,
    NonGenericSupport,
    NonPrimitivePolynomial,
)
from .galois import ZERO, field_new
from .geometry import curve_spec
from .transform import idft2

_MASK = (1 << 64) - 1


class Xorshift64Star:
    """xorshift64* with the documented constants; seed 0 is remapped."""

    MULTIPLIER = 0x2545F4914F6CDD1D

    def __init__(self, seed: int):
        self.state = seed & _MASK or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & _MASK
        s ^= s >> 27
        self.state = s
        return (s * self.MULTIPLIER) & _MASK

    def below(self, n: int) -> int:
        return (self.next_u64() >> 33) % n


# -- array file I/O ----------------------------------------------------------


def write_array_file(path: str, q: int, rows: list[list[int]], trailer=()) -> None:
    lines = [f"# agcodes array q={q} rows=x-log cols=y-log"]
    for row in rows:
        lines.append(" ".join(str(v) for v in row))
    for (x, y), v in trailer:
        lines.append(f"@zero ({x}, {y}): {v}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_array_file(path: str, q: int):
    """Returns (rows, trailer) where trailer maps (xlog, ylog) -> vlog.  A
    ValueError names the file, line and token of a bad value or cell."""
    rows: list[list[int]] = []
    trailer: dict[tuple[int, int], int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            where = f"{path}: line {lineno}"
            if line.startswith("@zero"):
                coords, _, val = line[len("@zero") :].partition(":")
                coords = coords.strip().lstrip("(").rstrip(")")
                x, y = codec.int_token(where, coords, "a cell (xlog, ylog)", 2)
                if (x, y) in trailer:
                    raise ValueError(f"{where}: @zero cell ({x}, {y}) appears twice")
                values = codec.int_token(where, val.strip(), "an integer")
                trailer[(x, y)] = values[0]
            else:
                values = [codec.int_token(where, tok, "an integer")[0] for tok in line.split()]
                rows.append(values)
            for v in values:
                if not -1 <= v <= q - 2:
                    raise ValueError(f"{where}: value {v} out of range for q={q}")
    return rows, trailer


def word_to_rows(spec, word):
    if spec.kind == "rs":
        return [list(word)]
    return codec.point_array(spec, word)


def _check_shape(path: str, rows, height: int, width: int) -> None:
    """ValueError naming the file, the expected and the found shape unless
    the rows form a height x width array."""
    widths = sorted({len(r) for r in rows}) or [0]
    if len(rows) != height or widths != [width]:
        found = f"{len(rows)} rows of {widths[0]} to {widths[-1]} values"
        if len(widths) == 1:
            found = f"{len(rows)}x{widths[0]}"
        raise ValueError(f"{path}: expected a {height}x{width} array, found {found}")


def _values_on(path: str, rows, cells, what: str) -> list:
    """The values at cells, in order; ValueError naming the file and the
    first other cell holding a value, which is then not what."""
    cset = set(cells)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            if v != ZERO and (i, j) not in cset:
                raise ValueError(f"{path}: cell ({i},{j}) holds {v} but is not {what}")
    return [rows[i][j] for i, j in cells]


def rows_to_word(path: str, spec, rows):
    if spec.kind == "rs":
        _check_shape(path, rows, 1, spec.n)
        return list(rows[0])
    _check_shape(path, rows, spec.field.q - 1, spec.field.q - 1)
    return _values_on(path, rows, [(p.x, p.y) for p in spec.points], "a code point")


# -- spec acquisition ----------------------------------------------------------


def _add_spec_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spec", help="path to a saved code spec file")
    p.add_argument("--preset", choices=codec.PRESETS, help="named construction")
    p.add_argument("--m", type=int, help="degree parameter for curve/hcrs kinds")
    p.add_argument("--r", type=int, help="redundancy for the rs kind")
    p.add_argument(
        "--field",
        help="p,m,c0,...,cm - prime, degree, and primitive polynomial "
        "coefficients (ascending) for a raw construction",
    )
    p.add_argument("--kind", choices=("curve", "hcrs", "rs"))
    p.add_argument(
        "--curve",
        help="a,b,i:j:c,... - curve parameters and defining polynomial "
        "terms with coefficient logs (curve kind only)",
    )


# the flags each source of a code reads; giving any other is an error
_SOURCE_FLAGS = {
    "--spec": {"spec"},
    "--preset": {"preset", "m", "r"},
    "--kind rs": {"field", "kind", "r"},
    "--kind hcrs": {"field", "kind", "m"},
    "--kind curve": {"field", "kind", "m", "curve"},
}


def _reject_unread_flags(args, source: str) -> None:
    """ValueError naming the first spec flag given that source does not read."""
    for name in ("spec", "preset", "m", "r", "field", "kind", "curve"):
        if getattr(args, name) is not None and name not in _SOURCE_FLAGS[source]:
            raise ValueError(f"--{name} is not used with {source}")


def _get_spec(args) -> codec.CodeSpec:
    if args.spec:
        _reject_unread_flags(args, "--spec")
        return codec.load_spec(args.spec)
    if args.preset:
        _reject_unread_flags(args, "--preset")
        return codec.preset(args.preset, m=args.m, r=args.r)
    if not (args.field and args.kind):
        raise ValueError("give --spec FILE, --preset NAME, or --field with --kind")
    _reject_unread_flags(args, f"--kind {args.kind}")
    nums = [codec.int_token("--field", t, "an integer")[0] for t in args.field.split(",")]
    if len(nums) < 2:
        raise ValueError(
            f"--field {args.field!r} needs p, m and the polynomial coefficients"
        )
    f = field_new(nums[0], nums[1], nums[2:])
    flag = "r" if args.kind == "rs" else "m"
    param = getattr(args, flag)
    if param is None:
        raise ValueError(f"{args.kind} kind needs --{flag}")
    curve = None
    if args.kind == "curve":
        if not args.curve:
            raise ValueError("curve kind needs --curve a,b,i:j:c,...")
        toks = args.curve.split(",")
        if len(toks) < 2:
            raise ValueError(f"--curve {args.curve!r} needs a, b and the polynomial terms")
        a, b = (codec.int_token("--curve", tok, "an integer")[0] for tok in toks[:2])
        poly = {}
        for tok in toks[2:]:
            i, j, c = codec.int_token("--curve", tok, "three integers i:j:c", 3, ":")
            poly[(i, j)] = c
        curve = curve_spec(a, b, poly)
    return codec.make_code(f, args.kind, param, curve)


# -- commands ----------------------------------------------------------------


def cmd_info(args) -> int:
    spec = _get_spec(args)
    print(f"kind={spec.kind} q={spec.field.q} n={spec.n} k={spec.k}")
    print(f"capability t={spec.t_capability}")
    print(f"defining set ({len(spec.phi)} cells): " + " ".join(map(str, spec.phi)))
    if spec.kind != "rs":
        print(f"redundant positions: {' '.join(map(str, spec.parity_positions()))}")
        print(
            "redundant-point basis leading terms: "
            + " ".join(str(p.lt) for p in spec.basis_wp.elements)
        )
        print(
            "point-ideal basis leading terms: "
            + " ".join(str(p.lt) for p in spec.basis_all.elements)
        )
        if spec.zero_points:
            pts = " ".join(f"({p.x},{p.y})" for p in spec.zero_points)
            print(f"zero-coordinate points: {pts}")
    return 0


def cmd_build(args) -> int:
    spec = _get_spec(args)
    codec.save_spec(spec, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_encode(args) -> int:
    spec = _get_spec(args)
    q = spec.field.q
    rows, trailer = read_array_file(args.infile, q)
    if spec.kind == "rs":
        _check_shape(args.infile, rows, 1, spec.k)
        info = list(rows[0])
    else:
        _check_shape(args.infile, rows, q - 1, q - 1)
        what = f"an information carrier for mode {args.mode}"
        info = _values_on(args.infile, rows, spec.carrier_cells(args.mode), what)
    zero_cells = [(p.x, p.y) for p in spec.zero_points]
    if trailer:
        if args.mode != "systematic":
            raise ValueError("zero-point symbols need systematic mode")
        for cell in trailer:
            if cell not in zero_cells:
                raise ValueError(f"@zero cell {cell} is not a zero point of this code")
        for x, y in zero_cells:
            if (x, y) not in trailer:
                raise ValueError(f"missing zero-point symbol for ({x},{y})")
        info += [trailer[c] for c in zero_cells]
    if args.mode == "systematic":
        word = codec.encode_systematic(spec, info)
    else:
        word = codec.encode_nonsystematic(spec, info)
    sv = codec.syndromes(spec, word)
    out_trailer = zip(zero_cells, word[spec.n :])
    write_array_file(args.out, q, word_to_rows(spec, word[: spec.n]), out_trailer)
    with open(args.out + ".check", "w") as fh:
        fh.write(" ".join(str(v) for v in sv) + "\n")
    print(f"wrote {args.out} and {args.out}.check")
    return 0


def cmd_decode(args) -> int:
    spec = _get_spec(args)
    q = spec.field.q
    rows, trailer = read_array_file(args.infile, q)
    if trailer:
        raise ExtendedDecodeUnsupported(
            "decoding of words with zero-point values is not supported"
        )
    word = rows_to_word(args.infile, spec, rows)
    corrected, info = codec.decode(spec, word, mode=args.mode)
    write_array_file(args.out, q, word_to_rows(spec, corrected))
    if spec.kind == "rs":
        info_rows = [info]
    else:
        info_rows = [[ZERO] * (q - 1) for _ in range(q - 1)]
        for (i, j), v in zip(spec.carrier_cells(args.mode), info):
            info_rows[i][j] = v
    write_array_file(args.info_out, q, info_rows)
    print(f"wrote {args.out} and {args.info_out}")
    return 0


def run_simulation(spec, errors: int, trials: int, seed: int):
    """Deterministic encode/corrupt/decode loop; per-trial seed = seed+i.

    Returns (successes, failures, miscorrections, rows) where rows are
    (trial, planted, outcome) tuples.
    """
    f = spec.field
    q = f.q
    rows = []
    success = failure = miscorrection = 0
    for trial in range(trials):
        rng = Xorshift64Star(seed + trial)
        info = [rng.below(q) - 1 for _ in range(spec.k)]
        word = codec.encode_systematic(spec, info)
        rx = list(word)
        positions: list[int] = []
        while len(positions) < errors:
            pos = rng.below(spec.n)
            if pos not in positions:
                positions.append(pos)
        for pos in positions:
            rx[pos] = f.add(rx[pos], rng.below(q - 1))
        try:
            got, _ = codec.decode(spec, rx)
            if got == word:
                outcome = "success"
                success += 1
            else:
                outcome = "miscorrection"
                miscorrection += 1
        except DecodingFailure:
            outcome = "failure"
            failure += 1
        rows.append((trial, errors, outcome))
    return success, failure, miscorrection, rows


def cmd_simulate(args) -> int:
    spec = _get_spec(args)
    if not 0 <= args.errors <= spec.n:
        raise ValueError("error count out of range")
    if args.trials < 0:
        raise ValueError(f"--trials {args.trials} must be nonnegative")
    t0 = time.monotonic()
    success, failure, miscorrection, rows = run_simulation(
        spec, args.errors, args.trials, args.seed
    )
    elapsed = time.monotonic() - t0
    print(
        f"simulate kind={spec.kind} errors={args.errors} trials={args.trials} "
        f"seed={args.seed} success={success} failure={failure} "
        f"miscorrection={miscorrection}"
    )
    print("trial,errors,outcome")
    for trial, errs, outcome in rows:
        print(f"{trial},{errs},{outcome}")
    print(f"wall_time_s={elapsed:.3f}", file=sys.stderr)
    return 0


def _print_basis(basis: GroebnerBasis) -> None:
    for poly in basis.elements:
        cells = sorted(poly.coeffs, key=basis.order.key, reverse=True)
        triples = " ".join(f"({i} {j} {poly.coeffs[(i, j)]})" for (i, j) in cells)
        print(f"poly lt={poly.lt}: {triples}")
        max_i = max(i for (i, _) in poly.coeffs)
        max_j = max(j for (_, j) in poly.coeffs)
        for i in range(max_i + 1):
            row = []
            for j in range(max_j + 1):
                v = poly.coeffs.get((i, j))
                row.append("." if v is None else str(v))
            print("  " + " ".join(row))


def cmd_groebner(args) -> int:
    spec = _get_spec(args)
    if spec.kind == "rs":
        raise ValueError("groebner inspection applies to 2-D codes")
    if args.ideal == "wp":
        _print_basis(spec.basis_wp)
    elif args.ideal == "all":
        _print_basis(spec.basis_all)
    else:
        if not args.syndromes:
            raise ValueError("--ideal errors needs --syndromes FILE")
        rows, trailer = read_array_file(args.syndromes, spec.field.q)
        if trailer:
            raise ValueError(f"{args.syndromes}: a syndrome file takes no @zero trailer")
        n = spec.field.q - 1
        _check_shape(args.syndromes, rows, n, n)
        # a syndrome file is the transform of a word on the code points:
        # its inverse transform is zero off them, and is the received word
        word = idft2(spec.field, rows)
        where = f"{args.syndromes}: inverse transform"
        received = _values_on(where, word, [(p.x, p.y) for p in spec.points], "a code point")
        corrected, _ = codec.decode(spec, received)
        located = [p for p, a, b in zip(spec.points, received, corrected) if a != b]
        _print_basis(vanishing_ideal_basis(located, spec.order, spec.field))
    return 0


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="agcodes",
        description=(
            "encode/decode algebraic codes over small Galois fields.  "
            "Array files hold element logs (-1 = zero, k = alpha^k); the "
            "row index is the first exponent (x-log), the column index "
            "the second (y-log)."
        ),
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="print code parameters")
    _add_spec_args(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("build", help="construct a code and save its spec file")
    _add_spec_args(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser(
        "encode",
        help="encode an information array",
        description=(
            "Encode the information symbols of an array file.  Symbol "
            "placement by mode: systematic puts the k symbols on the "
            "information-point cells (the cells (log x, log y) of the "
            "points listed by 'info' as non-redundant); nonsystematic "
            "puts them on the free staircase cells (the point-ideal "
            "staircase minus the defining set).  All other cells must "
            "hold -1.  An '@zero (xlog, ylog): vlog' trailer line per "
            "zero-coordinate point selects the lengthened systematic "
            "encoding.  RS info files are a single row of k symbols.  "
            "The output codeword array gets a companion .check file "
            "with the defining-set syndromes (all -1 on success)."
        ),
    )
    _add_spec_args(p)
    p.add_argument("--mode", choices=("systematic", "nonsystematic"), default="systematic")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="correct a received array")
    _add_spec_args(p)
    p.add_argument("--mode", choices=("systematic", "nonsystematic"), default="systematic")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--info-out", dest="info_out", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("simulate", help="random error-correction trials")
    _add_spec_args(p)
    p.add_argument("--errors", type=int, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("groebner", help="print a Groebner basis")
    _add_spec_args(p)
    p.add_argument("--ideal", choices=("wp", "all", "errors"), required=True)
    p.add_argument("--syndromes")
    p.set_defaults(func=cmd_groebner)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except DecodingFailure as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 4
    except (NonGenericSupport, NonPrimitivePolynomial) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except (AgcodesError, ValueError, OSError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

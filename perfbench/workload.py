"""Codes, inputs, the closed loop and the output checks of the benchmark.

Import this only after ``src`` of the checkout is on ``sys.path``: it
binds the agcodes package under test.
"""

from __future__ import annotations

import io
import random
import statistics
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from time import perf_counter

from agcodes import ZERO, cli, codec, field_new
from agcodes.errors import DecodingFailure
from agcodes.geometry import hermitian_curve

GF9_CODES = ("hermitian-q9", "hcrs-q9", "rs-q9")
SCALE_CODES = ("hermitian-q16", "hcrs-q16", "hermitian-q25")

# name: (p, m, primitive polynomial ascending, family, degree parameter)
_SCALE_PARAMS = {
    "hermitian-q16": (2, 4, (1, 1, 0, 0, 1), "curve", 20),
    "hcrs-q16": (2, 4, (1, 1, 0, 0, 1), "hcrs", 12),
    "hermitian-q25": (5, 2, (2, 1, 1), "curve", 30),
}


def build_spec(name: str):
    """Construct a code from its parameters, through the public API."""
    if name in GF9_CODES:
        return codec.preset(name)
    p, m, poly, family, deg = _SCALE_PARAMS[name]
    f = field_new(p, m, list(poly))
    if family == "hcrs":
        return codec.make_hcrs_code(f, deg)
    return codec.make_curve_code(f, hermitian_curve(f), deg)


@dataclass(frozen=True)
class Workload:
    codes: tuple[str, ...]
    # "systematic": each word is encode_systematic inside the closed loop;
    # "oracle": channel words come from encode_matrix_oracle, outside it.
    encoder: str
    # "none" (0 errors), "t" (exactly t) or "upto-t+1" (uniform in 1..t+1)
    errors: str
    # set-ups per run; setup_s is their median
    setup_repeats: int
    # consecutive words per throughput window; words_per_s is the median
    window: int
    # words per code in the field-arithmetic counting pass
    count_words: int


WORKLOADS = {
    "q9-clean": Workload(GF9_CODES, "systematic", "none", 9, 30, 10),
    "q9-noisy": Workload(GF9_CODES, "oracle", "upto-t+1", 9, 30, 10),
    "scale-trials": Workload(SCALE_CODES, "systematic", "t", 3, 3, 2),
}

# words per code behind each codec.encode_ms/decode_ms breakdown row
BREAKDOWN_WORDS = {name: 30 for name in GF9_CODES} | {name: 6 for name in SCALE_CODES}
CLI_TRIALS = 100
# the closed loop also stops after this many times --seconds of wall time,
# so fast code with slow client-side checks still ends in time
WALL_FACTOR = 5


class Code:
    """A built spec plus what the checks need, computed outside any timing."""

    def __init__(self, name: str, spec):
        self.name = name
        self.spec = spec
        self.t = spec.t_capability
        self.check_rows = codec.check_matrix(spec)[: spec.n]
        if spec.kind == "rs":
            self.info_pos = list(range(spec.r, spec.n))
        else:
            self.info_pos = spec.info_positions()


class Tally:
    """Words attempted and words that broke the decoder contract."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error: str | None = None

    def fail(self, why: str, words: int = 1) -> None:
        self.failed += words
        if self.first_error is None:
            self.first_error = why


# Machine-speed gauge.  On a shared host the same Python code can run up
# to 1.8x slower for seconds at a time, whatever the program does (seen on
# a 2-core x86-64 host with other tenants, Python 3.11.7).  A fixed
# pure-Python snippet, timed right before and after each measured call,
# slows down with it: there the ratio of codec time to snippet time held
# within a few percent while either alone swung by tens of percent.  Every
# reported time is therefore scaled to the speed at which the snippet
# takes SNIPPET_REF_S, its time in the fastest state seen on that host, so
# reported times approximate wall-clock times on a quiet machine.  The
# snippet imitates the codec's inner loops (Horner evaluation through
# log-table add/mul methods) but shares no code with the package, so a
# change to the package cannot move it.
SNIPPET_REF_S = 1.1e-4


class _LogTableArith:
    """Log-domain add/mul in the style of galois.Field, on a fixed table."""

    def __init__(self, order: int):
        self.order = order
        self.zech = [-1 if k % 5 == 0 else (7 * k) % order for k in range(order)]

    def add(self, a: int, b: int) -> int:
        if a < 0:
            return b
        if b < 0:
            return a
        z = self.zech[(b - a) % self.order]
        return -1 if z < 0 else (a + z) % self.order

    def mul(self, a: int, b: int) -> int:
        if a < 0 or b < 0:
            return -1
        return (a + b) % self.order


_SNIPPET_ARITH = _LogTableArith(24)
_SNIPPET_ROWS = [[(i * j + 3) % 25 - 1 for j in range(24)] for i in range(4)]


def _snippet() -> list[int]:
    add, mul = _SNIPPET_ARITH.add, _SNIPPET_ARITH.mul
    out = []
    for row in _SNIPPET_ROWS:
        for w in range(0, 24, 4):
            acc = row[23]
            for h in range(22, -1, -1):
                acc = add(mul(acc, w), row[h])
            out.append(acc)
    return out


def machine_speed(reps: int = 3) -> float:
    """SNIPPET_REF_S over the snippet's median time now: below 1 when the
    machine is slower than the reference."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        _snippet()
        times.append(perf_counter() - start)
    return SNIPPET_REF_S / statistics.median(times)


def set_up(names) -> tuple[list[Code], float, float]:
    """Build every code of a workload.  Returns the codes, the seconds the
    constructions took at reference speed, and the mean speed factor."""
    specs, took, speeds = [], 0.0, []
    for name in names:
        before = machine_speed()
        start = perf_counter()
        specs.append(build_spec(name))
        raw = perf_counter() - start
        speed = (before + machine_speed()) / 2
        took += raw * speed
        speeds.append(speed)
    return [Code(n, spec) for n, spec in zip(names, specs)], took, statistics.fmean(speeds)


def error_weight(rule: str, t: int, rng: random.Random) -> int:
    if rule == "none":
        return 0
    if rule == "t":
        return t
    return rng.randint(1, t + 1)


def corrupt(f, word: list, weight: int, rng: random.Random) -> list:
    """Add a nonzero error value at `weight` distinct positions."""
    rx = list(word)
    for pos in rng.sample(range(len(rx)), weight):
        rx[pos] = f.add(rx[pos], rng.randrange(f.q - 1))
    return rx


def is_codeword(code: Code, word: list) -> bool:
    """H-product of the word, computed in GF(p) coordinates from the field's
    exponent table, so it shares no arithmetic with the decoder."""
    f = code.spec.field
    order, p = f.q - 1, f.p
    for col in range(len(code.spec.phi)):
        acc = [0] * f.m
        for v, row in zip(word, code.check_rows):
            h = row[col]
            if v == ZERO or h == ZERO:
                continue
            acc = [(a + c) % p for a, c in zip(acc, f.exp_table[(v + h) % order])]
        if any(acc):
            return False
    return True


def timed(probe, fn, *args, **kwargs):
    """(result or raised exception, seconds); the probe is active only
    inside the call."""
    if probe is not None:
        probe.active = True
    start = perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:  # classified by the caller's contract check
        out = exc
    took = perf_counter() - start
    if probe is not None:
        probe.active = False
    return out, took


def decode_outcome(code: Code, sent: list, received: list, weight: int, result) -> str:
    """corrected / refused / miscorrected, or a contract violation."""
    if isinstance(result, DecodingFailure):
        return "refused" if weight > code.t else "failed: refused a word within the radius"
    if isinstance(result, Exception):
        return f"failed: decode raised {type(result).__name__}: {result}"
    word, info = result
    if info != [word[h] for h in code.info_pos]:
        return "failed: returned info does not match the returned word"
    if word == sent:
        return "corrected"
    if weight <= code.t:
        return "failed: a word within the radius decoded to another word"
    if not is_codeword(code, word):
        return "failed: returned word is not a codeword"
    if sum(a != b for a, b in zip(word, received)) > code.t:
        return "failed: returned word is farther than t from the received word"
    return "miscorrected"


@dataclass
class WordResult:
    # times at reference speed (see machine_speed)
    encode_s: float
    decode_s: float
    busy_s: float  # in the closed loop's own calls
    outcome: str
    speed: float  # factor the raw times were scaled by
    raw_busy_s: float


def one_word(code: Code, wl: Workload, rng, tally: Tally, probe=None, stats=None):
    """Generate, encode, corrupt, decode and check one word."""
    before = machine_speed()
    w = _one_word(code, wl, rng, tally, probe, stats)
    speed = (before + machine_speed()) / 2
    enc_s, dec_s, busy_s, outcome = w
    return WordResult(enc_s * speed, dec_s * speed, busy_s * speed, outcome, speed, busy_s)


def _one_word(code, wl, rng, tally, probe, stats) -> tuple[float, float, float, str]:
    """Raw (encode, decode, busy) seconds and the outcome of one word."""
    spec = code.spec
    f = spec.field
    info = [rng.randrange(f.q) - 1 for _ in range(spec.k)]
    tally.attempted += 1
    if wl.encoder == "systematic":
        sent, enc_s = timed(probe, codec.encode_systematic, spec, info)
        busy = enc_s
        expected = codec.encode_matrix_oracle(spec, info)
        if sent != expected:
            why = sent if isinstance(sent, Exception) else "differs from the oracle"
            tally.fail(f"{code.name}: encode_systematic {why}")
            return enc_s, 0.0, busy, "failed"
    else:
        sent, enc_s = timed(probe, codec.encode_matrix_oracle, spec, info)
        busy = 0.0
        if isinstance(sent, Exception):
            tally.fail(f"{code.name}: encode_matrix_oracle raised {sent!r}")
            return enc_s, 0.0, busy, "failed"
    weight = error_weight(wl.errors, code.t, rng)
    received = corrupt(f, sent, weight, rng)
    result, dec_s = timed(probe, codec.decode, spec, received, stats=stats)
    outcome = decode_outcome(code, sent, received, weight, result)
    if outcome.startswith("failed"):
        tally.fail(f"{code.name} at {weight} errors: {outcome}")
        outcome = "failed"
    return enc_s, dec_s, busy + dec_s, outcome


@dataclass
class LoopResult:
    words: list  # WordResult per word, in order
    voted_cells: int = 0
    early_certificates: int = 0
    voting_decodes: int = 0

    def words_per_s(self, window: int) -> float:
        """Median over windows of `window` consecutive words."""
        rates = []
        for lo in range(0, len(self.words) - window + 1, window):
            busy = sum(w.busy_s for w in self.words[lo : lo + window])
            rates.append(window / busy)
        return statistics.median(rates)


def closed_loop(codes, wl, rng, seconds, tally, tracer=None) -> LoopResult:
    """One client, next word only after the previous one returns.

    Runs whole rotations through the codes until the closed loop's own
    calls have taken `seconds` (or the wall-clock cap is reached).
    """
    res = LoopResult([])
    busy = 0.0
    start = perf_counter()
    i = 0
    while i % len(codes) or (
        busy < seconds and perf_counter() - start < WALL_FACTOR * seconds
    ):
        stats = None
        if tracer is not None:
            tracer.word = i
            stats = {}
        w = one_word(codes[i % len(codes)], wl, rng, tally, probe=tracer, stats=stats)
        if stats:
            res.voting_decodes += 1
            res.voted_cells += stats["voted_cells"]
            res.early_certificates += stats["early_certificate"]
        res.words.append(w)
        busy += w.raw_busy_s
        i += 1
    return res


def percentile(values, pct: int) -> float:
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def cli_simulate_rate(seed: int, capability: dict[str, int], tally: Tally) -> float:
    """Trials per second of `agcodes simulate` at t errors over the GF(9)
    presets, as the command runs them (construction included)."""
    total_s = 0.0
    speed = machine_speed()
    for name in GF9_CODES:
        t = capability[name]
        argv = ["simulate", "--preset", name, "--errors", str(t),
                "--trials", str(CLI_TRIALS), "--seed", str(seed)]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = perf_counter()
            rc = cli.main(argv)
            total_s += perf_counter() - start
        tally.attempted += CLI_TRIALS
        header = out.getvalue().splitlines()[0] if out.getvalue() else ""
        want = f"success={CLI_TRIALS} failure=0 miscorrection=0"
        if rc != 0 or not header.endswith(want):
            tally.fail(f"simulate {name}: exit {rc}, {header!r} {err.getvalue()!r}", CLI_TRIALS)
    speed = (speed + machine_speed()) / 2
    return len(GF9_CODES) * CLI_TRIALS / (total_s * speed)


def breakdown(rng, tally: Tally) -> tuple[dict[str, float], dict[str, int]]:
    """Per-code build, encode_systematic and decode-at-t rows for all six
    codes (one fresh build each, then the median over a few words), and
    each code's t."""
    at_t = Workload((), "systematic", "t", 1, 1, 1)
    out = {}
    capability = {}
    for name in GF9_CODES + SCALE_CODES:
        (code,), build_s, _ = set_up([name])
        capability[name] = code.t
        words = [one_word(code, at_t, rng, tally) for _ in range(BREAKDOWN_WORDS[name])]
        out[f"codec.build_s.{name}"] = build_s
        out[f"codec.encode_ms.{name}"] = 1e3 * statistics.median(w.encode_s for w in words)
        out[f"codec.decode_ms.{name}"] = 1e3 * statistics.median(w.decode_s for w in words)
    return out, capability

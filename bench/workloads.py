"""Seeded request lists for the benchmark workloads, with exact expectations.

A request is a JSON-ready dict:

    {"kind": subcommand, "argv": [...], "files": {name: document},
     "exit": expected exit code, "fields": {path: expected value},
     "svg_gap_dots": expected number of gap dots (plot only)}

"fields" is None, and "svg_gap_dots" absent, in a list generated with
expect=False: the same requests without their expectations, which is
what a benchmark set-up needs.

argv is what ghk.cli.run_command receives; --file and --out paths are
relative to the worker's scratch directory, so reports that echo them
are deterministic.  A field path is dotted; a "*" segment maps over a
list.  Report keys not named in "fields" are ignored, and so is stderr.

Every expectation comes from model.py, which shares no code with ghk.
Each workload has a fixed skeleton: the number of requests of each kind
and the parameters that set their cost (prime, depth, staircase width,
power, generator count) are the same for every seed.  The seed picks the
geometry (cones, generator positions, GL2(Z) presentations, family
members) and the request order, so figures from different seeds are
comparable.
"""

import json
import random
from fractions import Fraction
from functools import partial
from math import isqrt

import model as M

TOWER_PRIMES = (2, 3, 5, 7)


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


# --- expectations -----------------------------------------------------------


def expect_eghk(ideal: M.Ideal, closed_form=None) -> dict:
    fields = {
        "results.eghk.rational": str(M.eghk(ideal)),
        "results.thresholds": list(ideal.thresholds),
        "results.saturated": M.is_saturated(ideal),
        "results.det_abs": ideal.cone.d,
    }
    if closed_form is not None:
        fields["results.closed_form.rational"] = str(closed_form)
    return fields


def expect_function(ideal: M.Ideal, p: int, max_n: int) -> dict:
    values = M.function_values(ideal, p, max_n)
    return {
        "results.prime": p,
        "results.values": values,
        "results.normalized.*.rational": [
            str(Fraction(v, p ** (2 * n))) for n, v in enumerate(values)
        ],
        "results.limit.rational": str(M.eghk(ideal)),
    }


def expect_split(ideal: M.Ideal, q: int) -> dict:
    total, sym, band = M.split_counts(ideal, q)
    return {
        "results.q": q,
        "results.total_gap": total,
        "results.sym_vs_ord": sym,
        "results.ord_vs_frob": band,
        "results.additive": True,
    }


def expect_powers(ideal: M.Ideal, max_n: int) -> dict:
    values = M.h0_values(ideal, max_n)
    fields = {
        "results.values": values,
        "results.max_n": max_n,
        "results.epsilon_estimate.rational": str(Fraction(values[-1], max_n * max_n)),
    }
    if not M.is_saturated(ideal):
        return fields
    order, shift, primary = M.torsion(ideal)
    newton = M.newton_multiplicity(ideal.cone, [ideal.cone.corner(g) for g in primary])
    classes = M.fit(values, order)
    if classes is None:
        raise ValueError("fit does not stabilize; the skeleton must avoid this input")
    fields.update({
        "results.torsion.order": order,
        "results.torsion.shift": list(shift),
        "results.torsion.primary_generators": [list(g) for g in primary],
        "results.torsion.newton_multiplicity": newton,
        "results.torsion.predicted_leading.rational": str(
            Fraction(newton, 2 * order * order)
        ),
        "results.fit.period": order,
        "results.fit.onset": max(c[2] for c in classes),
        "results.fit.classes.*.onset": [c[2] for c in classes],
        "results.fit.classes.*.coefficients.*.rational": [
            [str(x) for x in c[1]] for c in classes
        ],
    })
    return fields


def verify_passes(ideal: M.Ideal) -> bool:
    """Model prediction for the two verify suites that are bounds, not identities."""
    eps = Fraction(M.h0_values(ideal, 10)[-1], 100)
    return M.convergence_holds(ideal) and M.eghk(ideal) >= eps - Fraction(1, 5)


def expect_plot(ideal: M.Ideal, q: int, out: str) -> dict:
    c1, c2 = ideal.thresholds
    total = M.eghk(ideal)
    fine = M.power_chain(ideal.stair, q)[-1]
    ordinary = M.area(ideal.cone, (q * c1, q * c2), fine) / (q * q)
    fields = {
        "results.out": out,
        "results.power_scale": q,
        "results.areas.total_gap.rational": str(total),
        "results.areas.ordinary_gap.rational": str(ordinary),
        "results.areas.band.rational": str(total - ordinary),
        "svg_gap_dots": M.gap_count(ideal, q, M.scale(ideal.stair, q)),
    }
    return fields


def expect_reptype(r: int, mults: list[int], weights: list[Fraction]) -> dict:
    value = sum(
        (u * w * min(i, j, r - i, r - j)
         for i, u in enumerate(mults, 1) for j, w in enumerate(weights, 1)),
        Fraction(0),
    )
    return {
        "results.eghk.rational": str(value),
        "results.dim": r - 1,
        "results.multiplicities": mults,
    }


# --- output check -----------------------------------------------------------

_MISSING = object()


def lookup(doc, path: str):
    """Value at a dotted path; "*" maps over a list; _MISSING when absent."""

    def walk(node, parts):
        if not parts:
            return node
        head, rest = parts[0], parts[1:]
        if head == "*":
            if not isinstance(node, list):
                return _MISSING
            return [walk(item, rest) for item in node]
        if not isinstance(node, dict) or head not in node:
            return _MISSING
        return walk(node[head], rest)

    return walk(doc, path.split("."))


def check(req: dict, code, out: str, read_svg) -> bool:
    """True when exit code and every named field match the expectation.

    read_svg(path) returns the SVG a plot request wrote.
    """
    if code != req["exit"]:
        return False
    if not req["fields"]:
        return True
    try:
        report = json.loads(out)
    except ValueError:
        return False
    if any(lookup(report, k) != v for k, v in req["fields"].items()):
        return False
    if "svg_gap_dots" in req:
        svg = read_svg(lookup(report, "results.out"))
        return svg.count('class="gap-dot"') == req["svg_gap_dots"]
    return True


# --- random geometry --------------------------------------------------------


def random_cone(rng: random.Random, d_max: int, bound: int = 8, d_min: int = 1) -> M.Cone:
    while True:
        r1 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        r2 = (rng.randint(-bound, bound), rng.randint(-bound, bound))
        if r1 == (0, 0) or r2 == (0, 0) or r1[0] * r2[1] == r1[1] * r2[0]:
            continue
        cone = M.make_cone(r1, r2)
        if d_min <= cone.d <= d_max:
            return cone


def corner_ideal(rng: random.Random, cone: M.Cone, width: int, k: int, rise: int = 3) -> M.Ideal:
    """An ideal with k staircase corners spanning exactly width columns."""
    s0 = rng.randint(0, 2)
    ss = [s0] + sorted(rng.sample(range(s0 + 1, s0 + width), k - 2)) + [s0 + width]
    t = rng.randint(0, 2)
    t += (cone.tau * ss[-1] - t) % cone.d
    ts = [t]
    for s in reversed(ss[:-1]):
        t += 1 + (cone.tau * s - t - 1) % cone.d + cone.d * rng.randint(0, rise)
        ts.append(t)
    return M.make_ideal(cone, [cone.preimage(c) for c in zip(ss, reversed(ts))])


def unimodular(rng: random.Random) -> tuple[tuple[int, int], tuple[int, int]]:
    a, b, c, d = 1, 0, 0, 1
    for _ in range(3):
        k = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            a, b = a + k * c, b + k * d
        else:
            c, d = c + k * a, d + k * b
    if rng.random() < 0.5:
        a, b, c, d = c, d, a, b
    return (a, b), (c, d)


def ideal_key(ideal: M.Ideal):
    return (ideal.cone.ray1, ideal.cone.ray2, ideal.gens)


def moved(rng: random.Random, ideal: M.Ideal) -> M.Ideal:
    """The ideal in other lattice coordinates, never in its own."""
    while True:
        other = transform(ideal, unimodular(rng))
        if ideal_key(other) != ideal_key(ideal):
            return other


def transform(ideal: M.Ideal, mat) -> M.Ideal:
    (a, b), (c, d) = mat

    def f(p):
        return (a * p[0] + b * p[1], c * p[0] + d * p[1])

    cone = M.make_cone(f(ideal.cone.ray1), f(ideal.cone.ray2))
    return M.make_ideal(cone, [f(g) for g in ideal.gens])


def nonsaturated_ideal(rng: random.Random, d_max: int, n_gens: int, spread: int) -> M.Ideal:
    while True:
        cone = random_cone(rng, d_max)
        pts = set()
        while len(pts) < n_gens:
            s = rng.randint(0, spread)
            t = rng.randint(0, spread)
            t += (cone.tau * s - t) % cone.d
            pts.add(cone.preimage((s, t)))
        ideal = M.make_ideal(cone, pts)
        if len(ideal.gens) == n_gens and not M.is_saturated(ideal):
            return ideal


# --- request assembly -------------------------------------------------------


class Builder:
    def __init__(self, rng: random.Random, expect: bool):
        self.rng = rng
        self.expect = expect
        self.requests: list[dict] = []
        self.seen: set = set()

    def fresh(self, key) -> bool:
        """Record an input key; False if this list already used it."""
        if key in self.seen:
            return False
        self.seen.add(key)
        return True

    def add(self, argv: list, fields, exit_code: int = 0, doc=None):
        """fields: the expected report fields, or a function that computes them.

        A "svg_gap_dots" entry is the number of gap dots the SVG must hold.
        """
        files = {}
        if doc is not None:
            name = f"in-{len(self.requests):03d}.json"
            files[name] = doc
            argv = [argv[0], "--file", name] + argv[1:]
        req = {"kind": argv[0], "argv": [str(a) for a in argv], "files": files,
               "exit": exit_code, "fields": None}
        if self.expect:
            req["fields"] = dict(fields() if callable(fields) else fields)
            if "svg_gap_dots" in req["fields"]:
                req["svg_gap_dots"] = req["fields"].pop("svg_gap_dots")
        self.requests.append(req)

    def add_ideal(self, argv: list, ideal: M.Ideal, fields, **kw):
        doc = {
            "label": f"{argv[0]}-{len(self.requests):03d}",
            "cone": {"rays": [list(ideal.cone.ray1), list(ideal.cone.ray2)]},
            "generators": [list(g) for g in ideal.gens],
        }
        self.add(argv, fields, doc=doc, **kw)

    def finish(self) -> list[dict]:
        self.rng.shuffle(self.requests)
        return json.loads(json.dumps(self.requests))


def _depth_and_width(p: int, columns: float) -> tuple[int, int]:
    """Deepest n with width >= 2 such that width * (1 + p + .. + p^n) ~ columns."""
    n, total = 0, 1
    while 2 * (total + p ** (n + 1)) <= columns:
        n += 1
        total += p**n
    return n, max(2, round(columns / total))


def tower(b: Builder) -> None:
    """Prime-power towers: nearly all work is the per-column lattice count.

    Column counts stop at 2.2e4 (about 13 ms on seed code) and the large
    primes share one cost, so the slowest tenth of the list is a flat
    group: p90 then depends on the count, not on which request sits at it.
    """
    rng = b.rng
    # 72 deep towers on random cones, column counts log-spaced 2e3 .. 2.2e4
    for i in range(72):
        p = TOWER_PRIMES[i % 4]
        n, width = _depth_and_width(p, 2000 * 11 ** (i / 71))
        cone = random_cone(rng, 60)
        ideal = corner_ideal(rng, cone, width, rng.randint(2, min(5, width + 1)))
        b.add_ideal(["function", "--prime", p, "--max-n", n], ideal,
                    partial(expect_function, ideal, p, n))
    # 12 single steps at primes near 2.5e4: the primality test and one wide count
    for _ in range(12):
        p = rng.randint(24000, 26000)
        while not is_prime(p):
            p += 1
        ideal = corner_ideal(rng, random_cone(rng, 60), 1, 2)
        b.add_ideal(["function", "--prime", p, "--max-n", 1], ideal,
                    partial(expect_function, ideal, p, 1))
    # 32 bracket-power splits on a:r,m, q log-spaced 20 .. 200
    for j in range(32):
        q = round(20 * 10 ** (j / 31))
        width = (5, 10, 20, 30)[j % 4]
        r = rng.randint(width + 1, 60)
        ideal = M.a_singularity(r, r - width)
        b.add(["split", "--family", f"a:{r},{r - width}", "--q", q],
              partial(expect_split, ideal, q))


# Veronese (r, m) with --max-n 7 * torsion order; seed-code cost 2 .. 50 ms
POWERS_VERONESE = tuple((r, 1) for r in range(2, 13)) + (
    (3, 2), (5, 2), (6, 2), (8, 2), (10, 2), (12, 2), (6, 3), (9, 3), (8, 4),
)
# 6-8 generators, torsion order at most 9: (r, m) for verify, (r, m, q) for split
VERIFY_VERONESE = (
    (6, 5), (7, 5), (9, 5), (10, 5), (15, 5), (20, 5),
    (8, 6), (9, 6), (12, 6), (15, 6), (14, 7), (21, 7),
)
SPLIT_VERONESE = tuple(
    (r, m, 2 + j % 9) for j, (r, m) in enumerate(
        [(r, m) for m in (5, 6, 7) for r in range(m + 1, m + 9)])
)
# (generators, --max-n) of the non-saturated --file ideals
NONSATURATED = ((3, 16), (3, 24), (4, 10), (4, 14), (5, 8), (5, 10))


def powers(b: Builder) -> None:
    """Ordinary-power chains: nearly all work is multiset power construction."""
    rng = b.rng
    for r, m in POWERS_VERONESE:
        ideal = M.veronese(r, m)
        max_n = 7 * M.torsion(ideal)[0]
        b.add(["powers", "--family", f"veronese:{r},{m}", "--max-n", max_n],
              partial(expect_powers, ideal, max_n))
        # the same ideal in other lattice coordinates, as a --file document
        other = moved(rng, ideal)
        b.add_ideal(["powers", "--max-n", max_n], other, partial(expect_powers, other, max_n))
    for r, m in VERIFY_VERONESE:
        b.add(["verify", "--family", f"veronese:{r},{m}"], {"results.all_passed": True})
    for r, m, q in SPLIT_VERONESE:
        # in other lattice coordinates, so that no two requests hold one ideal
        other = moved(rng, M.veronese(r, m))
        b.add_ideal(["split", "--q", q], other, partial(expect_split, other, q))
    for j in range(24):
        n_gens, max_n = NONSATURATED[j % len(NONSATURATED)]
        ideal = nonsaturated_ideal(rng, 20, n_gens, 6)
        b.add_ideal(["powers", "--max-n", max_n], ideal, partial(expect_powers, ideal, max_n))


# Small inputs of the corpus.  A slot fixes the kind and the lattice index
# d (the cost drivers); the seed picks the member.  Families are always
# saturated and multi-generator quadrant ideals never are.
SMALL_D = (4, 5, 6, 7, 8, 9, 10, 11, 12)


def _family(name: str, r: int, m: int) -> tuple[M.Ideal, Fraction]:
    """Model ideal and closed-form multiplicity of a:r,m or veronese:r,m."""
    if name == "a":
        return M.a_singularity(r, m), Fraction(m * (r - m), r)
    return M.veronese(r, m), Fraction(m * (m + 1), 2 * r)


def _small_input(rng: random.Random, b: Builder, kind: str, d: int, saturated=None):
    """(family flags, or None for a --file document; model ideal; closed form)."""
    for _ in range(1000):
        closed = None
        if kind in ("a", "veronese"):
            r = rng.randint(d, d + 6)
            m = rng.randint(1, min(r - 1, 4) if kind == "veronese" else r - 1)
            key = f"{kind}:{r},{m}"
            ideal, closed = _family(kind, r, m)
        elif kind == "quadrant":
            n_gens = rng.randint(2, 3)
            xs = sorted(rng.sample(range(6), n_gens))
            ys = sorted(rng.sample(range(6), n_gens), reverse=True)
            ideal = M.quadrant(list(zip(xs, ys)))
            key = "quadrant:" + ";".join(f"({x},{y})" for x, y in ideal.gens)
        else:
            cone = random_cone(rng, d + 1, bound=4, d_min=d)
            width = rng.randint(1, 4)
            ideal = corner_ideal(rng, cone, width, rng.randint(2, min(3, width + 1)), rise=1)
            key = ideal_key(ideal)
        if saturated is not None and M.is_saturated(ideal) != saturated:
            continue
        if b.fresh(key):
            return (None if kind == "cone" else ["--family", key]), ideal, closed
    raise RuntimeError(f"no fresh {kind} input near d = {d}")


# fixed family members of the corpus's verify requests; a:r,m and
# veronese:r,m verify costs 4 .. 10 ms and depend on both r and m
VERIFY_FAMILIES = tuple(("a", r, m) for r in (5, 7, 9, 11) for m in (1, 2, r - 2, r - 1)) + (
    ("veronese", 5, 2), ("veronese", 6, 3), ("veronese", 8, 2), ("veronese", 10, 4),
    ("veronese", 11, 1), ("veronese", 12, 3),
)


def corpus(b: Builder) -> None:
    """Many small mixed requests: per-request overhead and every subcommand."""
    rng = b.rng
    kinds = ("a", "quadrant", "cone", "a", "veronese", "cone", "quadrant", "cone")

    def add(cmd, argv_tail, fields, source, exit_code=0):
        flags, ideal = source[0], source[1]
        if flags is None:
            b.add_ideal([cmd] + argv_tail, ideal, fields, exit_code=exit_code)
        else:
            b.add([cmd] + flags + argv_tail, fields, exit_code=exit_code)

    def d(i):
        return SMALL_D[i % len(SMALL_D)]

    # the three inputs every seed includes
    b.fresh("a:7,3")
    b.fresh("veronese:9,7")
    b.add(["verify", "--family", "a:7,3"], {"results.all_passed": True})
    verify_members = []
    for name, r, m in VERIFY_FAMILIES:
        spec = f"{name}:{r},{m}"
        b.fresh(spec)
        verify_members.append((["--family", spec], *_family(name, r, m)))
    b.add(["function", "--family", "veronese:9,7", "--prime", 2, "--max-n", 3],
          partial(expect_function, M.veronese(9, 7), 2, 3))
    src = _small_input(rng, b, "quadrant", 1)
    add("powers", ["--max-n", 8], partial(expect_powers, src[1], 8), src)

    for i in range(30):
        src = _small_input(rng, b, kinds[i % len(kinds)], d(i))
        add("eghk", [], partial(expect_eghk, src[1], src[2]), src)
    for i in range(32):
        p, n = ((2, 4), (3, 3), (5, 2), (7, 1))[i % 4]
        src = _small_input(rng, b, kinds[i % len(kinds)], d(i))
        add("function", ["--prime", p, "--max-n", n], partial(expect_function, src[1], p, n), src)
    for i in range(30):
        q = 2 + i % 4
        src = _small_input(rng, b, ("a", "cone", "veronese", "cone")[i % 4], d(i), True)
        add("split", ["--q", q], partial(expect_split, src[1], q), src)
    for i in range(28):
        src = _small_input(rng, b, ("quadrant", "cone")[i % 2], d(i), False)
        add("powers", ["--max-n", 6 + i % 5], partial(expect_powers, src[1], 6 + i % 5), src)
    for i in range(32):
        r = 3 + i % 8
        while True:
            mults = [rng.randint(0, 3) for _ in range(r - 1)]
            if any(mults) and b.fresh(("reptype", r, tuple(mults))):
                break
        weights = [Fraction(1, r)] * (r - 1)
        argv = ["reptype", "--r", r, "--u", ",".join(map(str, mults))]
        if i % 2:
            weights = [Fraction(rng.randint(1, 5), rng.randint(1, 9)) for _ in range(r - 1)]
            argv += ["--v", ",".join(map(str, weights))]
        b.add(argv, partial(expect_reptype, r, mults, weights))
    # verify sets the tail of the latency distribution, so its family
    # members are fixed; the seed picks only its quadrant members
    for i in range(45):
        src = verify_members[i] if i < len(verify_members) else None
        while src is None or not verify_passes(src[1]):
            src = _small_input(rng, b, "quadrant", 1)
        add("verify", [], {"results.all_passed": True}, src)
    for i in range(32):
        q = 1 + i % 4
        out = f"plot-{i:02d}.svg"
        src = _small_input(rng, b, kinds[i % len(kinds)], d(i))
        add("plot", ["--out", out, "--q-mark", q], partial(expect_plot, src[1], q, out), src)

    # expected error paths, about a tenth of the list
    for i in range(10):
        p = (4, 9, 15, 49, 91, 221, 6, 25, 35, 143)[i]
        src = _small_input(rng, b, ("a", "cone", "quadrant")[i % 3], d(i))
        add("function", ["--prime", p, "--max-n", 2], {}, src, exit_code=1)
    for i in range(10):
        src = _small_input(rng, b, ("quadrant", "cone")[i % 2], d(i), False)
        add("split", ["--q", 2 + i % 3], {}, src, exit_code=1)
    for i in range(9):
        name = rng.choice(("torus", "cusp", "affine", "dihedral"))
        tail = ([], ["--prime", 2, "--max-n", 2], ["--max-n", 14])[i % 3]
        cmd = ("eghk", "function", "powers")[i % 3]
        b.add([cmd, "--family", f"{name}:{rng.randint(2, 9)},1"] + tail, {}, exit_code=1)


WORKLOADS = {"tower": tower, "powers": powers, "corpus": corpus}


def generate(workload: str, seed: int, expect: bool = True) -> list[dict]:
    """The request list of one workload; the same seed gives the same list.

    With expect=False the expectations are left out; the requests are
    the same.
    """
    b = Builder(random.Random(f"{workload}:{seed}"), expect)
    WORKLOADS[workload](b)
    return b.finish()


def warmup(workload: str) -> list[list[str]]:
    """Small fixed argv lists that run each of the workload's subcommands once.

    No workload holds a:3,1 or a rank-2 reptype, so nothing the warm-up
    computes can be reused by a measured request.
    """
    argvs = [["function", "--family", "a:3,1", "--prime", "2", "--max-n", "2"],
             ["split", "--family", "a:3,1", "--q", "2"]]
    if workload != "tower":
        argvs += [["powers", "--family", "a:3,1", "--max-n", "21"],
                  ["verify", "--family", "a:3,1"]]
    if workload == "corpus":
        argvs += [["eghk", "--family", "a:3,1"], ["reptype", "--r", "2", "--u", "1"],
                  ["plot", "--family", "a:3,1", "--out", "warmup.svg", "--q-mark", "2"]]
    return argvs

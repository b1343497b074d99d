"""Pinned inputs of the three workloads and their seed-driven schedules.

Every cell is an explicit ``(engine, benchmark, config, scale)`` tuple.
None is derived from the program's config registry, benchmark list or
default scales: those grow (the config registry has doubled once), and a
benchmark whose inputs grow with the program measures the growth.

The seed orders ``sweep-cold``'s cells and ``run-hot``'s ops and draws
``serve-zipf``'s population and traffic; the program only ever sees the
generated requests.
"""

import itertools
import random

ENGINES = ("lua", "js")

# -- sweep-cold ------------------------------------------------------------------

#: Reduced scales: each cell simulates 25k-165k instructions, about
#: 0.1-0.3 s on the attributed reference loop, so a run of >= 100 ops
#: covers two full sweeps.
_SWEEP_SCALES = (
    ("ackermann", 1),
    ("binary-trees", 4),
    ("fannkuch-redux", 4),
    ("fibo", 11),
    ("k-nucleotide", 30),
    ("mandelbrot", 2),
    ("n-body", 1),
    ("n-sieve", 100),
    ("pidigits", 5),
    ("random", 100),
    ("spectral-norm", 2),
)

SWEEP_CELLS = tuple(
    (engine, benchmark, config, scale)
    for engine in ENGINES
    for benchmark, scale in _SWEEP_SCALES
    for config in ("baseline", "typed"))

# -- run-hot ------------------------------------------------------------------------

#: Both engines; call- (fibo), float- (mandelbrot, n-body), table-
#: (n-sieve) and string-heavy (k-nucleotide) kernels; the baseline,
#: typed, chklb and elided builds.  Lua mandelbrot is the elided cell
#: whose static proofs fire.  Each simulates 0.25-0.6 M instructions.
RUN_HOT_CELLS = (
    ("lua", "fibo", "typed", 14),
    ("js", "fibo", "baseline", 13),
    ("lua", "mandelbrot", "elided", 5),
    ("js", "n-body", "chklb", 4),
    ("lua", "k-nucleotide", "baseline", 150),
    ("js", "n-sieve", "typed", 300),
)

# -- answers ------------------------------------------------------------------------

_KNUC_30 = ("AA 2\nAC 0\nAG 5\nAT 2\nCA 2\nCC 2\nCG 2\nCT 1\n"
            "GA 4\nGC 3\nGG 1\nGT 1\nTA 1\nTC 2\nTG 1\nTT 0\n")

#: Guest output per ``(engine, benchmark, scale)``.  Baseline and typed
#: builds must both print exactly this.
ANSWERS = {}
for _engine in ENGINES:
    ANSWERS.update({
        (_engine, "ackermann", 1): "13\n",
        (_engine, "binary-trees", 4): "56\n",
        (_engine, "fannkuch-redux", 4): "4\n4\n",
        (_engine, "fibo", 11): "89\n",
        (_engine, "fibo", 13): "233\n",
        (_engine, "fibo", 14): "377\n",
        (_engine, "k-nucleotide", 30): _KNUC_30,
        (_engine, "mandelbrot", 2): "0 192 \n192\n",
        (_engine, "n-sieve", 100): "25\n",
        (_engine, "n-sieve", 300): "62\n",
        (_engine, "pidigits", 5): "31415\n",
    })
ANSWERS.update({
    ("lua", "n-body", 1): "-0.16907516382852\n-0.16907495402507\n",
    ("js", "n-body", 1): "-0.16907516382852447\n-0.16907495402506745\n",
    ("js", "n-body", 4): "-0.16907516382852447\n-0.16907431864205047\n",
    ("lua", "random", 100): "82.571730681299\n",
    ("js", "random", 100): "82.57173068129859\n",
    ("lua", "spectral-norm", 2): "1.1833501765517\n",
    ("js", "spectral-norm", 2): "1.1833501765516568\n",
    ("lua", "mandelbrot", 5): "0 24 120 120 24 \n288\n",
    ("lua", "k-nucleotide", 150): (
        "AA 7\nAC 5\nAG 11\nAT 6\nCA 5\nCC 8\nCG 11\nCT 10\n"
        "GA 11\nGC 10\nGG 11\nGT 15\nTA 7\nTC 10\nTG 14\nTT 8\n"),
})


def answer(engine, benchmark, scale):
    return ANSWERS[(engine, benchmark, scale)]


# -- schedules ----------------------------------------------------------------------

def sweep_order(seed):
    """Endless op sequence for ``sweep-cold``: pass after pass over
    :data:`SWEEP_CELLS`, each pass in its own seed-drawn order."""
    rng = random.Random("sweep-cold/%d" % seed)
    while True:
        cells = list(SWEEP_CELLS)
        rng.shuffle(cells)
        yield from cells


def run_hot_order(seed):
    """Endless op sequence for ``run-hot``: rounds over
    :data:`RUN_HOT_CELLS`, each round in its own seed-drawn order, so
    every cell runs equally often."""
    rng = random.Random("run-hot/%d" % seed)
    while True:
        cells = list(RUN_HOT_CELLS)
        rng.shuffle(cells)
        yield from cells


# -- serve-zipf ---------------------------------------------------------------------

#: ``bench`` cells a served client asks for: sweep cells of nearly equal
#: cost (63k-73k simulated cycles), so what a run costs hardly depends on
#: which of them the seed ranks first.
SERVE_BENCH_CELLS = (
    ("lua", "fibo", "baseline", 11),
    ("lua", "fibo", "typed", 11),
    ("js", "fibo", "typed", 11),
    ("lua", "random", "baseline", 100),
    ("lua", "random", "typed", 100),
    ("js", "random", "baseline", 100),
    ("js", "random", "typed", 100),
    ("lua", "pidigits", "baseline", 5),
)

#: Zipf exponent of the popularity draw within each request kind.
ZIPF_S = 1.1

#: Of every 19 requests, 11 are ``run`` programs and 8 ``bench`` cells
#: (positions drawn by the seed): the 0.55 : 0.40 run : bench ratio of
#: the program's own traffic model (``repro.serve.loadgen.DEFAULT_MIX``),
#: pinned here so that a change to the program's defaults does not
#: change the benchmark's inputs.  That model's third kind, a 5 % share
#: of served sweeps, is left out: a sweep reply carries gate metrics
#: but no output or counters to check, and it runs on a thread of the
#: shard process, outside the warm pool, on the path ``sweep-cold``
#: measures in-process.  A fixed mix per block keeps the share of
#: cache-served replies, and so the latency percentiles, from swinging
#: with which item the seed ranks first.
RUN_PER_BLOCK = 11
BLOCK = 19

#: ``run`` programs per seed: templates x engines x variants.
RUN_VARIANTS = 2


def _lua_arith(n, k, m):
    return ("local s = 0\nfor i = 1, %d do\n  s = (s + i * %d) %% %d\nend\n"
            "print(s)\n" % (n, k, m))


def _js_arith(n, k, m):
    return ("var s = 0;\nfor (var i = 1; i <= %d; i++) {\n"
            "  s = (s + i * %d) %% %d;\n}\nprint(s);\n" % (n, k, m))


def _py_arith(n, k, m):
    s = 0
    for i in range(1, n + 1):
        s = (s + i * k) % m
    return "%d\n" % s


def _lua_calls(n, k, m):
    return ("local function f(x)\n  return (x * %d + 7) %% %d\nend\n"
            "local s = 1\nfor i = 1, %d do\n  s = f(s + i)\nend\nprint(s)\n"
            % (k, m, n))


def _js_calls(n, k, m):
    return ("function f(x) {\n  return (x * %d + 7) %% %d;\n}\n"
            "var s = 1;\nfor (var i = 1; i <= %d; i++) {\n  s = f(s + i);\n}\n"
            "print(s);\n" % (k, m, n))


def _py_calls(n, k, m):
    s = 1
    for i in range(1, n + 1):
        s = ((s + i) * k + 7) % m
    return "%d\n" % s


def _lua_table(n, k, m):
    return ("local t = {}\nfor i = 1, %d do\n  t[i] = (i * %d) %% %d\nend\n"
            "local s = 0\nfor i = 1, %d do\n  s = s + t[i]\nend\nprint(s)\n"
            % (n, k, m, n))


def _js_table(n, k, m):
    return ("var t = [];\nfor (var i = 0; i < %d; i++) {\n"
            "  t[i] = ((i + 1) * %d) %% %d;\n}\nvar s = 0;\n"
            "for (i = 0; i < %d; i++) {\n  s = s + t[i];\n}\nprint(s);\n"
            % (n, k, m, n))


def _py_table(n, k, m):
    return "%d\n" % sum((i * k) % m for i in range(1, n + 1))


def _lua_branch(n, k, m):
    return ("local s = 0\nfor i = 1, %d do\n  local r = i %% 3\n"
            "  if r == 0 then\n    s = s + i\n  elseif r == 1 then\n"
            "    s = s + %d\n  else\n    s = s - 1\n  end\nend\n"
            "print(s %% %d)\n" % (n, k, m))


def _js_branch(n, k, m):
    return ("var s = 0;\nfor (var i = 1; i <= %d; i++) {\n"
            "  var r = i %% 3;\n  if (r == 0) {\n    s = s + i;\n"
            "  } else if (r == 1) {\n    s = s + %d;\n  } else {\n"
            "    s = s - 1;\n  }\n}\nprint(s %% %d);\n" % (n, k, m))


def _py_branch(n, k, m):
    s = 0
    for i in range(1, n + 1):
        r = i % 3
        s += i if r == 0 else k if r == 1 else -1
    return "%d\n" % (s % m)


#: ``(name, lua, js, python reference, (lua trips, js trips), modulus
#: range)``.  The trip counts put every program at 24k-26k simulated
#: instructions, so a ``run`` request costs about the same whichever
#: program the seed makes popular; the seed draws only the constants.
_TEMPLATES = (
    ("arith", _lua_arith, _js_arith, _py_arith, (184, 83), (1000, 100000)),
    ("calls", _lua_calls, _js_calls, _py_calls, (96, 59), (1000, 100000)),
    ("table", _lua_table, _js_table, _py_table, (95, 40), (1000, 100000)),
    ("branch", _lua_branch, _js_branch, _py_branch, (106, 56),
     (1000, 100000)),
)


def serve_population(seed):
    """The seed's distinct requests: ``(runs, benches)``.

    ``runs`` holds ``(label, engine, config, source, expected_output)``
    for every template x engine x variant; ``benches`` holds the
    :data:`SERVE_BENCH_CELLS`.  Both come back in the seed's popularity
    order (rank 0 most popular).
    """
    rng = random.Random("serve-zipf/population/%d" % seed)
    runs = []
    for name, lua, js, python, engine_trips, (lo, hi) in _TEMPLATES:
        for engine, render, trips in (("lua", lua, engine_trips[0]),
                                      ("js", js, engine_trips[1])):
            for variant in range(RUN_VARIANTS):
                k = rng.randrange(3, 1000)
                m = rng.randrange(lo, hi)
                config = ("baseline", "typed")[variant]
                runs.append(("%s-%s-%d" % (name, engine, variant), engine,
                             config, render(trips, k, m),
                             python(trips, k, m)))
    benches = list(SERVE_BENCH_CELLS)
    rng.shuffle(runs)
    rng.shuffle(benches)
    return runs, benches


def _zipf_weights(count):
    return [1.0 / (rank + 1) ** ZIPF_S for rank in range(count)]


def serve_order(seed, runs, benches):
    """Endless request sequence for ``serve-zipf``: ``("run", item)`` or
    ``("bench", item)`` tuples.  Each block of :data:`BLOCK` requests
    holds :data:`RUN_PER_BLOCK` runs; within a kind the item is a zipf
    draw over the seed's popularity order."""
    rng = random.Random("serve-zipf/traffic/%d" % seed)
    run_weights = list(itertools.accumulate(_zipf_weights(len(runs))))
    bench_weights = list(itertools.accumulate(_zipf_weights(len(benches))))
    kinds = ["run"] * RUN_PER_BLOCK + ["bench"] * (BLOCK - RUN_PER_BLOCK)
    while True:
        rng.shuffle(kinds)
        for kind in kinds:
            if kind == "run":
                yield kind, rng.choices(runs, cum_weights=run_weights)[0]
            else:
                yield kind, rng.choices(benches,
                                        cum_weights=bench_weights)[0]

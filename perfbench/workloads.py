"""The benchmark workloads: seeded inputs, the calls that evaluate them,
and the snippet a fresh interpreter runs to measure set-up time.

Every workload is a fixed list of calls (one *pass*) that the timed loop
repeats.  Inputs are drawn from ``--seed`` only; the program receives
nothing but the generated points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: oracle_chunks chunk size, a quarter of the 65,536 the test suite feeds to
#: the oracle.  At 65,536 points its double-double temporaries outgrow the
#: 2 MiB L2 and the time per point followed the load other tenants put on
#: the shared L3: between runs a few minutes apart the fastest pass moved
#: from 11.5 to 16.8 us/pt.  At 16,384 points the arithmetic is the same,
#: and its cost per point was within 3% of the larger chunk on a quiet host.
ORACLE_CHUNK = 16384
#: chunks per oracle_chunks pass: as many points as one suite chunk
ORACLE_CHUNKS = 4
#: derived_batches batch size: input, output and temporaries stay in L2
BATCH = 4096
#: derived_batches rotation; voigt takes half of the calls
ROTATION = ("voigt", "erfc", "voigt", "erfcx", "voigt", "erf", "voigt", "dawson")

NAMES = ("polar_grid", "plasma_scalar", "derived_batches", "oracle_chunks")


@dataclass
class Call:
    """One call into the public API: ``api`` is an attribute path below the
    ``faddeeva`` package, looked up at every call so that wrappers installed
    by the traced run are seen."""

    api: str
    args: tuple
    points: int


@dataclass
class Workload:
    calls: list
    setup_code: str
    #: time the fastest whole pass instead of the whole run.  On a shared
    #: host whose core speed dips in bursts lasting seconds, the fastest
    #: pass reads the least disturbed speed, while whole-run figures follow
    #: how much of the run the dips covered.  polar_grid's pass is one call
    #: of about 0.5 s; its whole-run mean was the steadier figure.
    fastest_pass: bool = False

    @property
    def points(self) -> int:
        return sum(c.points for c in self.calls)

    @property
    def call_points(self) -> int:
        """Points per call; all calls of a workload have the same size."""
        return self.calls[0].points


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's pass of calls.  ``tiny`` shrinks every size for the
    self-test; the command line cannot set it."""
    wl = _BUILDERS[name](np.random.default_rng(seed), tiny)
    assert len({c.points for c in wl.calls}) == 1, "calls of unequal size"
    return wl


def polar_grid(tiny: bool = False):
    """The paper's 2001 x 801 first-quadrant polar grid (or a coarse one)."""
    from faddeeva import bench

    spec = bench.GridSpec(p_step=0.5, theta_count=9) if tiny else bench.GridSpec()
    return bench.gen_polar_grid(spec)


def _polar_grid(rng, tiny):
    z = polar_grid(tiny)
    return Workload(
        [Call("w", (z,), z.size)],
        "import numpy as np, faddeeva\nfaddeeva.w(np.array([1.5 + 0.5j]))",
    )


def _plasma_scalar(rng, tiny):
    n = 64 if tiny else 2048
    z = rng.uniform(-8.0, 8.0, n) + 1j * rng.uniform(-5.0, 5.0, n)
    return Workload(
        [Call("w", (complex(v),), 1) for v in z],
        "import faddeeva\nfaddeeva.w(1.5 - 0.5j)",
        fastest_pass=True,
    )


def _derived_batches(rng, tiny):
    size, rotations = (64, 2) if tiny else (BATCH, 8)
    calls = []
    for _ in range(rotations):
        for fn in ROTATION:
            if fn == "erf":
                mag = np.exp(rng.uniform(np.log(1e-12), np.log(6.0), size))
                x = mag * rng.choice([-1.0, 1.0], size)
            else:
                x = rng.uniform(-30.0, 30.0, size)
            if fn == "voigt":
                y = float(np.exp(rng.uniform(np.log(1e-4), np.log(10.0))))
                calls.append(Call(fn, (x, y), size))
            else:
                calls.append(Call(fn, (x,), size))
    setup = (
        "import numpy as np, faddeeva\nx = np.array([0.5])\n"
        "faddeeva.voigt(x, 0.1); faddeeva.erfc(x); faddeeva.erfcx(x)\n"
        "faddeeva.erf(x); faddeeva.dawson(x)"
    )
    return Workload(calls, setup, fastest_pass=True)


def _oracle_chunks(rng, tiny):
    z = polar_grid(tiny)
    size, chunks = (128, 1) if tiny else (ORACLE_CHUNK, ORACLE_CHUNKS)
    sample = z[rng.choice(z.size, size * chunks, replace=False)]
    calls = [
        Call("oracle.w_oracle", (sample[i * size:(i + 1) * size],), size)
        for i in range(chunks)
    ]
    setup = (
        "import numpy as np, faddeeva.oracle\n"
        "faddeeva.oracle.w_oracle(np.array([1.5 + 0.5j]))"
    )
    return Workload(calls, setup, fastest_pass=True)


_BUILDERS = {
    "polar_grid": _polar_grid,
    "plasma_scalar": _plasma_scalar,
    "derived_batches": _derived_batches,
    "oracle_chunks": _oracle_chunks,
}


def resolve(faddeeva, api: str):
    obj = faddeeva
    for part in api.split("."):
        obj = getattr(obj, part)
    return obj

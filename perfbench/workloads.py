"""The benchmark's three workloads: scenario documents, perturbation, commands.

Each workload is a fixed list of `qcx` invocations over a fixed set of
scenario documents.  A pass runs every invocation once.  Pass 0 uses the
documents as written here (they are what `reference.json` records); every
later pass multiplies each real parameter of the scenario's function by
1 + EPS * u with u drawn uniformly from [-1, 1] by a generator seeded with
(seed, pass index), so no pass can reuse work from an earlier one.  EPS is
small enough that every verdict stays the one recorded in the reference.
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass

EPS = 1e-3

SECTOR = {"w0": [-2.0, 0.0], "lambda0": 1.8333333333333333,
          "a": 0.3333333333333333}
DISK_32 = {"radial": 32, "angular": 64}
ANNULUS_16 = {"radial": 16, "angular": 32, "inner": 1.001, "outer": 3.0}
ANNULUS_32 = {"radial": 32, "angular": 64, "inner": 1.001, "outer": 3.0}

# The smoke-test size: every grid shrunk so a pass takes well under a second.
TINY = {"grid": {"radial": 8, "angular": 16},
        "annulus": {"radial": 6, "angular": 12, "inner": 1.001, "outer": 3.0},
        "times": {"t_max": 2.0, "count": 5}}


def _poly(a2: float) -> dict:
    return {"kind": "polynomial", "coefficients": [[a2, 0.0]]}


def _cayley(radius: float) -> dict:
    return {"kind": "scaled", "radius": radius, "base": {"kind": "cayley"}}


def _doc(function: dict, criterion: str, params: dict, companion=None,
         **extra) -> dict:
    doc = {"version": 1, "function": function, "criterion": criterion,
           "params": params}
    if companion is not None:
        doc["companion"] = companion
    doc.update(extra)
    return doc


IDENTITY = {"kind": "identity"}

# disk_scan: the seven criteria whose value needs no branch of a logarithm,
# at the default 64x128 disk grid.  One verdict is an expected failure
# (a spiral is not starlike, so phi_like with Phi = w fails), which keeps
# the exit-1 path in the timed loop.
DISK_SCAN = {
    "nw_poly": _doc(_poly(0.25), "nw", {"k": 0.5, "k_prime": 0.34}, IDENTITY),
    "becker_cayley": _doc(_cayley(3.0), "gen_becker",
                          {"k": 0.5, "k_prime": 0.5}, IDENTITY),
    "philike_spiral": _doc({"kind": "spiral", "lam": 0.6}, "phi_like", {},
                           IDENTITY),
    "philike_udisk_poly": _doc(_poly(0.25), "phi_like_udisk",
                               {"k": 0.5, "k_prime": 0.5}, IDENTITY),
    "moebius_becker_poly": _doc(_poly(0.2), "moebius_becker",
                                {"k": 0.9, "c": [0.0, 0.0], "c2": [-3.0, 0.0]}),
    "moebius_nw_poly": _doc(_poly(0.2), "moebius_nw",
                            {"k": 0.6, "gamma": [0.2, 0.0], "delta": [1.0, 0.0]}),
    "sector_becker_poly": _doc(_poly(0.1), "sector_becker",
                               dict(k=0.65, **SECTOR)),
}

# tracked: criteria and a chain that continue logarithms along [0, z].
# bazilevic_udisk with p = Koebe is an expected failure: f'(z) z/p(z) tends
# to 0 at z = 1, and 0 lies outside every U(k).
TRACKED = {
    "bazilevic_poly": _doc(_poly(0.25), "bazilevic", {"s": [1.0, 0.5]},
                           IDENTITY, grid=DISK_32, annulus=ANNULUS_16),
    "bazilevic_udisk_koebe": _doc(_poly(0.25), "bazilevic_udisk",
                                  {"s": [1.0, 0.5], "k": 0.6, "k_prime": 0.6,
                                   "p": {"kind": "koebe"}},
                                  IDENTITY, grid=DISK_32),
    "sector_nw_poly": _doc(_poly(0.1), "sector_nw", dict(k=0.75, **SECTOR),
                           grid=DISK_32),
}

# extend_verify: chains, extensions and the Beltrami stencil with file output.
EXTEND_VERIFY = {
    "nw_chain": _doc(_poly(0.25), "nw", {"k": 0.5, "k_prime": 0.34}, IDENTITY,
                     annulus=ANNULUS_32),
    "becker_chain": _doc(_cayley(3.0), "gen_becker", {"k": 0.5, "k_prime": 0.5},
                         IDENTITY, annulus=ANNULUS_32),
    "philike_chain": _doc(_cayley(2.0), "phi_like", {}, IDENTITY,
                          annulus=ANNULUS_32),
    "sector_chain": _doc(_poly(0.1), "sector_nw", dict(k=0.75, **SECTOR),
                         dict(kind="sector", **SECTOR), annulus=ANNULUS_32),
}


@dataclass(frozen=True)
class Invocation:
    command: str
    scenario: str
    flags: tuple[str, ...] = ()

    @property
    def key(self) -> str:
        return f"{self.scenario}:{self.command}"


@dataclass(frozen=True)
class Workload:
    name: str
    scenarios: dict
    invocations: tuple[Invocation, ...]


def _calls(command: str, names) -> tuple[Invocation, ...]:
    return tuple(Invocation(command, n) for n in names)


WORKLOADS = {
    w.name: w for w in (
        Workload("disk_scan", DISK_SCAN, _calls("check", DISK_SCAN)),
        Workload("tracked", TRACKED,
                 _calls("check", TRACKED)
                 + (Invocation("extend", "bazilevic_poly"),
                    Invocation("beltrami", "bazilevic_poly"))),
        Workload("extend_verify", EXTEND_VERIFY,
                 tuple(inv for n in EXTEND_VERIFY for inv in (
                     Invocation("extend", n, ("--out", "{out}")),
                     Invocation("beltrami", n, ("--out", "{out}", "--svg"))))),
    )
}


def _scale_function(spec: dict, rng: random.Random) -> None:
    """Multiply every real parameter of a function spec by 1 + EPS*u in place."""
    def factor() -> float:
        return 1 + EPS * rng.uniform(-1.0, 1.0)

    kind = spec["kind"]
    if kind == "polynomial":
        spec["coefficients"] = [[c * factor() for c in pair]
                                for pair in spec["coefficients"]]
    elif kind == "spiral":
        spec["lam"] *= factor()
    elif kind == "scaled":
        spec["radius"] *= factor()
    else:
        raise ValueError(f"no perturbable parameter in function kind {kind!r}")


def scenario_docs(workload: Workload, seed: int, pass_index: int,
                  size: str) -> dict[str, dict]:
    """The scenario documents of one pass, keyed by scenario name."""
    rng = random.Random(f"{workload.name}:{seed}:{pass_index}")
    docs = {}
    for name, base in workload.scenarios.items():
        doc = copy.deepcopy(base)
        doc["output"] = {"prefix": name}
        if size == "tiny":
            doc.update(copy.deepcopy(TINY))
        if pass_index != 0:
            _scale_function(doc["function"], rng)
        docs[name] = doc
    return docs

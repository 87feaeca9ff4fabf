"""Command line front end.

Every subcommand prints one JSON report to stdout, serialized with
sorted keys and two-space indentation so identical inputs produce
byte-identical output.  Exact counts are emitted as decimal strings.
Wall-clock timing goes to stderr only, never into the report.

Exit codes: 0 when the run succeeds and every check holds, 1 when a
check fails or stdout is closed, 2 for usage, setting, input or
resource errors, 3 when an internal invariant breaks.

``COMMANDS`` declares each subcommand once: its handler, its help line
and its settings with their defaults.  Every setting ``name`` is both a
flag ``--name`` (``_`` written as ``-``) and a config-file key ``name``,
of its default's type; the settings named in ``CHOICES`` take only the
values listed there, or their default.  A config file holds
``key=value`` lines (# starts a comment); explicit flags override the
file, and the effective settings are echoed in the report under
"config".
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import cache

import numpy as np

from . import __version__
from .extremal import METHODS, search_extremal_L_free
from .field import ResourceLimitError, check_size, subspace_from_normals
from .increment import (
    increment_driver,
    planted_row_instance,
    planted_skew_instance,
    pseudorandomize_u2,
)
from .linforms import cs_complexity, lshape_slot_system, von_neumann_check
from .norms import box_norm, gcs_check, gowers_norm, slot_norm
from .patterns import corner_average, lshape_average, obstruction_example, ones_like, telescope_check
from .spectral import (
    dft,
    dft_reference,
    idft,
    inverse_u2,
    parseval_report,
    subspace_average_bound_check,
    u2_fourth,
)
from .structured import FiberFamily, StructuredProductSet, random_family
from .tables import FunctionTable, load_any

__all__ = ["build_parser", "main"]


# ---------------------------------------------------------------------------
# config plumbing


def _read_config(path: str) -> dict[str, str]:
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"config line has no '=': {raw.strip()!r}")
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(value: str, like) -> object:
    if isinstance(like, bool):
        low = value.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise ValueError(f"not a boolean: {value!r}")
    if isinstance(like, int):
        return int(value)
    if isinstance(like, float):
        return float(value)
    return value


def _effective_settings(args: argparse.Namespace) -> dict[str, object]:
    """defaults < config file < explicit flags, echoed back in the report."""
    defaults = COMMANDS[args.command][2]
    merged = dict(defaults)
    if args.config:
        for key, value in _read_config(args.config).items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            merged[key] = _coerce(value, defaults[key])
    for key in defaults:
        flag_value = getattr(args, key)
        if flag_value is not None:
            merged[key] = flag_value
    # config values bypass argparse's choices; a default is always allowed
    for key, value in merged.items():
        if key in CHOICES and value != defaults[key] and value not in CHOICES[key]:
            raise ValueError(f"{key} must be one of {CHOICES[key]}, got {value!r}")
    # a negative digit count is refused by the value given: further down a
    # count would name the 2n digits of its pair space, and the extremal
    # search would fail with a traceback
    for key in ("n", "m"):
        if merged.get(key, 0) < 0:
            raise ValueError(f"{key} must be nonnegative, got {merged[key]}")
    return merged


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def _emit(report: dict) -> None:
    print(json.dumps(_jsonable(report), sort_keys=True, indent=2))


def _random_table(p: int, m: int, seed: int) -> FunctionTable:
    size = check_size(p, m)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, size) + 1j * rng.uniform(-1.0, 1.0, size)
    scale = np.abs(vals).max()
    if scale > 0:
        vals = vals * (0.9 / scale)
    return FunctionTable(p, m, vals, kind="complex")


def _random_set(p: int, m: int, seed: int, density: float = 0.5) -> FunctionTable:
    if not 0.0 <= density <= 1.0:  # NaN fails this too
        raise ValueError(f"density must lie in [0, 1], got {density}")
    size = check_size(p, m)
    rng = np.random.default_rng(seed)
    return FunctionTable(p, m, rng.random(size) < density)


def _load_pair_set(path: str) -> tuple[FunctionTable, int, int]:
    """(S, p, n) for a set or table file whose table is an indicator on a
    pair space Z_p^n x Z_p^n."""
    table = load_any(path)
    if table.kind != "indicator":
        raise ValueError("need an indicator-kind table")
    if table.m % 2:
        raise ValueError(f"need a set on a pair space (an even number of digits), got m = {table.m}")
    return table, table.p, table.m // 2


def _random_structured(p: int, n: int, d: int, seed: int):
    fam = random_family(p, n, d, seed, base_density=0.85)
    b = _random_set(p, n, seed + 101, 0.8)
    c = _random_set(p, n, seed + 202, 0.8)
    d_set = _random_set(p, n, seed + 303, 0.8)
    t = StructuredProductSet(b, c, d_set, fam)
    rng = np.random.default_rng(seed + 404)
    members = t.table.member_indices()
    keep = members[rng.random(len(members)) < 0.5]
    if len(keep) == 0 and len(members):
        keep = members[:1]
    return FunctionTable.from_indices(p, 2 * n, keep), t


# ---------------------------------------------------------------------------
# subcommands: each takes the effective settings and returns (body, exit
# code); ``main`` wraps the body in the report envelope


def _cmd_norm(settings: dict) -> tuple[dict, int]:
    """One norm of a loaded or random table, with the table's p and m."""
    if settings["table"]:
        table = load_any(settings["table"])
    else:
        table = _random_table(settings["p"], settings["m"], settings["seed"])
    kind = settings["kind"]
    if kind == "gowers":
        res = gowers_norm(table, settings["order"], definition_only=settings["definition_only"])
        result = {"value": res.value, "power": res.power, "raw_average": _jsonable(complex(res.raw_average))}
    elif kind == "box":
        res = box_norm(table)
        result = {"value": res.value, "power": res.power}
    else:
        res = slot_norm(table, int(kind[-1]))
        result = {"value": res.value, "power": res.power}
    result["p"] = table.p
    result["m"] = table.m
    return {"result": result}, 0


def _cmd_count(settings: dict) -> tuple[dict, int]:
    """Configuration or corner counts of a loaded, built-in or random set."""
    extras: dict = {}
    if settings["set"]:
        ind, p, n = _load_pair_set(settings["set"])
    elif settings["example"]:
        p, n = settings["p"], settings["n"]
        kind = settings["example"].replace("-", "_")
        ex = obstruction_example(kind, p, n, settings["seed"])
        ind = ex.set
        extras = {
            "example": settings["example"],
            "predicted_density": ex.predicted_density,
            "predicted_count": str(ex.predicted_count),
        }
        extras.update({k: _jsonable(v) for k, v in ex.extras.items()})
    else:
        p, n = settings["p"], settings["n"]
        ind = _random_set(p, 2 * n, settings["seed"], settings["density"])
    if settings["pattern"] == "lshape":
        res = lshape_average(ind, ind, ind, ind)
    else:
        res = corner_average(ind, ind, ind)
    result = {
        "p": p,
        "n": n,
        "pattern": settings["pattern"],
        "density": ind.density,
        "cardinality": str(ind.cardinality),
        "average": res.real_average,
        "exact_count": None if res.exact_count is None else str(res.exact_count),
        "nontrivial_count": None if res.nontrivial_count is None else str(res.nontrivial_count),
    }
    result.update(extras)
    return {"result": result}, 0


def _check(checks: list, check_id: str, holds: bool, **detail) -> None:
    entry = {"id": check_id, "holds": bool(holds)}
    entry.update(detail)
    checks.append(entry)


def _cmd_verify(settings: dict) -> tuple[dict, int]:
    """The checks of the chosen suites; exit code 1 unless all of them hold."""
    p, n, seed, trials = settings["p"], settings["n"], settings["seed"], settings["trials"]
    suite = settings["suite"]
    if trials < 0:
        raise ValueError(f"trials must be nonnegative, got {trials}")
    checks: list[dict] = []

    if suite in ("spectral", "all"):
        for i in range(trials):
            f = _random_table(p, n, seed + i)
            rep = parseval_report(f)
            _check(checks, "parseval-identity", abs(rep["relative_gap"]) <= 1e-9, trial=i)
            back = idft(dft(f))
            _check(checks, "fourier-inversion",
                   float(np.abs(back.values - f.values).max()) <= 1e-9, trial=i)
            ref = dft_reference(f).values
            _check(checks, "u2-fourth-power",
                   abs(u2_fourth(f) - float(np.sum(np.abs(ref) ** 4))) <= 1e-9, trial=i)
            freq, corr = inverse_u2(f)
            _check(checks, "inverse-u2-correlation",
                   corr + 1e-12 >= gowers_norm(f, 2).value ** 2,
                   trial=i, frequency=freq.tolist())
        coset = subspace_from_normals(p, n, ((1,) + (0,) * (n - 1),), (0,))
        f = _random_table(p, n, seed + 71)
        rep = subspace_average_bound_check(f, coset)
        _check(checks, "subspace-average-bound", rep["holds"])

    if suite in ("control", "all"):
        for i in range(trials):
            fs = [_random_table(p, 2 * n, seed + 800 + 4 * i + j) for j in range(4)]
            # slot j of lam(1^j, f_j, ..., f_3) is controlled by its slot norm
            for j in range(3):
                lam = lshape_average(*[ones_like(fs[0])] * j, *fs[j:])
                _check(checks, f"control-slot-{j + 1}",
                       abs(lam.average) <= slot_norm(fs[j], j).value + 1e-9, trial=i)

    if suite in ("patterns", "all"):
        ex = obstruction_example("dot", 3, 3, seed)
        _check(checks, "dot-obstruction-density",
               ex.set.cardinality == 261 and ex.set.density == 261 / 729)
        res = lshape_average(ex.set, ex.set, ex.set, ex.set)
        _check(checks, "dot-obstruction-count",
               res.exact_count == ex.predicted_count,
               count=str(res.exact_count))
        s = _random_set(p, 2 * n, seed + 5, 0.6)
        rep = telescope_check(s)
        _check(checks, "telescope-bound", rep["holds"])

    if suite in ("norms", "all"):
        f0 = _random_table(p, n, seed + 11)
        fam = [_random_table(p, n, seed + 20 + j) for j in range(4)]
        rep = gcs_check(fam, 2)
        _check(checks, "cube-product-bound", rep["holds"])
        sys_l = lshape_slot_system(p)
        cert = cs_complexity(sys_l)
        vn = von_neumann_check(sys_l, [f0, _random_table(p, n, seed + 31), _random_table(p, n, seed + 32)],
                               cert.s, n)
        _check(checks, "system-von-neumann", vn["holds"], complexity=cert.s)

    if suite in ("trivial", "all"):
        const = FunctionTable(p, 2 * n, np.full(p ** (2 * n), -0.4 + 0.3j), kind="complex")
        _check(checks, "constant-slot-norm",
               abs(slot_norm(const, 0).value - abs(-0.4 + 0.3j)) <= 1e-12)
        ind = _random_set(p, n, seed + 61, 0.5)
        _check(checks, "indicator-first-norm",
               abs(gowers_norm(ind, 1).value - ind.density) <= 1e-12)
        empty = FunctionTable(p, 2 * n, np.zeros(p ** (2 * n), dtype=bool))
        res = lshape_average(empty, empty, empty, empty)
        _check(checks, "empty-set-count",
               res.exact_count == 0 and res.nontrivial_count == 0)

    ok = all(c["holds"] for c in checks)
    return {"checks": checks, "all_hold": ok}, 0 if ok else 1


def _cmd_extremal(settings: dict) -> tuple[dict, int]:
    """A configuration-free set found by the chosen search method."""
    res = search_extremal_L_free(settings["p"], settings["n"], settings["method"],
                                 settings["seed"], settings["iterations"])
    return {"result": res}, 0


def _cmd_pseudorandomize(settings: dict) -> tuple[dict, int]:
    """The U^2 pseudorandomization report of a random structured instance."""
    s, t = _random_structured(settings["p"], settings["n"], settings["d"], settings["seed"])
    return {"result": pseudorandomize_u2(s, t, settings["eps"], settings["tau"]).report}, 0


def _cmd_increment(settings: dict) -> tuple[dict, int]:
    """The increment driver's run on a loaded, planted or random instance."""
    p, n = settings["p"], settings["n"]
    if settings["set"]:
        s, p, n = _load_pair_set(settings["set"])
        full = FunctionTable(p, n, np.ones(p**n, dtype=bool))
        t = StructuredProductSet(full, full, full, FiberFamily.full(full))
    elif settings["planted"] == "row-bias":
        s, t = planted_row_instance(p, n)
    elif settings["planted"] == "line-bias":
        s, t = planted_skew_instance(p, n)
    else:
        s, t = _random_structured(p, n, settings["d"], settings["seed"])
    res = increment_driver(s, t, settings["eps"], settings["tau"],
                           max_steps=settings["max_steps"],
                           require_l_free=settings["require_l_free"])
    if settings["set"]:
        # the file's p and n, which "config" does not hold
        res = {**res, "p": p, "n": n}
    if settings["trajectory_file"]:
        with open(settings["trajectory_file"], "w", encoding="utf-8") as fh:
            for record in res["trajectory"]:
                fh.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")
    return {"result": res}, 0


# ---------------------------------------------------------------------------
# wiring


#: Each subcommand once: its handler, its help line and its settings as
#: name: default.  The default's type is the setting's type.
COMMANDS = {
    "norm": (_cmd_norm, "evaluate a uniformity norm on a table",
             {"p": 3, "m": 2, "seed": 0, "order": 2, "kind": "gowers",
              "definition_only": False, "table": ""}),
    "count": (_cmd_count, "count configurations in a pair-space set",
              {"p": 3, "n": 1, "seed": 0, "pattern": "lshape", "set": "",
               "example": "", "density": 0.5}),
    "verify": (_cmd_verify, "run identity and inequality checks",
               {"p": 3, "n": 2, "seed": 0, "suite": "all", "trials": 4}),
    "extremal": (_cmd_extremal, "search for configuration-free sets",
                 {"p": 3, "n": 1, "seed": 0, "method": "exhaustive", "iterations": 200}),
    "pseudorandomize": (_cmd_pseudorandomize, "refine a partition until cells look uniform",
                        {"p": 3, "n": 2, "d": 0, "seed": 0, "eps": 0.1, "tau": 0.1}),
    "increment": (_cmd_increment, "run the density increment driver",
                  {"p": 3, "n": 2, "d": 0, "seed": 0, "eps": 0.1, "tau": 0.1,
                   "max_steps": 12, "planted": "none", "require_l_free": False,
                   "set": "", "trajectory_file": ""}),
}

CHOICES = {
    "kind": ("gowers", "box", "slot0", "slot1", "slot2"),
    "pattern": ("lshape", "corner"),
    "example": ("dot", "random-phi", "coordinate"),
    "suite": ("spectral", "control", "patterns", "norms", "trivial", "all"),
    "method": METHODS,
    "planted": ("none", "row-bias", "line-bias"),
}

HELP = {
    "p": "prime modulus",
    "seed": "random seed",
    "m": "number of digits",
    "n": "digits per coordinate",
    "d": "fiber codimension",
    "order": "uniformity order s",
    "definition_only": "force the literal nested-sum evaluation",
    "table": "table or set file to load",
    "set": "set file to load; for increment, pairs inside the full ambient product",
    "example": "count a built-in obstruction set",
    "density": "density of the random demo set",
    "planted": "use a planted instance instead of a random one",
    "trajectory_file": "where to write the JSON-lines step trajectory",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lshape",
                                     description="configuration counting and density increments on pair spaces")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, settings) in COMMANDS.items():
        sp = sub.add_parser(command, help=help_line)
        sp.add_argument("--config", help="key=value settings file")
        for name, default in settings.items():
            flag = "--" + name.replace("_", "-")
            if isinstance(default, bool):
                sp.add_argument(flag, dest=name, action="store_const", const=True, help=HELP.get(name))
            else:
                sp.add_argument(flag, dest=name, type=type(default), choices=CHOICES.get(name),
                                help=HELP.get(name))
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built on first use: parsing leaves it
    unchanged, and building it costs more than many commands."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    start = time.perf_counter()
    try:
        settings = _effective_settings(args)
        body, code = COMMANDS[args.command][0](settings)
    except (ValueError, OSError, ResourceLimitError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    try:
        _emit({"command": args.command, "config": settings, **body, "version": __version__})
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone; point stdout at devnull so that the flush
        # at interpreter exit cannot raise a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    elapsed = time.perf_counter() - start
    print(f"elapsed {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())

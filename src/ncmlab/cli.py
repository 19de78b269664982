"""Command line runner: loads circuit and scheme files, executes the
distributional checks, and writes deterministic JSON reports.

Reports contain no timestamps or wall times, so the same subcommand with
the same configuration (seed included) produces byte-identical output;
elapsed time goes to stderr. Exit codes: 0 all checks passed, 2 at least
one check failed, 3 unusable input, 4 an enumeration or size cap was hit.
A failed run writes no report file.

Empirical tolerances are five binomial sigmas at the configured trial
count, so they are functions of the config alone.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .acceptance import BASE_SEED, EXACT_TOL, Check, SUITES, run_suite
from .acceptance import _leq as _chk
from .dist import check_bits, empirical_codes, marginal, sd
from .errors import (
    ImpossibleConditionError,
    InstanceTooLargeError,
    ParseError,
    ProtocolError,
    RetryBudgetExceededError,
    StructureError,
)
from .ncmo import oracle_exact, oracle_read_codes
from .qsim import circuit_from_json, enumerate_branches, load_json
from .puzzles import per_step_sd, step_adversary
from .dcrpuzz import (
    ColSampler,
    col_law,
    col_oracle_gap,
    distinct_answer_prob,
    load_scheme,
)
from .primitives import (
    ToyCommitment,
    balanced_table,
    both_parity_mass,
    com_break_via_collision,
    mac_break_via_collision,
    toy_commitment,
    toy_mac,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 2
EXIT_INPUT_ERROR = 3
EXIT_CAP_EXCEEDED = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error() exits with status 2, which this tool
    # reserves for check failures
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(raw: str, low: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {raw!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(
            f"must be at least {low}, got {value}")
    return value


def _positive_int(raw: str) -> int:
    return _int_at_least(raw, 1)


def _seed(raw: str) -> int:
    # numpy's generators take non-negative seeds only
    return _int_at_least(raw, 0)


def _binomial_tol(trials: int) -> float:
    return 5.0 * (0.25 / trials) ** 0.5


# -- input loading ----------------------------------------------------------------

def _load_circuit(path: str):
    return circuit_from_json(load_json(path))


def _load_instance(path: str):
    """Instance file: {"circuit": <circuit object or file name>, "x": bits}."""
    obj = load_json(path)
    if not isinstance(obj, dict):
        raise ParseError("instance file must be a JSON object")
    if "circuit" not in obj:
        raise ParseError("instance file needs a 'circuit' field")
    ref = obj["circuit"]
    if isinstance(ref, str):
        base = os.path.dirname(os.path.abspath(path))
        circuit = _load_circuit(os.path.join(base, ref))
    elif isinstance(ref, dict):
        circuit = circuit_from_json(ref)
    else:
        raise ParseError("'circuit' must be an object or a file name")
    x = obj.get("x", "")
    if not isinstance(x, str):
        raise ParseError("'x' must be a string of bits")
    check_bits(x)
    return x, circuit


def _require_seed(args) -> int:
    if args.seed is None:
        raise _UsageError("--seed is required whenever sampling happens")
    return args.seed


def _parse_params(raw: str | None) -> dict:
    out: dict = {}
    if not raw:
        return out
    for part in raw.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"parameter {part!r} is not of the form k=v")
        key, value = part.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key:
            raise ParseError(f"parameter {part!r} has an empty name")
        if key in out:
            raise ParseError(f"parameter {key} is given more than once")
        out[key] = value
    return out


def _take_params(params: dict, allowed: dict) -> dict:
    """Defaults overridden by params; a value takes its default's type."""
    unknown = set(params) - set(allowed)
    if unknown:
        raise ParseError(
            f"unknown parameters {sorted(unknown)}; "
            f"this reduction takes {sorted(allowed)}")
    merged = dict(allowed)
    for key, value in params.items():
        if isinstance(allowed[key], int):
            try:
                value = int(value)
            except ValueError:
                raise ParseError(
                    f"parameter {key} must be an integer, not {value!r}"
                ) from None
        merged[key] = value
    return merged


# -- report assembly ---------------------------------------------------------------

def _report(command: str, config: dict, checks: list[Check],
            payload: dict | None = None) -> dict:
    out = {
        "artifact": {"name": "ncmlab", "version": __version__},
        "command": command,
        "config": config,
        "checks": [{"name": c.name, "value": c.value,
                    "tolerance": c.tolerance, "pass": c.passed}
                   for c in checks],
        "passed": all(c.passed for c in checks),
    }
    if payload is not None:
        out["payload"] = payload
    return out


def _emit(report: dict, out_path: str | None):
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    try:
        with (contextlib.nullcontext(sys.stdout) if out_path is None
              else open(out_path, "w", encoding="utf-8")) as fh:
            fh.write(text)
            fh.flush()  # a failed write shows here, not at exit
    except OSError as e:
        where = "stdout" if out_path is None else out_path
        raise ParseError(f"cannot write {where}: {e}") from e


# -- subcommands --------------------------------------------------------------------

def _cmd_run_oracle(args) -> dict:
    circuit = _load_circuit(args.circuit)
    config = {"circuit": args.circuit, "mode": args.mode,
              "seed": args.seed, "shots": args.shots}
    checks: list[Check] = []
    payload: dict = {"qubits": circuit.qubits, "steps": circuit.depth}
    if args.mode == "exact":
        leaves = enumerate_branches(circuit).levels[-1]
        mass = abs(sum(leaves.probs.tolist()) - 1.0)
        law = oracle_exact(circuit)
        checks.append(_chk("oracle/branch-mass-deficit", mass, EXACT_TOL))
        payload["law"] = law.to_json()
        return _report("run-oracle", config, checks, payload)
    seed = _require_seed(args)
    # the exact law draws nothing; built first, its tree serves the sampler
    try:
        exact = oracle_exact(circuit)
    except InstanceTooLargeError:
        exact = None
    rng = np.random.default_rng(seed)
    emp = empirical_codes(oracle_read_codes(circuit, args.shots, rng),
                          circuit.qubits)
    payload["empirical"] = emp.to_json()
    payload["exact_comparison"] = exact is not None
    if exact is not None:
        tol = 5.0 * (len(exact) / args.shots) ** 0.5
        checks.append(_chk(f"oracle/sampling-tv[{args.shots} shots]",
                           sd(emp.to_dist(), exact), tol))
    return _report("run-oracle", config, checks, payload)


def _cmd_check_hybrid(args) -> dict:
    x, circuit = _load_instance(args.instance)
    adv = step_adversary(args.adversary)
    report = per_step_sd(x, circuit, adv)
    identity = max((abs(h - s) for h, s in zip(report.hybrid_gaps,
                                               report.step_gaps)),
                   default=0.0)
    slack = report.endpoint_gap - report.telescoped
    checks = [
        _chk("hybrid/adjacent-gap-equals-single-step-gap", identity,
             EXACT_TOL),
        _chk("hybrid/telescoping-slack", slack, EXACT_TOL),
    ]
    payload = {
        "endpoint_sd": report.endpoint_gap,
        "hybrid_gaps": list(report.hybrid_gaps),
        "per_step_sds": list(report.step_gaps),
        "telescoped": report.telescoped,
    }
    config = {"instance": args.instance, "adversary": args.adversary}
    return _report("check-hybrid", config, checks, payload)


def _cmd_run_reduction(args) -> dict:
    seed = _require_seed(args)
    rng = np.random.default_rng(seed)
    trials = args.trials
    emp_tol = _binomial_tol(trials)
    params = _parse_params(args.params)
    checks: list[Check] = []
    if args.primitive == "mac":
        if args.variant is not None:
            raise ParseError("the mac reduction has no --variant")
        p = _take_params(params, {"n": 4, "lm": 4})
        mac = toy_mac(p["n"], p["lm"], rng)
        game = mac_break_via_collision(mac, trials, rng)
        exact = game.exact
        target = 1.0 - 2.0 ** -p["lm"]
        checks.append(_chk("mac/exact-win-hits-closed-form",
                           abs(exact - target), EXACT_TOL))
        checks.append(_chk(f"mac/empirical-win[{trials} trials]",
                           abs(game.rate - exact), emp_tol))
        payload = {"exact_win": exact, "closed_form": target,
                   "trials": trials, "successes": game.successes,
                   "rate": game.rate}
        config = {"primitive": "mac", "params": p, "trials": trials,
                  "seed": seed}
        return _report("run-reduction", config, checks, payload)
    # commitment
    variant = args.variant or "coherent"
    p = _take_params(params, {"n": 3, "c": 1, "table": "balanced"})
    if p["table"] == "balanced":
        com = ToyCommitment(p["n"], p["c"], balanced_table(p["n"], p["c"]))
    elif p["table"] == "random":
        com = toy_commitment(p["n"], p["c"], rng)
    else:
        raise ParseError(f"table must be balanced or random, not {p['table']!r}")
    game = com_break_via_collision(com, trials, rng, form=variant)
    exact = game.exact
    parity_mass = both_parity_mass(com)
    if variant == "coherent":
        # two independent openings drawn inside one digest class, summed
        # over the digests in the order of their first key
        total = 1 << (2 * com.n)
        zeros, ones = com.parity_counts.tolist()
        formula = 0.0
        for y in dict.fromkeys(com.digest_codes.tolist()):
            size = zeros[y] + ones[y]
            formula += (size / total) * 2 * (zeros[y] / size) * (ones[y] / size)
        checks.append(_chk("commitment/exact-win-matches-parity-product",
                           abs(exact - formula), EXACT_TOL))
        if p["table"] == "balanced":
            checks.append(_chk(
                "commitment/exact-win-is-half-the-both-parity-mass",
                abs(exact - 0.5 * parity_mass), EXACT_TOL))
    else:
        checks.append(_chk("commitment/literal-form-win-is-exactly-zero",
                           exact, 0.0))
    checks.append(_chk(f"commitment/empirical-win[{trials} trials]",
                       abs(game.rate - exact), emp_tol))
    payload = {"exact_win": exact, "trials": trials,
               "successes": game.successes, "rate": game.rate,
               "hiding_sd": com.hiding_sd(),
               "both_parity_mass": parity_mass}
    config = {"primitive": "commitment", "variant": variant, "params": p,
              "trials": trials, "seed": seed}
    return _report("run-reduction", config, checks, payload)


def _cmd_run_dcr(args) -> dict:
    scheme = load_scheme(args.scheme)
    setup = scheme.setup_law()
    if args.pp is not None:
        if args.pp not in setup:
            raise ParseError(
                f"pp {args.pp!r} is not in the scheme's setup support")
        pps = [args.pp]
    else:
        pps = setup.support
    checks: list[Check] = []
    rows = []
    worst_gap = None
    for pp in pps:
        law = col_law(scheme, pp)
        consistency = sd(marginal(law, range(scheme.puzz_len + scheme.ans_len)),
                         scheme.samp_law(pp))
        checks.append(_chk(f"dcr/collision-marginal-is-the-sampler[pp={pp or 'e'}]",
                           consistency, EXACT_TOL))
        row = {"pp": pp, "col_support": len(law),
               "distinct_answer_prob": distinct_answer_prob(scheme, pp)}
        if scheme.state(pp) is not None:
            gap = col_oracle_gap(scheme, pp)
            row["oracle_gap"] = gap
            worst_gap = gap if worst_gap is None else max(worst_gap, gap)
        else:
            row["oracle_gap"] = None
        if args.mode == "sample":
            seed = _require_seed(args)
            rng = np.random.default_rng(seed)
            a = scheme.ans_len
            puzz, ans, ans2 = ColSampler(scheme, pp).draw(rng, args.shots)
            packed = (puzz << 2 * a) | (ans << a) | ans2
            emp = empirical_codes(packed[:, None], law.length).to_dist()
            tol = 5.0 * (len(law) / args.shots) ** 0.5
            checks.append(_chk(
                f"dcr/sampled-collision-tv[pp={pp or 'e'}, {args.shots} shots]",
                sd(emp, law), tol))
        rows.append(row)
    if worst_gap is not None:
        checks.append(_chk("dcr/oracle-pipeline-reproduces-collisions",
                           worst_gap, EXACT_TOL))
    payload = {"per_pp": rows,
               "oracle_route_available": worst_gap is not None}
    config = {"scheme": args.scheme, "pp": args.pp, "mode": args.mode,
              "seed": args.seed, "shots": args.shots}
    return _report("run-dcr", config, checks, payload)


def _cmd_suite(args) -> dict:
    checks = run_suite(args.name, args.seed)
    config = {"suite": args.name, "seed": args.seed}
    return _report("suite", config, checks)


# -- parser -----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ncmlab",
                     description="distributional checks for non-collapsing "
                                 "readout constructions")
    sub = parser.add_subparsers(dest="command", required=True)

    oracle = sub.add_parser("run-oracle", help="exact law or sampled "
                            "readouts of one circuit")
    oracle.add_argument("--circuit", required=True, help="circuit JSON file")
    oracle.add_argument("--mode", choices=("exact", "sample"),
                        default="exact")
    oracle.add_argument("--shots", type=_positive_int, default=10000)
    oracle.add_argument("--seed", type=_seed, default=None,
                        help="required in sample mode")
    oracle.add_argument("--out", default=None, help="report file "
                        "(default: stdout)")
    oracle.set_defaults(fn=_cmd_run_oracle)

    hybrid = sub.add_parser("check-hybrid", help="per-step hybrid-chain "
                            "identities on one instance")
    hybrid.add_argument("--instance", required=True,
                        help="JSON file with 'circuit' and optional 'x'")
    hybrid.add_argument("--adversary", default="perfect",
                        help="perfect | oblivious | rejection:<budget> | "
                             "constant:<bit>; the laws are exact, so "
                             "rejection:<budget> reports as perfect does")
    hybrid.add_argument("--out", default=None)
    hybrid.set_defaults(fn=_cmd_check_hybrid)

    reduction = sub.add_parser("run-reduction", help="collision attack on "
                               "a toy scheme")
    reduction.add_argument("--primitive", choices=("mac", "commitment"),
                           required=True)
    reduction.add_argument("--variant", choices=("literal", "coherent"),
                           default=None,
                           help="commitment sampler form (default coherent)")
    reduction.add_argument("--params", default=None,
                           help="k=v list: mac n,lm; commitment n,c,table")
    reduction.add_argument("--trials", type=_positive_int, default=10000)
    reduction.add_argument("--seed", type=_seed, default=None, required=False)
    reduction.add_argument("--out", default=None)
    reduction.set_defaults(fn=_cmd_run_reduction)

    dcr = sub.add_parser("run-dcr", help="collision law and oracle "
                         "pipeline of a scheme file")
    dcr.add_argument("--scheme", required=True, help="scheme JSON file")
    dcr.add_argument("--pp", default=None,
                     help="single public parameter (default: all)")
    dcr.add_argument("--mode", choices=("exact", "sample"), default="exact")
    dcr.add_argument("--shots", type=_positive_int, default=10000)
    dcr.add_argument("--seed", type=_seed, default=None)
    dcr.add_argument("--out", default=None)
    dcr.set_defaults(fn=_cmd_run_dcr)

    suite = sub.add_parser("suite", help="named acceptance suite")
    suite.add_argument("name", choices=tuple(sorted(SUITES)))
    suite.add_argument("--seed", type=_seed, default=BASE_SEED,
                       help=f"default {BASE_SEED}")
    suite.add_argument("--out", default=None)
    suite.set_defaults(fn=_cmd_suite)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: ``parse_args`` leaves it unchanged, so
    every ``main`` call after the first skips building it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    start = time.perf_counter()
    try:
        # a report that cannot be written is refused before the run
        if args.out and not os.path.isdir(os.path.dirname(args.out) or "."):
            raise ParseError(f"cannot write {args.out}: no such directory")
        if args.out and os.path.isdir(args.out):
            raise ParseError(f"cannot write {args.out}: is a directory")
        report = args.fn(args)
        _emit(report, args.out)
    except (ParseError, StructureError, ProtocolError,
            ImpossibleConditionError, _UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InstanceTooLargeError, RetryBudgetExceededError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    elapsed = time.perf_counter() - start
    print(f"wall time {elapsed:.3f}s (stderr only; reports carry no timing)",
          file=sys.stderr)
    return EXIT_PASS if report["passed"] else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())

"""Batch command-line front door.

Every invocation reads one self-describing JSON config (--config) and
dispatches a single command; flags only toggle catalogs and output formats,
so identical configs produce byte-identical outputs.  Exit codes: 0 ok,
1 verification failure, 2 input error.  --max-steps, the seed bound of
enumerate and of verify's graph-walking checks, must be at least 1; a
smaller value is an input error.
"""

from __future__ import annotations

import argparse
import json
import sys

import jsonschema

from . import verify as verify_mod
from .folding import InvalidQuiverError, fold, quiver_from_json
from .initquiver import (
    exchange_to_json,
    fold_exchange_matrix,
    initial_pair,
    quiver_to_dot,
    resolve_word,
    staircase,
)
from .qcluster import (
    CompatibilityError,
    TorusDivisionError,
    enumerate_exchange_graph,
    initial_seed,
    mutate_seed,
    seed_to_json,
    torus_to_json,
)
from .rootdata import datum_to_json, inversion_roots
from .uqn import shuffle_to_json
from .verify import oracle_seed_data, resolve_input

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "input": {
            "type": "object",
            "properties": {
                "type": {"type": "array", "minItems": 2, "maxItems": 2,
                         "prefixItems": [{"type": "string"},
                                         {"type": "integer"}]},
                "quiver": {
                    "type": "object",
                    "properties": {
                        "vertices": {"type": "array"},
                        "edges": {"type": "array",
                                  "items": {"type": "array",
                                            "minItems": 2, "maxItems": 2}},
                        "automorphism": {"type": "object"},
                    },
                    "required": ["vertices", "edges"],
                },
                "indices": {"type": "array"},
                "cartan": {"type": "array",
                           "items": {"type": "array",
                                     "items": {"type": "integer"}}},
                "symmetrizers": {"type": "array",
                                 "items": {"type": "integer"}},
            },
            "minProperties": 1,
        },
        "word": {"type": "array"},
        "words": {"type": "array", "items": {"type": "array"}},
        "mutations": {"type": "array"},
        "checks": {"type": "array", "items": {"type": "object"}},
    },
    "additionalProperties": False,
}
CONFIG_VALIDATOR = jsonschema.Draft202012Validator(CONFIG_SCHEMA)


class InputError(Exception):
    pass


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError("cannot read config: %s" % exc) from exc
    error = jsonschema.exceptions.best_match(
        CONFIG_VALIDATOR.iter_errors(config))
    if error is not None:
        raise InputError("config schema violation: %s" % error.message)
    return config


def _require(config, key):
    if key not in config:
        raise InputError("config is missing %r" % key)
    return config[key]


def _word(config, datum, quiver):
    """The config's word over the datum's indices; a letter outside them
    is an input error."""
    word = tuple(tuple(x) if isinstance(x, list) else x
                 for x in _require(config, "word"))
    try:
        return resolve_word(datum, word, quiver)
    except KeyError as exc:
        raise InputError(exc.args[0]) from exc


def _resolved(config):
    spec = _require(config, "input")
    try:
        return resolve_input(spec)
    except (InvalidQuiverError, ValueError, KeyError, TypeError) as exc:
        raise InputError(str(exc)) from exc


def _emit(payload):
    sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_fold(config, args):
    spec = _require(config, "input")
    if "quiver" not in spec:
        raise InputError("fold needs a quiver input")
    try:
        folded = fold(quiver_from_json(spec["quiver"]))
    except (InvalidQuiverError, KeyError) as exc:
        raise InputError(str(exc)) from exc
    _emit({"orbits": [list(o) for o in folded.orbits],
           "pairing": [list(r) for r in folded.pairing],
           "cartan": datum_to_json(folded.datum)})
    return 0


def cmd_roots(config, args):
    datum, quiver = _resolved(config)
    word = _word(config, datum, quiver)
    betas = inversion_roots(datum, word)
    _emit({"word": [list(x) if isinstance(x, tuple) else x for x in word],
           "reduced": all(b.is_positive() for b in betas),
           "inversion_roots": [list(b.coords) for b in betas]})
    return 0


def cmd_initquiver(config, args):
    ice, orbits = _from_word(config, staircase)
    if args.dot:
        sys.stdout.write(quiver_to_dot(ice))
        return 0
    data = {"word": [str(x) for x in ice.word],
            "arrows": [list(a) for a in ice.arrows],
            "frozen": sorted(ice.frozen),
            "exchange": exchange_to_json(fold_exchange_matrix(ice, orbits))}
    _emit(data)
    return 0


def _from_word(config, build):
    """build(datum, word, quiver) on the config's input and word; its
    ValueError (a word that is not reduced, or a staircase asked of a
    symmetrizable datum without its quiver) is an input error."""
    datum, quiver = _resolved(config)
    word = _word(config, datum, quiver)
    try:
        return build(datum, word, quiver)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _oracle_seed(config):
    """The initial torus seed and the oracle's initial minors."""
    realized = _from_word(config, lambda d, w, _: oracle_seed_data(d, w))
    return initial_seed(realized.pair, realized.degrees), realized.variables


def _seed_payload(seed, minors=None):
    payload = seed_to_json(seed)
    payload["e"] = {str(k): v for k, v in sorted(seed.pair.e.items())}
    if minors is not None:
        payload["minors"] = {str(t): shuffle_to_json(minors[t])
                             for t in sorted(minors)}
    return payload


def cmd_seed_init(config, args):
    seed, minors = _oracle_seed(config)
    _emit(_seed_payload(seed, minors))
    return 0


def cmd_mutate(config, args):
    seed, minors = _oracle_seed(config)
    trace = [_seed_payload(seed, minors)]
    current = seed
    for step in config.get("mutations", []):
        if step not in current.pair.exchangeable:
            raise InputError("mutation direction %r is not exchangeable"
                             % (step,))
        try:
            current = mutate_seed(current, step)
        except (TorusDivisionError, CompatibilityError) as exc:
            raise InputError(str(exc)) from exc
        trace.append(_seed_payload(current))
    _emit({"trace": trace})
    return 0


def cmd_enumerate(config, args):
    seed = initial_seed(*_from_word(config,
                                    lambda d, w, _: initial_pair(d, w)))
    graph = enumerate_exchange_graph(seed, bound=args.max_steps)
    variables = graph.cluster_variables()
    _emit({"seeds": len(graph.seeds),
           "complete": graph.complete,
           "edges": [[s, str(k), t] for s, k, t in graph.edges],
           "cluster_variables": [torus_to_json(v) for v in variables]})
    return 0


def cmd_verify(config, args):
    """Run the config's checks, or the fast (and with --slow the slow)
    catalog: one report line each, then the summary.  The checks share one
    OracleContext per Cartan datum, made for this call only."""
    entries = config.get("checks")
    if entries is None:
        entries = verify_mod.load_catalog("catalog_fast.json")
        if args.slow:
            entries = entries + verify_mod.load_catalog("catalog_slow.json")
    reports = []
    contexts = {}
    for entry in entries:
        try:
            entry = verify_mod.bounded_entry(entry, args.max_steps)
            report = verify_mod.run_check(entry, contexts)
        except Exception as exc:  # surface as a failing report, CI-friendly
            report = verify_mod.VerificationReport(
                entry.get("check", "?"), entry, "fail", "error: %s" % exc)
        reports.append(report)
        sys.stdout.write(json.dumps(report.to_json(), sort_keys=True) + "\n")
    failed = [r for r in reports if not r.passed]
    summary = {"total": len(reports), "failed": len(failed)}
    sys.stdout.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
    return 1 if failed else 0


COMMANDS = {
    "fold": cmd_fold,
    "roots": cmd_roots,
    "initquiver": cmd_initquiver,
    "seed-init": cmd_seed_init,
    "mutate": cmd_mutate,
    "enumerate": cmd_enumerate,
    "verify": cmd_verify,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qfold",
        description="Exact quantum cluster calculus with a quantum-group "
                    "oracle and Dynkin folding.")
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", help="path to the JSON job config")
    parser.add_argument("--dot", action="store_true",
                        help="emit DOT text where applicable")
    parser.add_argument("--slow", action="store_true",
                        help="include the slow verification catalog")
    parser.add_argument("--max-steps", type=int, default=1000,
                        help="bound for enumeration and graph-walking "
                             "checks (at least 1)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_steps < 1:
            raise InputError("--max-steps must be at least 1, got %d"
                             % args.max_steps)
        config = _load_config(args.config)
        return COMMANDS[args.command](config, args)
    except InputError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

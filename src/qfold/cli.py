"""Batch command-line front door.

Every invocation reads one self-describing JSON config (--config) and
dispatches a single command; flags only toggle catalogs and output formats,
so identical configs produce byte-identical outputs.  Exit codes: 0 ok,
1 verification failure, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import sys

import jsonschema

from . import verify as verify_mod
from .folding import InvalidQuiverError, fold, quiver_from_json
from .initquiver import fold_exchange_matrix, quiver_to_dot
from .qcluster import (
    CompatibilityError,
    TorusDivisionError,
    check_compatible,
    enumerate_exchange_graph,
    mutate_seed,
    seed_to_json,
)
from .rootdata import datum_to_json, inversion_roots, is_reduced
from .uqn import shuffle_to_json
from .verify import build_seed, resolve_input

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "input": {
            "type": "object",
            "properties": {
                "type": {"type": "array", "minItems": 2, "maxItems": 2},
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
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        raise InputError("config schema violation: %s" % exc.message) from exc
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
        return verify_mod._orbit_word(datum, quiver, word)
    except KeyError as exc:
        raise InputError(exc.args[0]) from exc


def _resolved(config):
    spec = _require(config, "input")
    try:
        return resolve_input(spec), spec
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
    (datum, quiver), _ = _resolved(config)
    word = _word(config, datum, quiver)
    betas = inversion_roots(datum, word)
    _emit({"word": [list(x) if isinstance(x, tuple) else x for x in word],
           "reduced": is_reduced(datum, word),
           "inversion_roots": [list(b.coords) for b in betas]})
    return 0


def _staircase(config):
    (datum, quiver), _ = _resolved(config)
    return verify_mod.staircase(datum, _word(config, datum, quiver), quiver)


def cmd_initquiver(config, args):
    try:
        ice, orbits = _staircase(config)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    if args.dot:
        sys.stdout.write(quiver_to_dot(ice))
        return 0
    from .initquiver import exchange_to_json
    data = {"word": [str(x) for x in ice.word],
            "arrows": [list(a) for a in ice.arrows],
            "frozen": sorted(ice.frozen),
            "exchange": exchange_to_json(fold_exchange_matrix(ice, orbits))}
    _emit(data)
    return 0


def _seed(config):
    (datum, quiver), _ = _resolved(config)
    word = _word(config, datum, quiver)
    try:
        seed, minors = build_seed(datum, word, quiver)
    except (ValueError, verify_mod.QCommutationFailure,
            CompatibilityError) as exc:
        raise InputError(str(exc)) from exc
    return seed, minors


def _seed_payload(seed, minors=None):
    payload = seed_to_json(seed)
    payload["e"] = {str(k): v for k, v in sorted(
        check_compatible(seed.pair).items())}
    if minors is not None:
        payload["minors"] = {str(t): shuffle_to_json(minors[t])
                             for t in sorted(minors)}
    return payload


def cmd_seed_init(config, args):
    seed, minors = _seed(config)
    _emit(_seed_payload(seed, minors))
    return 0


def cmd_mutate(config, args):
    seed, minors = _seed(config)
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
    seed, _ = _seed(config)
    graph = enumerate_exchange_graph(seed, bound=args.max_steps)
    variables = graph.cluster_variables()
    _emit({"seeds": len(graph.seeds),
           "complete": graph.complete,
           "edges": [[s, str(k), t] for s, k, t in graph.edges],
           "cluster_variables": [
               {"terms": [{"exponents": list(e), "coeff": str(c)}
                          for e, c in sorted(v.terms.items())]}
               for v in variables]})
    return 0


def cmd_verify(config, args):
    entries = config.get("checks")
    if entries is None:
        entries = verify_mod.load_catalog("catalog_fast.json")
        if args.slow:
            entries = entries + verify_mod.load_catalog("catalog_slow.json")
    reports = []
    for entry in entries:
        entry = verify_mod.bounded_entry(entry, args.max_steps)
        try:
            report = verify_mod.run_check(entry)
        except Exception as exc:  # surface as a failing report, CI-friendly
            report = verify_mod.VerificationReport(
                entry.get("check", "?"), entry, False, "fail",
                "error: %s" % exc)
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
                        help="bound for enumeration and graph-walking checks")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = _load_config(args.config)
        return COMMANDS[args.command](config, args)
    except InputError as exc:
        sys.stderr.write("input error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())

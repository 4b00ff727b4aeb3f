"""Output gate: checks every job's stdout and feeds the failure count.

The checks hold for any reduced word of the job's element, so they apply
to every workload seed.  The golden digests pin the exact bytes for the
default seed (0).  Each check returns None when the output passes and a
one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check(job, code, out):
    """The reason the job's result is wrong, or None when it passes."""
    if code != 0:
        return "exit code %r" % (code,)
    try:
        if job["command"] == "seed-init":
            return _check_seed(job, json.loads(out))
        if job["command"] == "enumerate":
            return _check_enumerate(job, json.loads(out))
        if job["command"] == "verify":
            return _check_verify(job, [json.loads(line)
                                       for line in out.splitlines()])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return "malformed output: %s: %s" % (type(exc).__name__, exc)
    return "no check for command %r" % (job["command"],)


def _check_seed(job, payload):
    """Lambda B = -2E in integers with E positive, and one minor per letter."""
    labels = payload["labels"]
    ex = payload["exchangeable"]
    lam = payload["lambda"]
    b = payload["b"]
    n, m = len(labels), len(ex)
    if n != len(job["word"]):
        return "%d labels for a %d-letter word" % (n, len(job["word"]))
    if len(lam) != n or any(len(row) != n for row in lam):
        return "lambda is not %dx%d" % (n, n)
    if len(b) != n or any(len(row) != m for row in b):
        return "b is not %dx%d" % (n, m)
    for r in range(n):
        for c in range(n):
            if lam[r][c] != -lam[c][r]:
                return "lambda is not skew-symmetric at (%d, %d)" % (r, c)
    for c, k in enumerate(ex):
        diag = labels.index(k)
        for r in range(n):
            value = sum(lam[r][i] * b[i][c] for i in range(n))
            if r != diag and value != 0:
                return "(lambda b)[%d][%d] = %d, expected 0" % (r, c, value)
            if r == diag:
                if value >= 0 or value % 2:
                    return "(lambda b)[%d][%d] = %d, expected -2e with e > 0" \
                        % (r, c, value)
                if payload["e"][str(k)] != -value // 2:
                    return "emitted e[%s] disagrees with lambda b" % (k,)
    if sorted(payload["minors"]) != sorted(str(t) for t in labels):
        return "minors are not one per letter"
    for variable in payload["variables"]:
        minor = payload["minors"][str(variable["label"])]
        if not minor["terms"]:
            return "minor %s is zero" % (variable["label"],)
        if minor["weight"] != variable["degree"]:
            return "minor %s weight differs from its degree" \
                % (variable["label"],)
    return None


def _check_enumerate(job, payload):
    expect = job["expect"]
    if payload["complete"] is not True:
        return "exchange graph incomplete"
    found = {"seeds": payload["seeds"], "edges": len(payload["edges"]),
             "cluster_variables": len(payload["cluster_variables"])}
    for key, value in found.items():
        if value != expect[key]:
            return "%s = %d, expected %d" % (key, value, expect[key])
    return None


def _check_verify(job, lines):
    expect = job["expect"]
    *reports, last = lines
    for report in reports:
        if report["status"] != "pass" or report["passed"] is not True:
            return "check %s reported %s" % (report["check"], report["status"])
    summary = last["summary"]
    if summary != {"total": len(reports), "failed": 0}:
        return "summary %r disagrees with the reports" % (summary,)
    if summary["total"] != expect["total"]:
        return "%d checks, expected %d" % (summary["total"], expect["total"])
    if "details" in expect and reports[0].get("details") != expect["details"]:
        return "details %r, expected %r" % (reports[0].get("details"),
                                            expect["details"])
    return None


def corrupt(job, out):
    """A copy of a passing output with one deliberate error in it.

    seed-init: one Lambda entry (and its mirror) moves by one where B has
    a nonzero row, so only the Lambda B = -2E check can catch it.
    enumerate: one edge is dropped.  verify: one report turns to fail.
    """
    if job["command"] == "seed-init":
        payload = json.loads(out)
        lam, b = payload["lambda"], payload["b"]
        j = next(i for i, row in enumerate(b) if any(row))
        r = next(i for i in range(len(lam)) if i != j)
        lam[r][j] += 1
        lam[j][r] -= 1
        return json.dumps(payload)
    if job["command"] == "enumerate":
        payload = json.loads(out)
        payload["edges"].pop()
        return json.dumps(payload)
    if job["command"] == "verify":
        lines = out.splitlines()
        report = json.loads(lines[0])
        report.update(passed=False, status="fail")
        return "\n".join([json.dumps(report)] + lines[1:]) + "\n"
    raise ValueError("no corruption for command %r" % (job["command"],))

"""The single source of truth for every versioned JSON payload.

Three subsystems persist or exchange JSON that must survive across
processes and source revisions — the benchmark result cache
(:mod:`repro.bench.cache`), the perf-gate baseline
(:mod:`repro.bench.gate`), the fault-campaign report
(:mod:`repro.faults.campaign`) — and the execution service
(:mod:`repro.serve`) speaks the same schema over its wire protocol.
They all stamp their payloads with :data:`SCHEMA_VERSION` defined
here, so one bump invalidates every stale artefact at once instead of
three constants drifting independently.

Versioning policy (see docs/API.md):

* Bump :data:`SCHEMA_VERSION` whenever any versioned payload changes
  shape — a new field with a safe default does *not* require a bump
  (readers use ``.get``), a renamed/retyped/removed field does.
* Readers reject mismatched payloads outright (:func:`require`); the
  caches treat a mismatch as a miss, the gate asks for a baseline
  regeneration, the service refuses the request with a ``version``
  error frame.  Nothing ever attempts cross-version migration — every
  payload is cheap to regenerate from the deterministic simulator.

History: versions 1-3 were the result cache's private lineage
(1 initial, 2 telemetry + attribution counters, 3 wall-clock/MIPS
metadata); version 4 unified the cache, the gate baseline, the faults
report and the new ``repro.api`` request/response schema under this
module; version 5 removed the two engine-selection request fields
(the simulator picks its engine from what is attached).
"""

#: The current version of every JSON payload the package emits.
SCHEMA_VERSION = 5

#: Key under which the version is stored in payloads.
VERSION_KEY = "version"


class SchemaError(ValueError):
    """A versioned payload is missing, malformed or from another
    schema version."""


def stamp(payload):
    """Return ``payload`` with the current schema version stamped in
    (mutates and returns the same dict, for expression use)."""
    payload[VERSION_KEY] = SCHEMA_VERSION
    return payload


def mismatch(payload):
    """``None`` when ``payload`` carries the current version, else a
    human-readable reason string (also for non-dict payloads)."""
    if not isinstance(payload, dict):
        return "payload is %s, not an object" % type(payload).__name__
    version = payload.get(VERSION_KEY)
    if version != SCHEMA_VERSION:
        return "schema version %r != %d" % (version, SCHEMA_VERSION)
    return None


def check(payload):
    """``True`` when ``payload`` is a dict stamped with the current
    schema version."""
    return mismatch(payload) is None


def require(payload, kind="payload"):
    """Validate and return ``payload``; raises :class:`SchemaError`
    naming ``kind`` on any version mismatch."""
    reason = mismatch(payload)
    if reason is not None:
        raise SchemaError("%s: %s" % (kind, reason))
    return payload


#: Key naming the artifact family inside stamped benchmark artifacts
#: (``BENCH_serve.json``, ``BENCH_simperf.json``, ...).
ARTIFACT_KEY = "kind"


def artifact(kind, payload):
    """Stamp ``payload`` as a versioned benchmark artifact of family
    ``kind`` (returns a new dict; the original is not mutated)."""
    stamped = dict(payload)
    stamped[ARTIFACT_KEY] = kind
    return stamp(stamped)


def require_artifact(payload, kind):
    """Validate a stamped artifact of family ``kind`` (version *and*
    kind must match); returns the payload."""
    require(payload, "%s artifact" % kind)
    actual = payload.get(ARTIFACT_KEY)
    if actual != kind:
        raise SchemaError("artifact kind %r != %r" % (actual, kind))
    return payload

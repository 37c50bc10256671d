"""Serving: the persistent plan cache + multi-tenant job gateway.

The paper's compile-once/run-many argument, extended past process exit
and past a single job: :mod:`repro.serving.plancache` makes compiled
artefacts content-addressed and persistent, and
:mod:`repro.serving.gateway` serves many tenants' jobs from one warm
runtime with admission control, batching and DES-estimate-ordered fair
scheduling.  ``python -m repro serve`` is the CLI front; the in-process
:class:`Gateway` API is what the test suite drives.
"""

from __future__ import annotations

from .gateway import (
    AdmissionRejected,
    Gateway,
    GatewayClosed,
    GatewayError,
    Job,
    JobFailed,
    JobResult,
)
from repro.workloads import JobSpec
from repro.workloads import build as build_served

from .plancache import (
    CACHE_SCHEMA,
    ENV_VAR,
    CacheEntry,
    PlanCache,
    PlanCacheError,
    PlanKey,
    plan_key,
    workload_signature,
)

__all__ = [
    "CACHE_SCHEMA",
    "ENV_VAR",
    "AdmissionRejected",
    "CacheEntry",
    "Gateway",
    "GatewayClosed",
    "GatewayError",
    "Job",
    "JobFailed",
    "JobResult",
    "JobSpec",
    "PlanCache",
    "PlanCacheError",
    "PlanKey",
    "build_served",
    "plan_key",
    "workload_signature",
]

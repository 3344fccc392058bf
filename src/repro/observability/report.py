"""``repro report`` — a human summary of any run dir's telemetry.

Reads the run dir's ``manifest.json`` and ``events.jsonl`` (serial or
``--jobs N`` — the journal vocabulary is shared), schema-validates
every record, aggregates the accounting the paper cares about —
attempted/active/dormant phase outcomes, analysis-cache hit rates,
quarantine counts, checkpoint/resume markers — and renders a compact
text report (or the raw summary dict as JSON).
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.observability import manifest as manifest_mod
from repro.observability.events import (
    EVENT_SCHEMA,
    JOURNAL_NAME,
    SCHEMA_VERSION,
    read_journal,
    validate_record,
)


class ReportError(RuntimeError):
    """The run dir has no telemetry to report on."""


def _function_row(functions: Dict[str, Dict], label: str) -> Dict:
    row = functions.get(label)
    if row is None:
        row = {
            "instances": None,
            "levels": None,
            "completed": None,
            "reason": None,
            "wall": None,
            "cached": False,
            "resumed": False,
            "active": 0,
            "dormant": 0,
            "quarantined": 0,
        }
        functions[label] = row
    return row


def summarize_run(run_dir: str) -> Dict[str, object]:
    """Aggregate a run dir's manifest + journal into one summary dict."""
    journal = os.path.join(run_dir, JOURNAL_NAME)
    manifest = manifest_mod.load_manifest(run_dir)
    if not os.path.exists(journal):
        if manifest is None:
            raise ReportError(
                f"{run_dir}: no {JOURNAL_NAME} or "
                f"{manifest_mod.MANIFEST_NAME} found — not a run dir?"
            )
        records: List[Dict] = []
        errors: List[str] = []
    else:
        records, errors = read_journal(journal)

    # Forward compatibility (the journal may have been written by a
    # newer build): an event *kind* this schema does not know is a
    # warning counter, never a schema error and never a silent drop —
    # but a known event with missing fields is still a violation.
    unknown_events: Dict[str, int] = {}
    for index, record in enumerate(records, start=1):
        name = record.get("event") if isinstance(record, dict) else None
        if isinstance(name, str) and name not in EVENT_SCHEMA:
            unknown_events[name] = unknown_events.get(name, 0) + 1
            continue
        for error in validate_record(record):
            errors.append(f"record {index}: {error}")

    functions: Dict[str, Dict] = {}
    totals = {
        "events": len(records),
        "schema_errors": len(errors),
        "unknown_events": sum(unknown_events.values()),
        "unknown_event_names": sorted(unknown_events),
        "quarantine": {},
        "quarantine_total": 0,
        "faults_injected": 0,
        "checkpoints_written": 0,
        "resumes": 0,
        "lease_reclaims": 0,
        "worker_deaths": 0,
        "lease_timeouts": 0,
        "shards_done": 0,
        "store_cache_hits": 0,
    }
    analysis = {"hits": 0, "misses": 0, "seen": False}
    sanitize = {
        "edges": 0,
        "findings": 0,
        "contract_violations": 0,
        "proved": 0,
        "tested": 0,
        "unverified": 0,
        "refuted": 0,
        "mode": None,
        "seen": False,
    }
    collapse = {
        "candidates": 0,
        "merged": 0,
        "merged_proved": 0,
        "merged_tested": 0,
        "split_unproven": 0,
        "split_cycle": 0,
        "split_size": 0,
        "refuted": 0,
        "uncanonical": 0,
        "classes": 0,
        "seen": False,
    }
    compiles: List[Dict] = []
    search = {
        "functions": 0,
        "strategies": 0,
        "spaces": [],
        "results": [],
        "seen": False,
    }
    service = {
        "admitted": 0,
        "coalesced": 0,
        "shed": {},
        "shed_total": 0,
        "retries": 0,
        "done": {},
        "breaker_opens": 0,
        "drains": 0,
        "seen": False,
    }

    for record in records:
        name = record.get("event")
        label = record.get("function")
        if name in ("enum_start",):
            _function_row(functions, label)
        elif name in ("enum_done", "function_done"):
            row = _function_row(functions, label)
            row["instances"] = record.get("instances", row["instances"])
            row["levels"] = record.get("levels", row["levels"])
            row["completed"] = record.get("completed", row["completed"])
            row["reason"] = record.get("reason", row["reason"])
            row["wall"] = record.get("wall", row["wall"])
        elif name == "cache_hit":
            row = _function_row(functions, label)
            row["cached"] = True
            row["completed"] = True
            totals["store_cache_hits"] += 1
        elif name == "checkpoint_resume":
            if label is not None:
                _function_row(functions, label)["resumed"] = True
            totals["resumes"] += 1
        elif name == "checkpoint_write":
            totals["checkpoints_written"] += 1
        elif name == "phase_stats":
            row = _function_row(functions, label) if label else None
            for counts in record.get("phases", {}).values():
                if row is not None:
                    row["active"] += counts.get("active", 0)
                    row["dormant"] += counts.get("dormant", 0)
                    row["quarantined"] += counts.get("quarantined", 0)
        elif name == "quarantine":
            kind = record.get("kind", "?")
            totals["quarantine"][kind] = totals["quarantine"].get(kind, 0) + 1
            totals["quarantine_total"] += 1
        elif name == "fault_injected":
            totals["faults_injected"] += 1
        elif name == "sanitize_stats":
            for key in (
                "edges",
                "findings",
                "contract_violations",
                "proved",
                "tested",
                "unverified",
                "refuted",
            ):
                sanitize[key] += record.get(key, 0)
            if record.get("mode") is not None:
                sanitize["mode"] = record["mode"]
            sanitize["seen"] = True
        elif name == "collapse_stats":
            for key in (
                "candidates",
                "merged",
                "merged_proved",
                "merged_tested",
                "split_unproven",
                "split_cycle",
                "split_size",
                "refuted",
                "uncanonical",
                "classes",
            ):
                collapse[key] += record.get(key, 0)
            collapse["seen"] = True
        elif name == "analysis_cache_stats":
            analysis["hits"] += record.get("hits", 0)
            analysis["misses"] += record.get("misses", 0)
            analysis["seen"] = True
        elif name == "lease_reclaim":
            totals["lease_reclaims"] += 1
        elif name == "worker_dead":
            totals["worker_deaths"] += 1
        elif name == "lease_timeout":
            totals["lease_timeouts"] += 1
        elif name == "shard_done":
            totals["shards_done"] += 1
        elif name in ("batch_compile", "prob_compile"):
            compiles.append(record)
        elif name in ("server_start", "server_stop"):
            service["seen"] = True
        elif name == "server_drain":
            service["seen"] = True
            service["drains"] += 1
        elif name == "request_admitted":
            service["seen"] = True
            service["admitted"] += 1
        elif name == "request_coalesced":
            service["seen"] = True
            service["coalesced"] += 1
        elif name == "request_shed":
            service["seen"] = True
            reason = record.get("reason", "?")
            service["shed"][reason] = service["shed"].get(reason, 0) + 1
            service["shed_total"] += 1
        elif name == "request_retry":
            service["seen"] = True
            service["retries"] += 1
        elif name == "request_done":
            service["seen"] = True
            status = str(record.get("status", "?"))
            service["done"][status] = service["done"].get(status, 0) + 1
        elif name == "breaker_open":
            service["seen"] = True
            service["breaker_opens"] += 1
        elif name in ("search_start", "search_done"):
            search["seen"] = True
            search["functions"] = max(
                search["functions"], record.get("functions", 0)
            )
            search["strategies"] = max(
                search["strategies"], record.get("strategies", 0)
            )
        elif name == "search_space":
            search["seen"] = True
            search["spaces"].append(record)
        elif name == "search_strategy":
            search["seen"] = True
            search["results"].append(record)

    for row in functions.values():
        row["attempted"] = row["active"] + row["dormant"]

    return {
        "run_dir": run_dir,
        "schema_version": SCHEMA_VERSION,
        "manifest": manifest,
        "functions": functions,
        "totals": totals,
        "analysis_cache": analysis if analysis["seen"] else None,
        "sanitize": sanitize if sanitize["seen"] else None,
        "collapse": collapse if collapse["seen"] else None,
        "compiles": compiles,
        "search": search if search["seen"] else None,
        "service": service if service["seen"] else None,
        "errors": errors[:20],
    }


def _rate(hits: int, misses: int) -> str:
    total = hits + misses
    if not total:
        return "n/a"
    return f"{100.0 * hits / total:.1f}%"


def _fmt(value, suffix: str = "") -> str:
    if value is None:
        return "?"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.2f}{suffix}"
    return f"{value}{suffix}"


def render_report(summary: Dict[str, object]) -> str:
    """The human-readable report for one :func:`summarize_run` summary."""
    lines: List[str] = []
    manifest = summary.get("manifest")
    totals: Dict = summary["totals"]
    lines.append(f"Run report — {summary['run_dir']}")
    if manifest:
        lines.append(
            f"  tool: {manifest.get('tool', '?')}"
            f"   started: {manifest.get('started_at', '?')}"
        )
        host = manifest.get("host") or {}
        lines.append(
            f"  host: {host.get('hostname', '?')}"
            f" ({host.get('platform', '?')}, python {host.get('python', '?')},"
            f" {host.get('cpu_count', '?')} cpus)"
        )
        lines.append(
            f"  config digest: {manifest.get('config_digest') or 'n/a'}"
            f"   seeds: {manifest.get('seeds') or '{}'}"
        )
        if manifest.get("env"):
            toggles = " ".join(
                f"{key}={value}" for key, value in manifest["env"].items()
            )
            lines.append(f"  env toggles: {toggles}")
        if manifest.get("wall_s") is not None:
            lines.append(
                f"  wall: {manifest['wall_s']}s   cpu: {manifest.get('cpu_s', '?')}s"
                f"   ok: {_fmt(manifest.get('ok'))}"
            )
    lines.append(
        f"  events: {totals['events']} (schema v{summary['schema_version']}, "
        f"{totals['schema_errors']} invalid)"
    )
    if totals.get("unknown_events"):
        names = ", ".join(totals.get("unknown_event_names", []))
        lines.append(
            f"  warning: {totals['unknown_events']} event(s) of unknown "
            f"kind(s) [{names}] — journal written by a newer schema?"
        )
    functions: Dict[str, Dict] = summary["functions"]
    if functions:
        lines.append("")
        header = (
            f"  {'function':<20} {'instances':>9} {'levels':>6} "
            f"{'attempted':>9} {'active':>7} {'dormant':>8} {'quar':>5} "
            f"{'wall':>8}  status"
        )
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for label in sorted(functions):
            row = functions[label]
            if row["cached"]:
                status = "cached"
            elif row["completed"] is True:
                status = "complete"
            elif row["completed"] is False:
                status = f"aborted({row['reason']})"
            else:
                status = "?"
            if row["resumed"]:
                status += ", resumed"
            lines.append(
                f"  {label:<20} {_fmt(row['instances']):>9} "
                f"{_fmt(row['levels']):>6} {row['attempted']:>9} "
                f"{row['active']:>7} {row['dormant']:>8} "
                f"{row['quarantined']:>5} {_fmt(row['wall'], 's'):>8}  {status}"
            )
    compiles: List[Dict] = summary.get("compiles") or []
    if compiles:
        lines.append("")
        for record in compiles:
            kind = "batch" if record["event"] == "batch_compile" else "probabilistic"
            lines.append(
                f"  {kind} compile {record.get('function', '?')}: "
                f"{record.get('attempted')} attempted, "
                f"{record.get('active')} active, "
                f"{record.get('quarantined', 0)} quarantined, "
                f"size {record.get('code_size', '?')}"
            )
    search = summary.get("search")
    if search:
        lines.append("")
        lines.append(
            f"  search lab: {search['functions']} function(s) x "
            f"{search['strategies']} strategies"
        )
        by_function: Dict[str, List[Dict]] = {}
        for record in search["results"]:
            by_function.setdefault(record.get("function", "?"), []).append(record)
        for record in search["spaces"]:
            label = record.get("function", "?")
            lines.append(
                f"    {label}: {record.get('nodes')} instances, "
                f"{record.get('leaves')} leaves, "
                f"{record.get('pareto')} pareto point(s)"
            )
            for result in by_function.get(label, []):
                lines.append(
                    f"      {result.get('strategy', '?'):<12} "
                    f"fitness {result.get('fitness')} "
                    f"(distance {result.get('distance')}, "
                    f"{_fmt(result.get('attempted'))} attempted)"
                )
    lines.append("")
    analysis = summary.get("analysis_cache")
    if analysis:
        lines.append(
            f"  analysis cache: {analysis['hits']} hits / "
            f"{analysis['misses']} misses "
            f"({_rate(analysis['hits'], analysis['misses'])} hit rate)"
        )
    sanitize = summary.get("sanitize")
    if sanitize:
        verdicts = ""
        if sanitize["mode"] == "full":
            verdicts = (
                f" — verdicts: {sanitize['proved']} proved, "
                f"{sanitize['tested']} tested, "
                f"{sanitize['unverified']} unverified, "
                f"{sanitize['refuted']} refuted"
            )
        lines.append(
            f"  sanitizer ({sanitize['mode'] or '?'}): "
            f"{sanitize['edges']} edges checked, "
            f"{sanitize['findings']} findings, "
            f"{sanitize['contract_violations']} contract violations"
            + verdicts
        )
    collapse = summary.get("collapse")
    if collapse:
        lines.append(
            f"  collapse (semantic): {collapse['merged']} merged "
            f"({collapse['merged_proved']} proved, "
            f"{collapse['merged_tested']} tested) of "
            f"{collapse['candidates']} candidates — "
            f"{collapse['split_unproven']} unproven, "
            f"{collapse['split_cycle']} cycle-split, "
            f"{collapse['split_size']} size-split, "
            f"{collapse['refuted']} refuted, "
            f"{collapse['uncanonical']} uncanonical, "
            f"{collapse['classes']} semantic class(es)"
        )
    quarantine: Dict[str, int] = totals["quarantine"]
    if totals["quarantine_total"] or totals["faults_injected"]:
        by_kind = ", ".join(
            f"{kind} {count}" for kind, count in sorted(quarantine.items())
        )
        lines.append(
            f"  quarantine: {totals['quarantine_total']} total"
            + (f" ({by_kind})" if by_kind else "")
            + f"; faults injected: {totals['faults_injected']}"
        )
    else:
        lines.append("  quarantine: 0")
    lines.append(
        f"  store cache hits: {totals['store_cache_hits']}   "
        f"checkpoints written: {totals['checkpoints_written']}   "
        f"resumes: {totals['resumes']}"
    )
    if (
        totals["shards_done"]
        or totals["lease_reclaims"]
        or totals["worker_deaths"]
        or totals["lease_timeouts"]
    ):
        lines.append(
            f"  shards done: {totals['shards_done']}   "
            f"leases reclaimed: {totals['lease_reclaims']}   "
            f"workers died: {totals['worker_deaths']}   "
            f"lease timeouts: {totals['lease_timeouts']}"
        )
    service = summary.get("service")
    if service:
        done = ", ".join(
            f"{status}: {count}"
            for status, count in sorted(service["done"].items())
        )
        lines.append(
            f"  service: {service['admitted']} admitted "
            f"({service['coalesced']} coalesced), "
            f"{service['shed_total']} shed, "
            f"{service['retries']} request retries, "
            f"{service['breaker_opens']} breaker opens, "
            f"{service['drains']} drain(s)"
        )
        if done:
            lines.append(f"  service responses: {done}")
        if service["shed"]:
            shed = ", ".join(
                f"{reason} {count}"
                for reason, count in sorted(service["shed"].items())
            )
            lines.append(f"  service shed by reason: {shed}")
    errors: List[str] = summary.get("errors") or []
    if errors:
        lines.append("")
        lines.append("  schema violations (first 20):")
        for error in errors:
            lines.append(f"    - {error}")
    return "\n".join(lines)

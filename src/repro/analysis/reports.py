"""Memoized analysis and regression reporting over the campaign store.

Everything in this module reads **only** the sqlite campaign store
(:class:`repro.store.CampaignStore`) — no machine is ever built, no trace
replayed.  That is the point: once a sweep has run (and been ingested by
the sweep executor in :mod:`repro.runner`), its tables are queryable history,
and ``python -m repro report`` can regenerate the paper-shaped tables —
Figure 2's per-position eviction fractions, Figure 8's capacity curves,
Table II's peaks — plus a perf trajectory over the recorded benchmark
artifacts, from storage alone.

Three layers:

* **Memoized queries** — each extraction goes through
  :meth:`CampaignStore.memoized`, keyed by the store's content
  fingerprint; a second identical query against an unchanged store is
  answered from the ``analysis_cache`` table without touching the run
  tables (``store.memo.hits`` counts it, and CI asserts on it).
* **Tables** — markdown renderings of the queries, one section per
  EXPERIMENTS.md check that has recorded history.
* **Regression gates** — the latest run of each campaign is diffed
  against its stored predecessor.  Three gated failure classes:
  *determinism* (same params, same engine version, different result),
  *shape* (Figure 2's always-evicted property broken, a capacity peak
  dropping more than :data:`CAPACITY_DROP_TOLERANCE`), and *artifact
  floors* (a speedup artifact falling below its recorded gate, an
  instrumentation-overhead ratio above :data:`OVERHEAD_RATIO_LIMIT`).
  :func:`generate_report` returns them; the CLI exits nonzero when any
  survive.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # the store imports results_io; keep the cycle lazy
    from ..store.db import CampaignStore, RunRecord

#: A capacity peak may drift down this much (fractionally) against the
#: previous stored run before it is a gated regression.
CAPACITY_DROP_TOLERANCE = 0.10

#: Instrumentation overhead artifacts gate at this throughput ratio
#: (instrumented/null), mirroring the <5% benchmark gate.
OVERHEAD_RATIO_LIMIT = 1.05

#: Absolute floors for speedup artifacts that do not record their own
#: ``gate`` field (the CI gates, made durable).
_ARTIFACT_FLOORS = {"warmstart_speedup": 2.0}


@dataclass(frozen=True)
class Regression:
    """One gated regression: where it was seen and what broke."""

    source: str  #: campaign or artifact name
    kind: str  #: ``determinism`` | ``shape`` | ``gate``
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.source}: {self.message}"


@dataclass
class RunDiff:
    """The latest run of a campaign diffed against its predecessor."""

    campaign: str
    latest: RunRecord
    previous: Optional[RunRecord]
    #: (params_json, previous result, latest result) for matched params
    #: whose results differ.
    changed: List[Tuple[str, Optional[dict], Optional[dict]]] = field(
        default_factory=list
    )
    added: int = 0  #: params only in the latest run
    removed: int = 0  #: params only in the previous run

    @property
    def identical(self) -> bool:
        """Whether the two runs stored byte-identical rows."""
        return (
            self.previous is not None
            and not self.changed
            and not self.added
            and not self.removed
            and self.latest.fingerprint == self.previous.fingerprint
        )

    @property
    def comparable(self) -> bool:
        return self.previous is not None


@dataclass
class Report:
    """A rendered report plus the regressions its gates found."""

    text: str
    regressions: List[Regression]

    @property
    def ok(self) -> bool:
        return not self.regressions


# ---------------------------------------------------------------------------
# Memoized extraction queries (store in, JSON-compatible data out)
# ---------------------------------------------------------------------------


def _campaigns_with_prefix(store: CampaignStore, prefix: str) -> List[str]:
    return [c.name for c in store.campaigns() if c.name.startswith(prefix)]


def fig2_data(store: CampaignStore) -> Dict[str, Any]:
    """Per-position eviction fractions of every insertion-sweep campaign.

    ``{campaign: {"run": id, "engine": ..., "started_at": ...,
    "positions": [[position, trials, evicted_fraction, mean_latency]...]}}``
    — the Figure 2 check, regenerated from stored shard rows alone.
    """

    def compute() -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for campaign in _campaigns_with_prefix(store, "insertion_sweep"):
            run = store.latest_runs(campaign, 1)[0]
            evicted: Dict[int, List[bool]] = {}
            latencies: Dict[int, List[float]] = {}
            for row in store.shard_rows(run.id):
                if row.result is None:
                    continue
                position = row.result["position"]
                evicted.setdefault(position, []).append(bool(row.result["evicted"]))
                latencies.setdefault(position, []).append(row.result["latency"])
            out[campaign] = {
                "run": run.id,
                "engine": run.engine,
                "executor": run.executor,
                "started_at": run.started_at,
                "positions": [
                    [
                        position,
                        len(flags),
                        sum(flags) / len(flags),
                        sum(latencies[position]) / len(latencies[position]),
                    ]
                    for position, flags in sorted(evicted.items())
                ],
            }
        return out

    return store.memoized("reports/fig2", compute)


def capacity_data(store: CampaignStore) -> Dict[str, Any]:
    """Figure 8 curves + Table II peaks of every capacity-sweep campaign.

    ``{campaign: {"run": ..., "channel": ..., "platform": ...,
    "points": [[interval, raw, ber, capacity]...], "peak": [...]}}``.
    The campaign name carries channel and platform
    (``capacity_sweep/<channel>/<platform>``), so each history is one
    like-for-like curve.
    """

    def compute() -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for campaign in _campaigns_with_prefix(store, "capacity_sweep/"):
            _, channel, platform = (campaign.split("/", 2) + ["?", "?"])[:3]
            run = store.latest_runs(campaign, 1)[0]
            points = [
                [
                    row.result["interval"],
                    row.result["raw_rate_kb_per_s"],
                    row.result["bit_error_rate"],
                    row.result["capacity_kb_per_s"],
                ]
                for row in store.shard_rows(run.id)
                if row.result is not None
            ]
            if not points:
                continue
            out[campaign] = {
                "run": run.id,
                "engine": run.engine,
                "started_at": run.started_at,
                "channel": channel,
                "platform": platform,
                "points": points,
                "peak": max(points, key=lambda p: p[3]),
            }
        return out

    return store.memoized("reports/capacity", compute)


def trajectory_data(store: CampaignStore) -> List[Dict[str, Any]]:
    """Latest-vs-previous of every recorded benchmark artifact metric.

    One entry per artifact name carrying a ``speedup`` (gated at the
    payload's own ``gate`` field or a known floor) or a
    ``throughput_ratio`` (gated at :data:`OVERHEAD_RATIO_LIMIT`).
    """

    def compute() -> List[Dict[str, Any]]:
        out: List[Dict[str, Any]] = []
        for name in store.artifact_names():
            history = store.artifacts(name)
            latest = history[-1].payload
            previous = history[-2].payload if len(history) > 1 else None
            if "speedup" in latest:
                metric, value = "speedup", latest["speedup"]
                floor = latest.get("gate", _ARTIFACT_FLOORS.get(name))
                ceiling = None
            elif "throughput_ratio" in latest:
                metric, value = "throughput_ratio", latest["throughput_ratio"]
                floor, ceiling = None, OVERHEAD_RATIO_LIMIT
            else:
                continue
            out.append(
                {
                    "name": name,
                    "metric": metric,
                    "entries": len(history),
                    "latest": value,
                    "previous": previous.get(metric) if previous else None,
                    "floor": floor,
                    "ceiling": ceiling,
                    "engine": latest.get("engine_backend"),
                }
            )
        return out

    return store.memoized("reports/trajectory", compute)


# ---------------------------------------------------------------------------
# Regression diffs
# ---------------------------------------------------------------------------


def search_data(store: CampaignStore) -> Dict[str, Any]:
    """Convergence trajectory of each search campaign's latest search.

    A search campaign (``search/<objective>/<strategy>``) records one run
    per evaluation round, and every stored result row carries the
    driver's ``"score"`` — so the store alone can re-render convergence.
    Rounds are grouped into searches by round-number reset (a run whose
    shards carry ``round == 0`` starts a new search); the latest search's
    rounds come back with running ``best_so_far`` values.
    """

    def compute() -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for campaign in _campaigns_with_prefix(store, "search/"):
            searches: List[List[Dict[str, Any]]] = []
            for run in store.runs(campaign):
                rows = store.shard_rows(run.id)
                if not rows:
                    continue
                round_no = rows[0].params.get("round", 0)
                scores = [
                    row.result["score"]
                    for row in rows
                    if row.result is not None and "score" in row.result
                ]
                if round_no == 0 or not searches:
                    searches.append([])
                searches[-1].append(
                    {
                        "run": run.id,
                        "round": round_no,
                        "evaluations": len(rows),
                        "best": max(scores) if scores else None,
                        "started_at": run.started_at,
                    }
                )
            if not searches:
                continue
            rounds = searches[-1]
            best_so_far = None
            for entry in rounds:
                if entry["best"] is not None:
                    best_so_far = (
                        entry["best"]
                        if best_so_far is None
                        else max(best_so_far, entry["best"])
                    )
                entry["best_so_far"] = best_so_far
            out[campaign] = {
                "searches": len(searches),
                "rounds": rounds,
                "best": best_so_far,
                "started_at": rounds[0]["started_at"],
            }
        return out

    return store.memoized("reports/search", compute)


def diff_latest_runs(store: CampaignStore, campaign: str) -> RunDiff:
    """Diff a campaign's latest run against its stored predecessor.

    Rows are matched by canonical params JSON; a matched row with a
    different stored result (or error) is *changed*.  Unmatched rows count
    as added/removed — grid changes, not regressions.
    """
    runs = store.latest_runs(campaign, 2)
    latest = runs[0]
    if len(runs) < 2:
        return RunDiff(campaign=campaign, latest=latest, previous=None)
    previous = runs[1]
    diff = RunDiff(campaign=campaign, latest=latest, previous=previous)
    old_rows = {
        row.params_json: (row.result, row.error)
        for row in store.shard_rows(previous.id)
    }
    seen = set()
    for row in store.shard_rows(latest.id):
        key = row.params_json
        if key not in old_rows:
            diff.added += 1
            continue
        seen.add(key)
        old_result, old_error = old_rows[key]
        if (row.result, row.error) != (old_result, old_error):
            diff.changed.append((key, old_result or old_error, row.result or row.error))
    diff.removed = len(old_rows) - len(seen)
    return diff


def campaign_regressions(store: CampaignStore) -> Tuple[List[RunDiff], List[Regression]]:
    """Every campaign's latest-vs-previous diff plus the gated failures."""
    diffs: List[RunDiff] = []
    regressions: List[Regression] = []
    for summary in store.campaigns():
        diff = diff_latest_runs(store, summary.name)
        diffs.append(diff)
        if (
            diff.changed
            and diff.previous is not None
            and diff.latest.engine_version == diff.previous.engine_version
        ):
            params, old, new = diff.changed[0]
            regressions.append(
                Regression(
                    source=summary.name,
                    kind="determinism",
                    message=(
                        f"{len(diff.changed)} row(s) changed between runs "
                        f"{diff.previous.id} and {diff.latest.id} under the same "
                        f"engine version (first: {old!r} -> {new!r})"
                    ),
                )
            )
    # Shape gates over the latest recorded data.
    for campaign, data in fig2_data(store).items():
        broken = [p for p in data["positions"] if p[2] < 1.0]
        if broken:
            regressions.append(
                Regression(
                    source=campaign,
                    kind="shape",
                    message=(
                        f"prefetched line survived at position(s) "
                        f"{[p[0] for p in broken]} (Figure 2 requires eviction "
                        f"at every position)"
                    ),
                )
            )
    for campaign, data in capacity_data(store).items():
        runs = store.latest_runs(campaign, 2)
        if len(runs) < 2:
            continue
        previous_points = [
            row.result["capacity_kb_per_s"]
            for row in store.shard_rows(runs[1].id)
            if row.result is not None
        ]
        if not previous_points:
            continue
        previous_peak = max(previous_points)
        latest_peak = data["peak"][3]
        if latest_peak < previous_peak * (1.0 - CAPACITY_DROP_TOLERANCE):
            regressions.append(
                Regression(
                    source=campaign,
                    kind="shape",
                    message=(
                        f"peak capacity dropped {latest_peak:.1f} KB/s vs "
                        f"{previous_peak:.1f} KB/s stored (run {runs[1].id}), "
                        f"beyond the {CAPACITY_DROP_TOLERANCE:.0%} tolerance"
                    ),
                )
            )
    return diffs, regressions


def artifact_regressions(store: CampaignStore) -> List[Regression]:
    """Gated failures over the recorded benchmark artifacts."""
    regressions: List[Regression] = []
    for entry in trajectory_data(store):
        value = entry["latest"]
        if entry["floor"] is not None and value < entry["floor"]:
            regressions.append(
                Regression(
                    source=entry["name"],
                    kind="gate",
                    message=(
                        f"{entry['metric']} {value:.2f} fell below its "
                        f"{entry['floor']:.2f} gate"
                    ),
                )
            )
        if entry["ceiling"] is not None and value > entry["ceiling"]:
            regressions.append(
                Regression(
                    source=entry["name"],
                    kind="gate",
                    message=(
                        f"{entry['metric']} {value:.3f} exceeded the "
                        f"{entry['ceiling']:.2f} ceiling"
                    ),
                )
            )
    return regressions


# ---------------------------------------------------------------------------
# Markdown rendering
# ---------------------------------------------------------------------------


def _markdown_table(headers: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [
        "| " + " | ".join(str(h) for h in headers) + " |",
        "|" + "|".join("---" for _ in headers) + "|",
    ]
    lines.extend("| " + " | ".join(str(c) for c in row) + " |" for row in rows)
    return "\n".join(lines)


def _when(timestamp: float) -> str:
    return time.strftime("%Y-%m-%d %H:%M", time.localtime(timestamp))


def _fig2_section(store: CampaignStore) -> List[str]:
    data = fig2_data(store)
    if not data:
        return []
    out = ["## Figure 2 — insertion policy (from the store)", ""]
    for campaign, entry in sorted(data.items()):
        out.append(
            f"### {campaign} — run {entry['run']} "
            f"({entry['executor']}/{entry['engine']}, {_when(entry['started_at'])})"
        )
        out.append("")
        out.append(
            _markdown_table(
                ("position", "trials", "evicted", "reload p50-ish (cyc)"),
                [
                    (p[0], p[1], f"{p[2] * 100:.0f}%", f"{p[3]:.0f}")
                    for p in entry["positions"]
                ],
            )
        )
        verdict = (
            "evicted at every position ✅"
            if all(p[2] == 1.0 for p in entry["positions"])
            else "NOT always evicted ❌"
        )
        out.append("")
        out.append(f"Paper: evicted at every position. Measured: {verdict}")
        out.append("")
    return out


def _capacity_section(store: CampaignStore) -> List[str]:
    data = capacity_data(store)
    if not data:
        return []
    out = ["## Figure 8 + Table II — channel capacity (from the store)", ""]
    out.append("### Table II — peak operating points")
    out.append("")
    out.append(
        _markdown_table(
            ("channel", "platform", "interval", "raw KB/s", "BER", "capacity KB/s"),
            [
                (
                    entry["channel"],
                    entry["platform"],
                    entry["peak"][0],
                    f"{entry['peak'][1]:.0f}",
                    f"{entry['peak'][2] * 100:.2f}%",
                    f"{entry['peak'][3]:.0f}",
                )
                for _, entry in sorted(data.items())
            ],
        )
    )
    out.append("")
    for campaign, entry in sorted(data.items()):
        out.append(
            f"### Figure 8 — {campaign} — run {entry['run']} "
            f"({_when(entry['started_at'])})"
        )
        out.append("")
        out.append(
            _markdown_table(
                ("interval", "raw KB/s", "BER", "capacity KB/s"),
                [
                    (p[0], f"{p[1]:.0f}", f"{p[2] * 100:.2f}%", f"{p[3]:.0f}")
                    for p in entry["points"]
                ],
            )
        )
        out.append("")
    return out


def _search_section(store: CampaignStore) -> List[str]:
    data = search_data(store)
    if not data:
        return []
    out = ["## Search convergence", ""]
    for campaign, entry in sorted(data.items()):
        best = f"{entry['best']:.4f}" if entry["best"] is not None else "—"
        out.append(
            f"### {campaign} — search {entry['searches']} "
            f"({_when(entry['started_at'])}), best {best}"
        )
        out.append("")
        out.append(
            _markdown_table(
                ("round", "run", "evals", "round best", "best so far"),
                [
                    (
                        r["round"],
                        r["run"],
                        r["evaluations"],
                        f"{r['best']:.4f}" if r["best"] is not None else "—",
                        f"{r['best_so_far']:.4f}"
                        if r["best_so_far"] is not None
                        else "—",
                    )
                    for r in entry["rounds"]
                ],
            )
        )
        out.append("")
    return out


def _trajectory_section(store: CampaignStore) -> List[str]:
    data = trajectory_data(store)
    if not data:
        return []
    rows = []
    for entry in data:
        previous = entry["previous"]
        delta = (
            f"{(entry['latest'] - previous) / previous * 100:+.1f}%"
            if previous
            else "—"
        )
        if entry["floor"] is not None:
            gate = f">= {entry['floor']:.2f}"
            ok = entry["latest"] >= entry["floor"]
        elif entry["ceiling"] is not None:
            gate = f"<= {entry['ceiling']:.2f}"
            ok = entry["latest"] <= entry["ceiling"]
        else:  # pragma: no cover - every tracked metric carries a bound
            gate, ok = "—", True
        rows.append(
            (
                entry["name"],
                entry["metric"],
                entry["entries"],
                f"{entry['latest']:.3f}",
                f"{previous:.3f}" if previous is not None else "—",
                delta,
                gate,
                "✅" if ok else "❌",
            )
        )
    return [
        "## Perf trajectory — benchmark artifacts",
        "",
        _markdown_table(
            ("artifact", "metric", "entries", "latest", "previous", "Δ", "gate", "ok"),
            rows,
        ),
        "",
    ]


def _diff_section(diffs: List[RunDiff]) -> List[str]:
    if not diffs:
        return []
    out = ["## Regression diff — latest run vs stored history", ""]
    rows = []
    for diff in sorted(diffs, key=lambda d: d.campaign):
        if not diff.comparable:
            status = "first recorded run"
        elif diff.identical:
            status = "identical ✅"
        elif diff.changed:
            status = f"{len(diff.changed)} changed ❌"
        else:
            status = f"grid changed ({diff.added} added, {diff.removed} removed)"
        rows.append(
            (
                diff.campaign,
                diff.latest.id,
                diff.previous.id if diff.previous else "—",
                diff.latest.engine,
                f"{diff.latest.shards_cached}/{diff.latest.shards_total}",
                status,
            )
        )
    out.append(
        _markdown_table(
            ("campaign", "run", "vs", "engine", "cached", "status"), rows
        )
    )
    out.append("")
    return out


def generate_report(store: CampaignStore, title: str = "Leaky Way campaign report") -> Report:
    """The full markdown report + gated regressions, from the store alone."""
    campaigns = store.campaigns()
    artifact_names = store.artifact_names()
    diffs, regressions = campaign_regressions(store)
    regressions = regressions + artifact_regressions(store)
    lines = [
        f"# {title}",
        "",
        f"Store: `{store.path}` — {len(campaigns)} campaign(s), "
        f"{sum(c.runs for c in campaigns)} run(s), "
        f"{len(artifact_names)} artifact serie(s).",
        "",
    ]
    lines += _fig2_section(store)
    lines += _capacity_section(store)
    lines += _search_section(store)
    lines += _trajectory_section(store)
    lines += _diff_section(diffs)
    lines.append("## Verdict")
    lines.append("")
    if regressions:
        lines.append(f"{len(regressions)} gated regression(s):")
        lines.append("")
        lines.extend(f"- {r}" for r in regressions)
    else:
        lines.append("No gated regressions. ✅")
    lines.append("")
    return Report(text="\n".join(lines), regressions=regressions)

"""The reference report renderers: one json.dumps call over the whole report
and one csv.writer row per trial. scenario's renderers format a shared
record once and splice in trial numbers; they must give these bytes."""

import csv
import io
import json

from beaconveil import config_sha256


def report_dict(report, cfg) -> dict:
    trials = []
    for tr in report.trials:
        r = tr.result
        trials.append({
            "trial": tr.trial,
            "actor": tr.actor,
            "label": tr.label,
            "verdict": r.verdict,
            "reason": r.reason.code if r.reason is not None else None,
            "pattern_id": r.pattern_id,
            "phy_ok": r.phy_ok,
            "app_ok": r.app_ok,
            "duration_s": r.duration_s,
            "transcript": [str(t) for t in r.transcript],
        })
    return {"config_sha256": config_sha256(cfg), "seed": cfg.seed,
            "metrics": report.metrics.to_dict(), "trials": trials}


def report_json(report, cfg) -> str:
    return json.dumps(report_dict(report, cfg), sort_keys=True,
                      separators=(",", ":")) + "\n"


def trials_csv(report) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["trial", "actor", "verdict", "reason", "duration_s"])
    for tr in report.trials:
        r = tr.result
        w.writerow([tr.trial, tr.actor, r.verdict,
                    r.reason.code if r.reason is not None else "",
                    f"{r.duration_s:.6f}"])
    return buf.getvalue()

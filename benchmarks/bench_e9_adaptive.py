"""E9 (extension) — Table: adaptivity survey of last-level caches.

Post-paper work showed that Ivy Bridge-era L3 caches *adapt* through set
dueling, breaking the one-policy-per-cache assumption.  This extension
experiment samples sets of each catalog L3 (plus one known-adaptive
stand-in) and classifies them: a fixed-policy cache classifies uniformly,
a dueling cache exposes deterministic leader sets amid nondeterministic
followers.
"""

import pytest

from repro.core.adaptive import AdaptivitySurvey
from repro.hardware import HardwarePlatform, HardwareSetOracle, get_processor
from repro.policies.dueling import DuelController
from repro.runner import ExperimentRunner
from repro.util.tables import format_table
from repro.obs.spans import traced

#: (processor, level, sampled set indices are chosen below)
TARGETS = [
    ("sandybridge-like", "L3"),
    ("haswell-adaptive-like", "L3"),
]


def _survey_cell(task: tuple[str, str]):
    """Survey one (processor, level) target on a fresh platform."""
    processor, level = task
    spec = get_processor(processor)
    platform = HardwarePlatform(spec, seed=0)
    config = platform.level_config(level)
    controller = DuelController(config.num_sets)
    leaders = [s for s in range(config.num_sets) if controller.is_primary_leader(s)]
    seconds = [s for s in range(config.num_sets) if controller.is_secondary_leader(s)]
    # Sample: one true primary leader, one secondary, four followers.
    sample = [leaders[0], seconds[0]] + [5, 33, 301, 523]
    survey = AdaptivitySurvey(
        lambda set_index: HardwareSetOracle(
            platform, level, set_index=set_index, max_blocks=128
        ),
        ways=config.ways,
        level=level,
    )
    report = survey.survey(sample)
    rows = []
    for classification in report.classifications:
        rows.append(
            [
                processor,
                level,
                classification.set_index,
                classification.kind,
                classification.policy_name or "-",
            ]
        )
    rows.append([processor, level, "->", report.summary(), ""])
    return rows, report


@traced("e9.survey")
def survey_all(jobs: int = 0):
    runner = ExperimentRunner(jobs=jobs)
    surveyed = runner.map(_survey_cell, TARGETS)
    rows = []
    verdicts = {}
    for (processor, _level), (cell_rows, report) in zip(TARGETS, surveyed):
        rows.extend(cell_rows)
        verdicts[processor] = report
    return rows, verdicts


def test_e9_adaptivity_survey(benchmark, save_result, jobs):
    rows, verdicts = benchmark.pedantic(survey_all, args=(jobs,), rounds=1, iterations=1)
    table = format_table(
        ["processor", "level", "set", "kind", "policy"],
        rows,
        title="E9: per-set classification and adaptivity verdicts",
    )
    save_result(
        "e9_adaptive",
        table,
        data={
            "columns": ["processor", "level", "set", "kind", "policy"],
            "rows": rows,
            "verdicts": {
                processor: report.summary()
                for processor, report in verdicts.items()
            },
        },
        params={"targets": TARGETS, "jobs": jobs},
    )
    # The fixed bit-PLRU L3 must classify uniformly ...
    assert not verdicts["sandybridge-like"].adaptive
    assert verdicts["sandybridge-like"].fixed_policy == "bitplru"
    # ... and the DIP L3 must be flagged, with its primary leader found.
    adaptive = verdicts["haswell-adaptive-like"]
    assert adaptive.adaptive
    leader_kinds = {c.kind for c in adaptive.suspected_leaders()}
    assert "named" in leader_kinds

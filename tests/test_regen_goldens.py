"""The golden regeneration tool refuses every change beyond float roundoff."""

import pytest

from regen_goldens import diff

OLD = {"checks": [{"name": "eq_2_9", "verdict": "pass", "samples_used": 50,
                   "max_residual": 1.0, "details": {"h_symmetry": 2e-16}}],
       "meta": {"structure_sign": "phi-flipped", "vacuous": None}}


def _run(new):
    stats = {"changed": 0, "max_abs": 0.0, "max_rel": 0.0}
    problems = []
    diff(OLD, new, "golden", stats, problems)
    return stats, problems


def _edited(path, value):
    new = {"checks": [dict(OLD["checks"][0], details=dict(OLD["checks"][0]["details"]))],
           "meta": dict(OLD["meta"])}
    target = new
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return new


def test_roundoff_floats_are_counted_not_refused():
    stats, problems = _run(_edited(("checks", 0, "details", "h_symmetry"), 5e-16))
    assert problems == []
    assert stats["changed"] == 1 and stats["max_abs"] == pytest.approx(3e-16)
    stats, problems = _run(_edited(("checks", 0, "max_residual"), 1.0 + 4e-16))
    assert problems == [] and stats["changed"] == 1


@pytest.mark.parametrize("path,value", [
    (("checks", 0, "max_residual"), 1.0 + 1e-8),   # beyond 1e-12 + 1e-9 * |old|
    (("checks", 0, "verdict"), "fail"),
    (("checks", 0, "samples_used"), 49),
    (("meta", "structure_sign"), "as-extracted"),
    (("meta", "vacuous"), False),
    (("checks", 0, "samples_used"), 50.0),          # an int turned float
])
def test_other_changes_are_refused(path, value):
    assert len(_run(_edited(path, value))[1]) == 1


def test_shape_changes_are_refused():
    assert _run({"checks": [], "meta": OLD["meta"]})[1]
    assert _run({"checks": OLD["checks"], "meta": {**OLD["meta"], "extra": 1}})[1]

"""Every package name that README.md puts in backticks exists.

A backticked ``Name`` or ``Name.attr`` (``Name`` an optional ``_``, then an
upper-case and a lower-case letter) must be an attribute of some
``lotus_qaoa`` module, ``attr`` an attribute or dataclass field of it. A
backticked ``engine.x``, ``optim.x``, ``harness.x``, ``instance.x``,
``schedule.x`` or ``records.x`` must be an attribute of that module. A glob
such as ``optim.INIT_*`` is skipped.
"""
import dataclasses
import importlib
import os
import pkgutil
import re

import lotus_qaoa

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")
MODULES = {info.name: importlib.import_module(f"lotus_qaoa.{info.name}")
           for info in pkgutil.iter_modules(lotus_qaoa.__path__)}
QUALIFIED = ("engine", "optim", "harness", "instance", "schedule", "records")
NAME = re.compile(r"`((?:_?[A-Z][a-z]\w*|(?:%s)\.\w+)(?:\.\w+)?)`" % "|".join(QUALIFIED))


ABSENT = object()


def _attribute(owner, name):
    """``owner.name``, a dataclass field without a default included; ABSENT if neither."""
    if hasattr(owner, name):
        return getattr(owner, name)
    if dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}:
        return None  # set on instances only: nothing below it resolves
    return ABSENT


def resolves(ref: str) -> bool:
    head, *path = ref.split(".")
    if head in QUALIFIED:
        owners = [MODULES[head]]
    else:
        owners, path = list(MODULES.values()), [head, *path]
    for owner in owners:
        for name in path:
            owner = _attribute(owner, name)
            if owner is ABSENT:
                break
        else:
            return True
    return False


def test_the_pattern_skips_globs_and_prose():
    text = "`optim.INIT_*`, `harness`, `lotus-qaoa check`, `CostDiagonal`, `optim.minimize`"
    assert NAME.findall(text) == ["CostDiagonal", "optim.minimize"]


def test_a_stale_name_does_not_resolve():
    assert resolves("Workspace.keep") and resolves("RunRecord.seed")
    assert resolves("SweepConfig.lotus_budget")  # a field whose default is None
    assert resolves("engine.Workspace") and resolves("_MixerFactors")
    assert not resolves("ObjectiveSpec.eval_counter")
    assert not resolves("optim.ObjectiveSpec") and not resolves("Schedule.grid")


def test_every_backticked_name_resolves():
    with open(README, encoding="utf-8") as fh:
        names = sorted(set(NAME.findall(fh.read())))
    assert len(names) >= 4, names
    assert [name for name in names if not resolves(name)] == []

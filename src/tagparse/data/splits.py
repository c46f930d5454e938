"""Question-based and query-based split construction.

A question split shuffles examples uniformly.  A query split shuffles
template ids and puts every example of a template wholly inside one
section, so train and test never share a template: parsing the test set
requires generalizing to unseen meaning shapes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, List, Sequence

import numpy as np

from ..checkpoint import config_from_fields

__all__ = ["SplitError", "SplitSpec", "make_split"]

SECTION_NAMES = ("train", "dev", "test")
DEFAULT_RATIOS = (0.7, 0.3)     # train, test
_MODES = ("question", "query")


class SplitError(ValueError):
    pass


@dataclass(frozen=True)
class SplitSpec:
    mode: str                       # "question" | "query"
    seed: int
    sections: dict                  # section name -> list of example ids

    def __post_init__(self):
        if self.mode not in _MODES:
            raise SplitError(f"unknown split mode {self.mode!r}")
        for name, ids in self.sections.items():
            if not isinstance(ids, list) or any(type(i) is not int for i in ids):
                raise SplitError(f"section {name!r} is not a list of integer ids")

    def ids(self, section: str) -> List[int]:
        if section not in self.sections:
            raise SplitError(f"no section {section!r} in split "
                             f"(has {sorted(self.sections)})")
        return self.sections[section]

    def select(self, corpus, section: str):
        by_id = {ex.example_id: ex for ex in corpus}
        missing = [i for i in self.ids(section) if i not in by_id]
        if missing:
            raise SplitError(f"split section {section!r} names example id {missing[0]}, "
                             f"which the corpus lacks")
        return [by_id[i] for i in self.ids(section)]

    def save(self, path) -> None:
        with open(path, "w") as f:
            json.dump(asdict(self), f, sort_keys=True)
            f.write("\n")

    @staticmethod
    def load(path) -> "SplitSpec":
        """Read a split file; a missing field, or one of the wrong type, raises SplitError."""
        with open(path) as f:
            return config_from_fields(SplitSpec, json.load(f), f"split {path}", SplitError)


def _boundaries(total: int, ratios: Sequence[float]) -> List[int]:
    cuts = [0]
    acc = 0.0
    for r in ratios:
        acc += r
        cuts.append(int(round(acc * total)))
    cuts[-1] = total
    return cuts


def make_split(corpus, mode: str, ratios: Sequence[float], seed: int) -> SplitSpec:
    """Partition a corpus; ratios cover train[, dev], test and sum to 1."""
    if mode not in _MODES:
        raise SplitError(f"unknown split mode {mode!r}")
    if not 2 <= len(ratios) <= 3:
        raise SplitError(f"need 2 or 3 ratios, got {len(ratios)}")
    for r in ratios:
        if not 0 < r < np.inf:                        # NaN fails too
            raise SplitError(f"each ratio must be finite and > 0, got {r}")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise SplitError(f"ratios must sum to 1, got {sum(ratios)}")
    names = ("train", "test") if len(ratios) == 2 else SECTION_NAMES
    rng = np.random.default_rng(seed)

    if mode == "question":
        ids = [ex.example_id for ex in corpus]
        perm = [ids[i] for i in rng.permutation(len(ids))]
        cuts = _boundaries(len(perm), ratios)
        sections = {name: sorted(perm[cuts[k]:cuts[k + 1]])
                    for k, name in enumerate(names)}
        return SplitSpec("question", seed, sections)

    by_template: Dict[str, List[int]] = {}
    for ex in corpus:
        by_template.setdefault(ex.template_id, []).append(ex.example_id)
    templates = sorted(by_template)
    if len(templates) < len(ratios):
        raise SplitError(
            f"query split needs at least {len(ratios)} templates, corpus has "
            f"{len(templates)}")
    perm = [templates[i] for i in rng.permutation(len(templates))]
    cuts = _boundaries(len(perm), ratios)
    sections = {}
    for k, name in enumerate(names):
        chosen = perm[cuts[k]:cuts[k + 1]]
        sections[name] = sorted(i for t in chosen for i in by_template[t])
    return SplitSpec("query", seed, sections)

"""Popularity-contest survey model (§2).

The Debian/Ubuntu "popularity contest" reports, per package, how many
opted-in installations have it installed.  The study consumed the
by-install counts from 2,935,744 installations.  This module models
that data source: per-package installation counts plus the survey
total, with the derived quantity both metrics consume —
``Pr{pkg ∈ Inst} = installs(pkg) / total``.

Real popcon data is strongly heavy-tailed: a core of essential packages
is on ~100% of installations, and installation frequency then falls
off roughly like a power law.  :meth:`PopularityContest.synthesize`
reproduces that shape deterministically.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

# The survey size the paper reports (2,745,304 Ubuntu + 187,795 Debian
# minus overlap adjustments; the paper uses 2,935,744 in §2.4).
PAPER_TOTAL_INSTALLATIONS = 2_935_744


class PopularityContest:
    """Per-package installation counts over a survey population."""

    def __init__(self, total_installations: int,
                 counts: Optional[Mapping[str, int]] = None) -> None:
        if total_installations <= 0:
            raise ValueError("total_installations must be positive")
        self.total_installations = total_installations
        self._counts: Dict[str, int] = dict(counts or {})
        for name, count in self._counts.items():
            self._check(name, count)

    def _check(self, name: str, count: int) -> None:
        if count < 0 or count > self.total_installations:
            raise ValueError(
                f"count for {name!r} ({count}) outside "
                f"[0, {self.total_installations}]")

    # --- accessors -------------------------------------------------------

    def installations(self, package: str) -> int:
        return self._counts.get(package, 0)

    def set_installations(self, package: str, count: int) -> None:
        self._check(package, count)
        self._counts[package] = count

    def install_probability(self, package: str) -> float:
        """``Pr{pkg ∈ Inst}`` — the quantity both metrics consume."""
        return self.installations(package) / self.total_installations

    def packages(self) -> List[str]:
        return list(self._counts)

    def __contains__(self, package: str) -> bool:
        return package in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def most_installed(self, limit: int = 10) -> List[Tuple[str, int]]:
        ranked = sorted(self._counts.items(),
                        key=lambda item: (-item[1], item[0]))
        return ranked[:limit]

    # --- synthesis ----------------------------------------------------------

    @classmethod
    def synthesize(
        cls,
        package_names: Iterable[str],
        total_installations: int = PAPER_TOTAL_INSTALLATIONS,
        essential: Iterable[str] = (),
        pinned: Optional[Mapping[str, float]] = None,
        zipf_exponent: float = 1.0,
        head_probability: float = 0.995,
        seed: int = 2016,
    ) -> "PopularityContest":
        """Build a survey with popcon-like shape.

        ``essential`` packages get ~100% installation probability.
        ``pinned`` maps package names to exact probabilities (used to
        pin structurally important packages like qemu or kexec-tools).
        All remaining packages get Zipf-distributed probabilities in
        rank order of a deterministic per-name hash, scaled so the head
        approaches ``head_probability`` and the tail approaches zero.
        """
        names = list(package_names)
        pinned = dict(pinned or {})
        # Input order, deduplicated: counts (and so ``packages()``)
        # must not follow set order, which varies with PYTHONHASHSEED.
        essential_names = list(dict.fromkeys(essential))
        essential_set = set(essential_names)
        counts: Dict[str, int] = {}

        rest = [n for n in names
                if n not in essential_set and n not in pinned]
        # Deterministic rank: stable hash of the name mixed with seed.
        def rank_key(name: str) -> int:
            value = seed & 0xFFFFFFFF
            for char in name:
                value = (value * 1000003 ^ ord(char)) & 0xFFFFFFFF
            return value

        rest.sort(key=rank_key)
        n_rest = len(rest)
        for index, name in enumerate(rest):
            # Zipf-like decay over rank, normalized to (0, head].
            probability = head_probability / math.pow(
                index + 1.0, zipf_exponent)
            # Keep a realistic floor: popcon counts rarely hit zero for
            # packages that exist at all.
            probability = max(probability, 2.0 / total_installations)
            counts[name] = max(1, int(probability * total_installations))
        for name in essential_names:
            if name in names:
                counts[name] = total_installations
        for name, probability in pinned.items():
            if name in names:
                # Pins are exact at zero: an explicit 0.0 yields zero
                # installations.  Strictly positive pins keep the
                # one-installation floor so a tiny probability does not
                # truncate to absent.
                if probability == 0.0:
                    counts[name] = 0
                else:
                    counts[name] = max(1, min(
                        total_installations,
                        int(probability * total_installations)))
        return cls(total_installations, counts)

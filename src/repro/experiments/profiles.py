"""Per-client browsing profiles: heterogeneous fleet populations.

The paper's population-scale claims (tracking recall, k-anonymity,
re-identification) were measured against *real* browsing populations, which
are nothing like N copies of one synthetic user.  This module gives the
fleet simulator a population model: every client is assigned a
:class:`ClientProfile` — working-set size and revisit skew, a locale slice
of the shared URL corpus, a diurnal activity cycle on the shared logical
schedule, intermittent mobile-style connectivity, and optional per-client
privacy-policy / adversary-exposure overrides — by a named
:class:`PopulationProfile` from the :data:`PROFILE_FACTORIES` registry.

Assignment is a pure function of ``(fleet seed, global client index)``:
the same client gets the same profile whether the fleet runs monolithically
or sharded over worker processes (:mod:`repro.experiments.parallel`), which
is what keeps parallel runs byte-identical to single-process runs.  For the
same reason every random draw here goes through :func:`unit_uniform`, a
SHA-256-derived uniform that is independent of process, platform and
``PYTHONHASHSEED`` — ``hash()`` is none of those things.

The ``"uniform"`` profile reproduces the legacy homogeneous fleet
bit-for-bit: every client receives the default :class:`ClientProfile`,
with the full corpus pool and no activity gating.
"""

from __future__ import annotations

import hashlib
import math
from collections.abc import Callable
from dataclasses import dataclass, replace

from repro.exceptions import ExperimentError


def unit_uniform(*parts: int | float | str) -> float:
    """A deterministic uniform draw in ``[0, 1)`` keyed by ``parts``.

    Derived from SHA-256 over the stringified parts, so the value is
    reproducible across processes, platforms and ``PYTHONHASHSEED`` — the
    shard workers and the monolithic run must agree on every draw.
    """
    payload = "\x1f".join(str(part) for part in parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True, slots=True)
class ClientProfile:
    """The browsing behaviour of one simulated client.

    Attributes
    ----------
    working_set_size / working_set_fraction / malicious_fraction /
    zipf_exponent:
        Per-client stream shape.  The defaults are the fleet's base
        profile; a population profile varies them per client.
    locale_lo / locale_hi:
        The slice of the shared URL pool this client browses, as fractions
        of the pool — a locale-skewed corpus.  ``(0.0, 1.0)`` is the whole
        pool (the legacy behaviour).
    activity_amplitude / activity_peak_hour:
        Diurnal cycle on the shared logical schedule: the client's
        probability of being active in a round dips by up to ``amplitude``
        at the antipode of ``peak_hour``.  ``0.0`` disables the cycle.
    connectivity:
        Baseline probability of being online in any round (mobile-style
        intermittent connectivity).  ``1.0`` is always-on.
    reconnect_restart:
        When ``True``, a client coming back online after offline rounds
        restarts its browser through the churn machinery — with
        ``FleetConfig.warm_start`` it snapshot-resumes, feeding the PR 5
        warm-start accounting.
    privacy_policy:
        Per-client defense override (a ``POLICY_FACTORIES`` name), or
        ``None`` to inherit the fleet-wide policy — this is how a policy
        *mix* varies across the population instead of fleet-wide.
    tracked_visit_fraction:
        Per-client adversary-exposure override (``None`` inherits the
        fleet-wide fraction; ``0.0`` means this client never visits tracked
        targets).
    """

    working_set_size: int = 40
    working_set_fraction: float = 0.95
    malicious_fraction: float = 0.03
    zipf_exponent: float = 1.1
    locale_lo: float = 0.0
    locale_hi: float = 1.0
    activity_amplitude: float = 0.0
    activity_peak_hour: float = 12.0
    connectivity: float = 1.0
    reconnect_restart: bool = False
    privacy_policy: str | None = None
    tracked_visit_fraction: float | None = None

    def __post_init__(self) -> None:
        if self.working_set_size <= 0:
            raise ExperimentError("profile working_set_size must be positive")
        if not (0.0 <= self.working_set_fraction <= 1.0):
            raise ExperimentError("profile working_set_fraction must be in [0, 1]")
        if not (0.0 <= self.malicious_fraction <= 1.0):
            raise ExperimentError("profile malicious_fraction must be in [0, 1]")
        if self.working_set_fraction + self.malicious_fraction > 1.0 + 1e-9:
            raise ExperimentError("profile stream fractions must not exceed 1")
        if self.zipf_exponent <= 0:
            raise ExperimentError("profile zipf_exponent must be positive")
        if not (0.0 <= self.locale_lo < self.locale_hi <= 1.0):
            raise ExperimentError("profile locale slice must satisfy "
                                  "0 <= lo < hi <= 1")
        if not (0.0 <= self.activity_amplitude <= 1.0):
            raise ExperimentError("profile activity_amplitude must be in [0, 1]")
        if not (0.0 < self.connectivity <= 1.0):
            raise ExperimentError("profile connectivity must be in (0, 1]")
        if (self.tracked_visit_fraction is not None
                and not (0.0 <= self.tracked_visit_fraction <= 1.0)):
            raise ExperimentError(
                "profile tracked_visit_fraction must be in [0, 1] or None")

    def active_probability(self, logical_seconds: float) -> float:
        """Probability of being active at ``logical_seconds`` on the schedule.

        The diurnal term is a raised cosine peaking at
        ``activity_peak_hour`` and dipping by ``activity_amplitude`` twelve
        hours away; ``connectivity`` scales the whole curve.
        """
        if self.activity_amplitude <= 0.0:
            return self.connectivity
        hour = (logical_seconds / 3600.0) % 24.0
        cycle = 0.5 * (1.0 + math.cos(
            2.0 * math.pi * (hour - self.activity_peak_hour) / 24.0))
        return self.connectivity * (1.0 - self.activity_amplitude * (1.0 - cycle))

    def online(self, seed: int, index: int, round_index: int,
               round_seconds: float) -> bool:
        """Whether client ``index`` is online in ``round_index``.

        Keyed by the *global* client index and the round's position on the
        logical schedule (``round_index * round_seconds``), never by
        wall-clock or shard-local state — so shard workers and the
        monolithic run agree round for round.
        """
        probability = self.active_probability(round_index * round_seconds)
        if probability >= 1.0:
            return True
        return unit_uniform(seed, index, round_index, "online") < probability


#: How a population profile derives one client's profile: a pure function of
#: the base (config-level) profile, the fleet seed and the global index.
AssignFunction = Callable[[ClientProfile, int, int], ClientProfile]


@dataclass(frozen=True, slots=True)
class PopulationProfile:
    """A named population: assigns every client its :class:`ClientProfile`."""

    name: str
    description: str
    assign: AssignFunction

    def profile_for(self, base: ClientProfile, seed: int,
                    index: int) -> ClientProfile:
        """The profile of global client ``index`` under fleet ``seed``."""
        return self.assign(base, seed, index)


def _uniform(base: ClientProfile, seed: int, index: int) -> ClientProfile:
    return base


def _desktop(base: ClientProfile, seed: int, index: int) -> ClientProfile:
    # Big revisit-heavy working sets, always-on, office-hours diurnal cycle.
    jitter = 0.9 + 0.2 * unit_uniform(seed, index, "desktop-zipf")
    return replace(
        base,
        working_set_size=2 * base.working_set_size,
        zipf_exponent=base.zipf_exponent * jitter,
        activity_amplitude=0.6,
        activity_peak_hour=14.0,
    )


def _mobile(base: ClientProfile, seed: int, index: int) -> ClientProfile:
    # Small working sets, evening peak, intermittent connectivity; coming
    # back online restarts the browser through the churn/warm-start path.
    return replace(
        base,
        working_set_size=max(8, base.working_set_size // 2),
        activity_amplitude=0.4,
        activity_peak_hour=20.0,
        connectivity=0.7,
        reconnect_restart=True,
    )


def _regional(base: ClientProfile, seed: int, index: int) -> ClientProfile:
    # Four locales browsing overlapping 40% windows of the corpus, with
    # locale-specific popularity skew.
    locale = int(unit_uniform(seed, index, "locale") * 4.0)
    lo = 0.2 * locale
    return replace(
        base,
        locale_lo=lo,
        locale_hi=lo + 0.4,
        zipf_exponent=base.zipf_exponent * (0.9 + 0.1 * locale),
    )


def _global_mix(base: ClientProfile, seed: int, index: int) -> ClientProfile:
    # The heterogeneous headline population: a desktop/mobile/regional
    # cohort mix with privacy defenses and adversary exposure varying
    # across clients instead of fleet-wide.
    cohort = unit_uniform(seed, index, "cohort")
    if cohort < 0.5:
        profile = _desktop(base, seed, index)
    elif cohort < 0.8:
        profile = _mobile(base, seed, index)
    else:
        profile = _regional(base, seed, index)
    policy_draw = unit_uniform(seed, index, "policy")
    if policy_draw < 0.10:
        profile = replace(profile, privacy_policy="dummy")
    elif policy_draw < 0.15:
        profile = replace(profile, privacy_policy="one-prefix")
    exposure = unit_uniform(seed, index, "exposure")
    if exposure < 0.2:
        profile = replace(profile, tracked_visit_fraction=0.0)
    elif exposure > 0.9:
        profile = replace(profile, tracked_visit_fraction=None)  # inherit
    return profile


#: Registry of named population profiles, mirroring the ``POLICY_FACTORIES``
#: / ``STORE_FACTORIES`` convention: :func:`build_profile` rejects unknown
#: names with the registered list, and the CLI pins its choices to these
#: keys by unit test.
PROFILE_FACTORIES: dict[str, PopulationProfile] = {
    "uniform": PopulationProfile(
        name="uniform",
        description="every client identical to the default ClientProfile "
                    "(the legacy homogeneous fleet)",
        assign=_uniform,
    ),
    "desktop": PopulationProfile(
        name="desktop",
        description="always-on clients with large working sets and an "
                    "office-hours diurnal cycle",
        assign=_desktop,
    ),
    "mobile": PopulationProfile(
        name="mobile",
        description="intermittently connected clients that warm-restart "
                    "on reconnect (feeds the churn/warm-start machinery)",
        assign=_mobile,
    ),
    "regional": PopulationProfile(
        name="regional",
        description="four locales browsing overlapping slices of the "
                    "corpus with locale-specific Zipf skew",
        assign=_regional,
    ),
    "global-mix": PopulationProfile(
        name="global-mix",
        description="desktop/mobile/regional cohort mix with per-client "
                    "privacy-policy and adversary-exposure variation",
        assign=_global_mix,
    ),
}


def build_profile(name: str) -> PopulationProfile:
    """Look up a population profile by registry name.

    Unknown names are rejected with the registered list, matching the
    ``build_policy`` / ``build_store`` convention, so callers (and the CLI)
    can correct a typo without reading the source.
    """
    try:
        return PROFILE_FACTORIES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown population profile {name!r}; "
            f"expected one of {sorted(PROFILE_FACTORIES)}"
        ) from None
